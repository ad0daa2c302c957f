"""Central numeric policy: every default tolerance and cap lives here.

Conventions used throughout the package
---------------------------------------
Points of C^n are numpy complex arrays of shape (n,); the identification
with R^{2n} is z_j = x_{2j} + i*x_{2j+1} (axis order x_1, y_1, ..., x_n, y_n).

Two volume normalizations appear.  The flat Lebesgue measure of the real
coordinates underlies all matrix inner products (cell weight h^{2n}).  The
Hermitian volume element i^n dz_1 dzbar_1 ... dz_n dzbar_n equals
2^n times Lebesgue; kernels of the form-valued Laplacians are reported in
this normalization (see README, "Volume conventions"), so a discrete delta
carries weight 1/(2^n h^{2n}).
"""

import numpy as np

# Eigenvalues with |lambda| below this are treated as degenerate: the
# asymptotic-diagonal factor switches to its Taylor series and the Morse
# index is reported as degenerate.  Units of curvature.
DEGENERACY_THRESHOLD = 1e-8

# Step for the 4th-order central finite differences used for perturbation
# gradients/Hessians when no exact derivative callable is supplied.
FD_STEP = 1e-4

# Construction-time Hermiticity tolerances.
HERMITIAN_ABS_TOL = 1e-12          # curvature matrices (absolute)
OPERATOR_HERMITIAN_RTOL = 1e-12    # assembled sparse operators (relative to max norm)
HESSIAN_ASYMMETRY_TOL = 1e-10      # raw finite-difference Hessians before symmetrizing

# Grid caps.
SITE_CAP = 200_000                 # max number of spatial grid sites
DENSE_EIGEN_CAP = 6000             # max matrix dimension for the dense-eigen method

# Dimension above which kernel/diagonal evaluations automatically prefer the
# Krylov propagator over a dense eigendecomposition (dense LAPACK on this
# scale is far slower than a handful of Lanczos solves).
DENSE_AUTO_LIMIT = 1600

# Largest complex band (bytes) that the positivity certificate of
# semigroup.spectral_bound_check factorises; it grows as 64 * side^3 on a
# 2-D grid (62 MB at side 101), and larger operators fall back to ARPACK.
BAND_CHOLESKY_MAX_BYTES = 2**29

# Ghost-mode stabilizer for the centred-difference factor assembly: the
# assembled operator gains sigma * h^6 * sum_a (D4_a)^T (D4_a), which is
# O(h^6) on smooth fields but lifts the checkerboard null modes of the
# centred first difference to O(1/h^2).  See README, "Discretization".
GHOST_STABILIZER = 0.005

# Krylov propagator: Lanczos basis size per restart and residual tolerance.
KRYLOV_DIM = 60
KRYLOV_TOL = 1e-8
KRYLOV_MAX_RESTARTS = 64

# Crank-Nicolson default number of time steps when no dt is given.
CN_DEFAULT_STEPS = 1024

# Stochastic trace estimation.
TRACE_PROBES = 64

# Boundary-radius guidance: Dirichlet truncation radius so the model ground
# state mass outside is < 1e-8; fallback when some lambda vanishes.
RADIUS_SAFETY = 5.0
RADIUS_FALLBACK = 8.0

# Fixed grid policy for the k-convergence experiment (scaled coordinates).
CONVERGE_RADIUS = 6.0
CONVERGE_SPACING = 0.2

# Safety factor applied to Richardson error estimates in the Landau-level
# oracle validation.
RICHARDSON_SAFETY = 2.0

# CSV float formatting: 17 significant digits round-trips float64 exactly.
CSV_FLOAT_FORMAT = ".17g"


def suggest_radius(lambdas) -> float:
    """Dirichlet radius with ground-state tail below 1e-8 for the given eigenvalues."""
    lam = np.asarray(lambdas, dtype=float)
    nonzero = np.abs(lam[np.abs(lam) > 0])
    if nonzero.size == 0:
        return RADIUS_FALLBACK
    return max(RADIUS_SAFETY / np.sqrt(nonzero.min()), RADIUS_SAFETY)
