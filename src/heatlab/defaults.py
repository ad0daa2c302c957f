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

import math

# Eigenvalues with |lambda| below this are treated as degenerate:
# model_kernels.heat_factor switches to its Taylor series, _exponent to
# its limit 1/(2t), and geometry.morse_index reports the Morse index as
# degenerate.  Units of curvature.
DEGENERACY_THRESHOLD = 1e-8

# Step for the 4th-order central finite differences used for perturbation
# derivatives when no exact callable is supplied: the zbar-gradient from
# the value, and the Hessian from the zbar-gradient (which reaches
# 4 * FD_STEP from the point along one axis when both are differenced).
FD_STEP = 1e-4

# Construction-time Hermiticity tolerances.
HERMITIAN_ABS_TOL = 1e-12          # curvature matrices (absolute)
OPERATOR_HERMITIAN_RTOL = 1e-12    # assembled sparse operators (relative to max norm)
HESSIAN_ASYMMETRY_TOL = 1e-10      # supplied Hessians (finite-difference ones are Hermitian)

# Grid caps.
SITE_CAP = 200_000                 # max number of spatial grid sites
DENSE_EIGEN_CAP = 6000             # max matrix dimension for the dense-eigen method

# Largest complex band (bytes) that the positivity certificate
# operators.DiscreteOperator._positive factorises; it grows as 64 * side^3
# on a 2-D grid (62 MB at side 101), and larger bands raise
# ResourceLimitError.
BAND_CHOLESKY_MAX_BYTES = 2**29

# Ghost-mode stabilizer for the centred-difference factor assembly: the
# assembled operator gains sigma * h^6 * sum_a (D4_a)^T (D4_a), which is
# O(h^6) on smooth fields but lifts the checkerboard null modes of the
# centred first difference to O(1/h^2).  See README, "Discretization".
GHOST_STABILIZER = 0.005

# Stochastic trace estimation.
TRACE_PROBES = 64
# Largest working set (bytes) of one Chebyshev sweep over trace probes: the
# probes advance in column slabs of (3 + number of times) complex vectors
# per probe within it (6.7 MB for the 64 probes and 3 times at dim 1089).
TRACE_BLOCK_BYTES = 2**26

# Largest geometric tail of torus.heat_trace_truncated, relative to the trace.
TRUNCATED_TRACE_RTOL = 1e-12

# Safety factor applied to Richardson error estimates in the Landau-level
# oracle validation.
RICHARDSON_SAFETY = 2.0


def harper_copies(flux_quanta: int, n_points: int) -> int:
    """How many of the g = gcd(N, Q) Harper rings of the Landau-level
    oracle (``torus._harper_rings``) are cyclic shifts of each one: ring r
    is a shift of ring r mod s, for s = gcd(Q / g, g) shift classes, so
    each class holds g / s rings with one spectrum."""
    g = math.gcd(n_points, flux_quanta)
    return g // math.gcd(flux_quanta // g, g)


def max_eigen_count(flux_quanta: int, n_points: int) -> int:
    """Largest eigen_count of the Landau-level oracle at resolution N.
    ARPACK solves one ring per shift class, N^2 / c rows for the c =
    ``harper_copies`` copies, for ceil(eigen_count / c) eigenvalues, which
    must number fewer than the rows: eigen_count <= N^2 - max(2, c).  Pure
    Python, so the CLI checks configs without loading numpy."""
    return n_points**2 - max(2, harper_copies(flux_quanta, n_points))


# CSV float formatting: 17 significant digits round-trips float64 exactly.
CSV_FLOAT_FORMAT = ".17g"
