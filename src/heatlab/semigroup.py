"""Heat semigroup actions e^{-tA}v, kernel diagonals, traces, spectral
bound checks, and the k-convergence experiment.

Three propagators are provided: a dense eigendecomposition (exact up to
rounding, cached on the operator), a Lanczos/Krylov propagator with full
reorthogonalization and restart by time splitting, and Crank-Nicolson
time stepping (O(dt^2)).

The spectral bound check reduces to positivity of the operator.  Small
operators scan their dense spectrum; large operators on a 2-D grid are
certified by one banded Cholesky factorisation of A + tol*I (it exists
iff the smallest eigenvalue exceeds -tol), cached per operator and
tolerance; large operators with n >= 2, or with a band above
defaults.BAND_CHOLESKY_MAX_BYTES, use shift-inverted ARPACK on the
smallest eigenvalues.
"""

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import defaults, fiber
from .errors import ArgumentError, InvariantViolation, NumericalError, ResourceLimitError
from .geometry import FiberEndomorphism, WeightFunction
from .model_kernels import ModelSpec, model_diagonal
from .operators import DiscreteOperator, GridSpec, PerturbationSpec, assemble_model, assemble_scaled

__all__ = [
    "SemigroupMethod",
    "TraceEstimate",
    "SpectralBoundReport",
    "ConvergenceRow",
    "ConvergenceReport",
    "heat_apply",
    "kernel_diagonal",
    "heat_trace",
    "spectral_bound_check",
    "converge_in_k",
    "model_baseline_errors",
]

_VARIANTS = ("dense-eigen", "krylov", "crank-nicolson")


@dataclass(frozen=True)
class SemigroupMethod:
    """Propagator selection: dense-eigen, krylov, or crank-nicolson."""

    variant: str = "krylov"
    krylov_dim: int = defaults.KRYLOV_DIM
    krylov_tol: float = defaults.KRYLOV_TOL
    dt: Optional[float] = None
    dense_cap: int = defaults.DENSE_EIGEN_CAP

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ArgumentError(f"unknown method variant {self.variant!r}")

    @staticmethod
    def auto(dim: int) -> "SemigroupMethod":
        """Dense eigendecomposition for small operators, Krylov otherwise."""
        if dim <= defaults.DENSE_AUTO_LIMIT:
            return SemigroupMethod("dense-eigen")
        return SemigroupMethod("krylov")


def _lanczos_segment(matrix, v, t, m, tol):
    """One Lanczos approximation of e^{-tA}v; returns (approx, err, converged).

    Stopping is based on stagnation of successive approximants, guarded
    against premature plateaus (a delta-like start vector resolves the
    high spectrum long before the low Ritz values emerge): convergence
    requires a minimum basis size and two consecutive passes.
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return v.copy(), 0.0, True
    dim = v.shape[0]
    m = min(m, dim)
    min_iters = min(12, dim - 1)
    V = np.empty((m, dim), dtype=complex)
    V[0] = v / beta0
    alphas, betas = [], []
    prev = None
    err = np.inf
    streak = 0
    for j in range(m):
        w = matrix @ V[j]
        alpha = float(np.real(np.vdot(V[j], w)))
        w = w - alpha * V[j]
        if j > 0:
            w = w - betas[-1] * V[j - 1]
        # full reorthogonalization; cheap at this basis size
        for i in range(j + 1):
            w = w - np.vdot(V[i], w) * V[i]
        alphas.append(alpha)
        ew, evec = sla.eigh_tridiagonal(np.array(alphas), np.array(betas))
        small = evec @ (np.exp(-t * ew) * evec[0, :])
        approx = beta0 * (small @ V[: j + 1])
        if prev is not None:
            err = np.linalg.norm(approx - prev)
            streak = streak + 1 if err <= tol * max(1.0, np.linalg.norm(approx)) else 0
            if streak >= 2 and j >= min_iters:
                return approx, err, True
        prev = approx
        beta = np.linalg.norm(w)
        if beta < 1e-14 * max(1.0, abs(alpha)):
            return approx, 0.0, True  # invariant subspace reached
        if j < m - 1:
            betas.append(beta)
            V[j + 1] = w / beta
    return prev, err, False


def _krylov_apply(matrix, v, t, method: SemigroupMethod):
    segments = [t]
    x = np.asarray(v, dtype=complex)
    restarts = 0
    while segments:
        seg = segments.pop()
        approx, err, ok = _lanczos_segment(matrix, x, seg, method.krylov_dim, method.krylov_tol)
        restarts += 1
        if ok:
            x = approx
            continue
        if restarts >= defaults.KRYLOV_MAX_RESTARTS:
            raise NumericalError(
                f"krylov propagator failed to converge after {restarts} restarts "
                f"(residual {err:.3e}, tolerance {method.krylov_tol:.1e})",
                residual=err,
            )
        segments.extend([0.5 * seg, 0.5 * seg])
    return x


def _crank_nicolson_apply(matrix, v, t, method: SemigroupMethod):
    dt = method.dt if method.dt is not None else t / defaults.CN_DEFAULT_STEPS
    steps = max(1, int(np.ceil(t / dt - 1e-12)))
    dt = t / steps
    eye = sp.identity(matrix.shape[0], format="csc")
    lhs = (eye + 0.5 * dt * matrix).tocsc()
    rhs = (eye - 0.5 * dt * matrix).tocsr()
    lu = spla.splu(lhs)
    x = np.asarray(v, dtype=complex)
    for _ in range(steps):
        x = lu.solve(rhs @ x)
    return x


def heat_apply(op: DiscreteOperator, v, t: float,
               method: Optional[SemigroupMethod] = None) -> np.ndarray:
    """e^{-tA} v by the selected propagator."""
    if t < 0:
        raise ArgumentError("t must be nonnegative")
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.dim,):
        raise ArgumentError(f"vector must have shape ({op.dim},)")
    if t == 0:
        return v.copy()
    method = method or SemigroupMethod.auto(op.dim)
    if method.variant == "dense-eigen":
        if op.dim > method.dense_cap:
            raise ResourceLimitError(
                f"dense-eigen requested for dimension {op.dim} above cap {method.dense_cap}"
            )
        w, vecs = op.eigensystem()
        return vecs @ (np.exp(-t * w) * (vecs.conj().T @ v))
    if method.variant == "krylov":
        return _krylov_apply(op.matrix, v, t, method)
    return _crank_nicolson_apply(op.matrix, v, t, method)


def kernel_diagonal(op: DiscreteOperator, site, t: float,
                    method: Optional[SemigroupMethod] = None) -> FiberEndomorphism:
    """Discrete heat-kernel diagonal at a grid site as a fiber matrix.

    Columns are extracted by propagating the discrete delta (unit vector
    over the Hermitian-volume cell 2^n h^{2n}), so values are directly
    comparable to the continuum diagonals of ``model_diagonal``.
    """
    if t <= 0:
        raise ArgumentError("t must be positive")
    grid = op.grid
    flat = grid.flat_index(site)
    d = op.fiber_dim
    sites = grid.sites
    method = method or SemigroupMethod.auto(op.dim)
    out = np.empty((d, d), dtype=complex)
    if method.variant == "dense-eigen" and op.dim <= method.dense_cap:
        w, vecs = op.eigensystem()
        rows = vecs[[b * sites + flat for b in range(d)], :]
        decay = np.exp(-t * w)
        out = (rows * decay) @ rows.conj().T / grid.dv_cell
        return FiberEndomorphism(grid.n, op.q, out)
    for b in range(d):
        delta = np.zeros(op.dim, dtype=complex)
        delta[b * sites + flat] = 1.0 / grid.dv_cell
        col = heat_apply(op, delta, t, method)
        out[:, b] = col[[a * sites + flat for a in range(d)]]
    return FiberEndomorphism(grid.n, op.q, 0.5 * (out + out.conj().T))


@dataclass(frozen=True)
class TraceEstimate:
    value: float
    stderr: float
    probes: int
    method: str


def heat_trace(op: DiscreteOperator, t: float,
               method: Optional[SemigroupMethod] = None,
               seed: Optional[int] = None,
               probes: int = defaults.TRACE_PROBES) -> TraceEstimate:
    """Trace of e^{-tA}: exact eigenvalue sum on the dense path, Hutchinson
    estimation with Rademacher probes (fixed seed) otherwise."""
    if t <= 0:
        raise ArgumentError("t must be positive")
    method = method or SemigroupMethod.auto(op.dim)
    if method.variant == "dense-eigen":
        w = op.eigenvalues()
        return TraceEstimate(float(np.sum(np.exp(-t * w))), 0.0, 0, "dense-eigen")
    if seed is None:
        raise ArgumentError("stochastic trace estimation requires a seed")
    rng = np.random.default_rng(seed)
    samples = np.empty(probes)
    for i in range(probes):
        xi = rng.choice([-1.0, 1.0], size=op.dim).astype(complex)
        samples[i] = float(np.real(np.vdot(xi, heat_apply(op, xi, t, method))))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(probes))
    return TraceEstimate(float(np.mean(samples)), stderr, probes, method.variant)


@dataclass(frozen=True)
class SpectralBoundReport:
    """Outcome of ``spectral_bound_check``.

    ``max_value`` and ``attaining_eigenvalue`` are NaN when the check
    certified positivity without computing any eigenvalue.
    """

    passed: bool
    max_value: float
    bound: float
    attaining_eigenvalue: float


def _smallest_eigenvalues(op: DiscreteOperator, k: int = 16) -> np.ndarray:
    """Smallest eigenvalues of the operator, cached (shift-inverted Lanczos)."""
    k = min(k, op.dim - 2)
    if op._smallest is None or op._smallest.size < k:
        op._smallest = np.sort(
            spla.eigsh(op.matrix, k=k, sigma=-0.1, which="LM",
                       return_eigenvectors=False, maxiter=10000, tol=1e-8)
        )
    return op._smallest


def _certify_positive(op: DiscreteOperator, psd_tol: float) -> Optional[bool]:
    """Whether the smallest eigenvalue exceeds -psd_tol, cached per tolerance;
    None when the band is larger than ``defaults.BAND_CHOLESKY_MAX_BYTES``.

    By Sylvester's law of inertia, ``A + psd_tol*I`` has a Cholesky factor
    exactly when it is positive definite.  The factorisation is banded in
    the natural grid order (Golub & Van Loan, Matrix Computations, 4.3),
    with the half-bandwidth read from the matrix.  The band is stored in
    LAPACK's lower layout (``ab[d, j] = A[j+d, j]``) in Fortran order, so
    that it is factorised in place without a copy.
    """
    if psd_tol not in op._psd_certificate:
        low = sp.tril(op.matrix, format="coo")
        low.sum_duplicates()
        offset = low.row - low.col
        bands = int(offset.max()) + 1
        certified = None
        if 16 * bands * op.dim <= defaults.BAND_CHOLESKY_MAX_BYTES:
            ab = np.zeros((bands, op.dim), dtype=complex, order="F")
            ab[offset, low.col] = low.data
            ab[0] += psd_tol
            try:
                sla.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
                certified = True
            except np.linalg.LinAlgError:
                certified = False
        op._psd_certificate[psd_tol] = certified
    return op._psd_certificate[psd_tol]


def spectral_bound_check(op: DiscreteOperator, t: float, n_power: int,
                         psd_tol: float = 1e-8) -> SpectralBoundReport:
    """Check max_s s^N e^{-ts} <= (N/(e t))^N over the operator spectrum.

    The bound is the calculus maximum of s^N e^{-ts} over s >= 0 (equal to
    1 for N = 0), so for a PSD spectrum the only falsifiable content is
    positivity itself; a failed positivity test raises
    ``InvariantViolation``.  Three routes:

    - Within the dense limit, or with a cached dense eigensystem, the full
      spectrum is scanned.  It is rejected when its smallest eigenvalue is
      below ``-psd_tol * max(1, max|w|)``.
    - Larger operators on a 2-D grid (n = 1, fiber dimension 1) are
      certified by one banded Cholesky factorisation of
      ``A + psd_tol*I``: they are rejected iff the smallest eigenvalue is
      <= -psd_tol.  No eigenvalue is computed, so ``max_value`` and
      ``attaining_eigenvalue`` are NaN and ``passed`` is the certificate.
    - Larger operators with n >= 2, whose band grows as d*side^(2n-1),
      and n = 1 operators whose band exceeds
      ``defaults.BAND_CHOLESKY_MAX_BYTES`` fall back to the 16 smallest
      eigenvalues from shift-inverted ARPACK, with the dense rule's
      tolerance scaled by their largest magnitude; the scan is evaluated
      on them (the unscanned spectrum satisfies the bound identically,
      being nonnegative).

    Rounding-band negatives are clipped to zero before scanning.
    """
    if t <= 0:
        raise ArgumentError("t must be positive")
    if not 0 <= n_power <= 4:
        raise ArgumentError("N must be between 0 and 4")
    bound = 1.0 if n_power == 0 else (n_power / (np.e * t)) ** n_power
    if op.dim <= defaults.DENSE_AUTO_LIMIT or op._eig is not None:
        w = op.eigenvalues()
    else:
        certified = _certify_positive(op, psd_tol) if op.grid.n == 1 else None
        if certified is False:
            raise InvariantViolation(
                f"operator not PSD: smallest eigenvalue <= {-psd_tol:.3e} "
                "(banded Cholesky of A + tol*I failed)"
            )
        if certified:
            return SpectralBoundReport(True, float("nan"), float(bound), float("nan"))
        w = _smallest_eigenvalues(op)
    scale = max(float(np.max(np.abs(w))), 1.0)
    if w[0] < -psd_tol * scale:
        raise InvariantViolation(f"operator not PSD: smallest eigenvalue {w[0]:.3e}")
    s = np.clip(w, 0.0, None)
    vals = s**n_power * np.exp(-t * s)
    i = int(np.argmax(vals))
    return SpectralBoundReport(bool(vals[i] <= bound * (1 + 1e-12)), float(vals[i]),
                               float(bound), float(s[i]))


# ---------------------------------------------------------------------------
# k-convergence experiment


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    t: float
    value: np.ndarray
    model: np.ndarray
    abs_err: float
    err_sqrtk: float


@dataclass(frozen=True)
class ConvergenceReport:
    n: int
    q: int
    rows: tuple

    def __post_init__(self):
        ks = [r.k for r in self.rows]
        if ks != sorted(ks):
            raise InvariantViolation("rows must be sorted by k")
        if any(r.abs_err < 0 for r in self.rows):
            raise InvariantViolation("errors must be nonnegative")

    def errors_for(self, t: float) -> list:
        return [r.abs_err for r in self.rows if r.t == t]

    def to_csv(self, path) -> None:
        fmt = "{:" + defaults.CSV_FLOAT_FORMAT + "}"
        idx = fiber.multi_indices(self.n, self.q)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "t", "q", "row_J", "col_J", "re_value", "im_value",
                             "re_model", "im_model", "abs_err", "abs_err_sqrtk"])
            for row in self.rows:
                for a, J in enumerate(idx):
                    for b, K in enumerate(idx):
                        v, mv = row.value[a, b], row.model[a, b]
                        err = abs(v - mv)
                        writer.writerow([
                            row.k, fmt.format(row.t), self.q,
                            fiber.index_label(J), fiber.index_label(K),
                            fmt.format(v.real), fmt.format(v.imag),
                            fmt.format(mv.real), fmt.format(mv.imag),
                            fmt.format(err), fmt.format(err * np.sqrt(row.k)),
                        ])


def converge_in_k(weight: WeightFunction, pert: Optional[PerturbationSpec],
                  q: int, ts: Sequence[float], ks: Sequence[int],
                  grid: Optional[GridSpec] = None,
                  method: Optional[SemigroupMethod] = None) -> ConvergenceReport:
    """Assemble the scaled operator for each k, read the kernel diagonal at
    the origin, and compare with the continuum model diagonal."""
    ks = list(ks)
    if ks != sorted(ks) or len(set(ks)) != len(ks):
        raise ArgumentError("k list must be strictly increasing")
    grid = grid or GridSpec(weight.n, defaults.CONVERGE_RADIUS, defaults.CONVERGE_SPACING)
    spec_targets = {
        t: model_diagonal(ModelSpec(weight.n, weight.lam, q), t).matrix for t in ts
    }
    rows = []
    for k in ks:
        op = assemble_scaled(weight, pert, k, grid, q)
        for t in ts:
            diag = kernel_diagonal(op, grid.origin_site(), t, method).matrix
            target = spec_targets[t]
            err = float(np.max(np.abs(diag - target)))
            rows.append(ConvergenceRow(k, float(t), diag, target, err,
                                       err * float(np.sqrt(k))))
    return ConvergenceReport(weight.n, q, tuple(rows))


def model_baseline_errors(weight: WeightFunction, q: int, ts: Sequence[float],
                          grid: Optional[GridSpec] = None,
                          method: Optional[SemigroupMethod] = None) -> dict:
    """Pure discretization error of the unperturbed model on the same grid."""
    grid = grid or GridSpec(weight.n, defaults.CONVERGE_RADIUS, defaults.CONVERGE_SPACING)
    op = assemble_model(ModelSpec(weight.n, weight.lam, q), grid)
    out = {}
    for t in ts:
        diag = kernel_diagonal(op, grid.origin_site(), t, method).matrix
        target = model_diagonal(ModelSpec(weight.n, weight.lam, q), t).matrix
        out[t] = float(np.max(np.abs(diag - target)))
    return out
