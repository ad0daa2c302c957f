"""Heat semigroup actions e^{-tA}v, kernel diagonals, traces, spectral
bound checks, and the k-convergence experiment.

The Lanczos/Krylov propagator is the default at every size: approximating
e^{-tA}v needs no size threshold (Hochbruck & Lubich, SINUM 1997).  A dense
eigendecomposition (exact up to rounding, cached on the operator) runs only
when asked for, as the reference.

The Lanczos relation A V_m = V_m T_m + beta_m v_{m+1} e_m^T does not
depend on t, so one basis per start vector serves every requested time:
e^{-tA}v ~ beta0 V_m exp(-t T_m) e_1.  The basis is grown by the
three-term recurrence plus one block classical Gram-Schmidt pass against
all earlier vectors.  Every few steps one tridiagonal eigendecomposition
gives, for all pending times, the a-posteriori error estimate
beta0 beta_m |e_m^T exp(-t T_m) e_1| (Saad, SIAM J. Numer. Anal. 1992;
Hochbruck & Lubich, SINUM 1997); a time passes when its estimate is at
most ``krylov_tol`` times the norm of its approximation.  A basis shorter
than min(12, dim-1) passes only when it is invariant: a delta start
resolves the high spectrum long before the low Ritz values emerge.  A
basis of ``krylov_dim`` vectors restarts (see ``_krylov_times``).

Kernel diagonals and trace samples are quadratic forms u^H e^{-tA} u.  As A
is Hermitian, e^{-tA} = (e^{-tA/2})^H e^{-tA/2}: each start vector is
propagated once, to every t/2 (Lanczos needs about sqrt(t ||A||) steps), and
the forms are the Gram matrix of the half-time vectors, positive
semidefinite by construction (Golub & Meurant, Matrices, Moments and
Quadrature, 2010).  An estimate eps at t/2 bounds the relative error of a
form by 2 eps + eps^2 to first order; the observed error is second order.

The spectral bound check reduces to positivity, certified by one banded
Cholesky factorisation (see ``spectral_bound_check``).
"""

import csv
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import defaults, fiber
from .errors import ArgumentError, InvariantViolation, NumericalError, ResourceLimitError
from .geometry import FiberEndomorphism, WeightFunction
from .model_kernels import ModelSpec, _check_time, model_diagonal
from .operators import DiscreteOperator, GridSpec, PerturbationSpec, assemble_model, assemble_scaled

__all__ = [
    "SemigroupMethod",
    "TraceEstimate",
    "SpectralBoundReport",
    "ConvergenceRow",
    "ConvergenceReport",
    "heat_apply",
    "kernel_diagonal",
    "kernel_diagonals",
    "heat_trace",
    "heat_traces",
    "spectral_bound_check",
    "converge_in_k",
    "model_baseline_errors",
]

_VARIANTS = ("dense-eigen", "krylov")


@dataclass(frozen=True)
class SemigroupMethod:
    """Propagator selection: krylov (the default, used whenever no method
    is given) or dense-eigen (the exact reference, run only when asked for).

    ``krylov_dim`` (an integer >= 1) caps the Lanczos basis built per
    restart, and ``krylov_tol`` (a number > 0) bounds the a-posteriori
    error estimate of each e^{-tA}v relative to its norm (the shared basis is
    in the module docstring, the restart rule in ``_krylov_times``).  Dense-eigen is
    limited to dimension ``defaults.DENSE_EIGEN_CAP`` by
    ``DiscreteOperator.eigensystem``.
    """

    variant: str = "krylov"
    krylov_dim: int = defaults.KRYLOV_DIM
    krylov_tol: float = defaults.KRYLOV_TOL

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ArgumentError(f"unknown method variant {self.variant!r}")
        dim, tol = self.krylov_dim, self.krylov_tol
        if isinstance(dim, bool) or not isinstance(dim, Integral) or dim < 1:
            raise ArgumentError(f"krylov_dim must be an integer >= 1, got {dim!r}")
        if isinstance(tol, bool) or not isinstance(tol, Real) or not tol > 0:
            raise ArgumentError(f"krylov_tol must be a number > 0, got {tol!r}")


# Lanczos steps between evaluations of the error estimate: each evaluation
# solves the tridiagonal eigenproblem once for every pending time.
_ESTIMATE_EVERY = 4
# Halvings of a failing first time tried on one basis before giving up.
_MAX_HALVINGS = 64


class _Lanczos(NamedTuple):
    """A Lanczos decomposition A V^T = V^T T + beta v' e_k^T of a start vector
    of norm beta0, with T = evec diag(ew) evec^T."""

    basis: np.ndarray   # V: the k orthonormal Lanczos vectors, one per row
    beta0: float
    ew: np.ndarray
    evec: np.ndarray
    beta: float         # 0 when the basis is invariant
    trusted: bool       # whether the estimate may certify convergence

    def evaluate(self, taus, tol):
        """Rows of e^{-tau T} e_1 for each tau, their error estimates
        beta0*beta*|e_k^T e^{-tau T} e_1| and whether each one passes."""
        small = (np.exp(-np.outer(taus, self.ew)) * self.evec[0]) @ self.evec.T
        err = self.beta0 * self.beta * np.abs(small[:, -1])
        ok = self.trusted & (err <= tol * self.beta0 * np.linalg.norm(small, axis=1))
        return small, err, ok

    def vectors(self, small):
        """beta0 V^T s for each row s of ``small``: the approximations of e^{-tA}v."""
        return self.beta0 * (small @ self.basis)


def _lanczos(matrix, v, taus, m, tol) -> _Lanczos:
    """Grow the Lanczos basis of v until the estimate passes for every tau,
    the basis is invariant, or it holds m vectors."""
    beta0 = float(np.linalg.norm(v))
    dim = v.shape[0]
    m = min(m, dim)
    # A delta-like start resolves the high spectrum long before the low Ritz
    # values emerge, so a short basis is trusted only when it is invariant.
    min_size = min(12, dim - 1)
    V = np.empty((m, dim), dtype=complex)
    V[0] = v / beta0
    alphas, betas = np.empty(m), np.empty(m)
    for j in range(m):
        w = matrix @ V[j]
        alphas[j] = np.vdot(V[j], w).real
        w -= alphas[j] * V[j]
        if j > 0:
            w -= betas[j - 1] * V[j - 1]
        # one block classical Gram-Schmidt pass; B.conj() would copy the basis
        B = V[: j + 1]
        w -= (B @ w.conj()).conj() @ B
        betas[j] = np.linalg.norm(w)
        k = j + 1
        invariant = betas[j] < 1e-14 * max(1.0, abs(alphas[j]))
        if invariant or k == m or (k >= min_size and k % _ESTIMATE_EVERY == 0):
            ew, evec = sla.eigh_tridiagonal(alphas[:k], betas[: k - 1])
            lz = _Lanczos(B, beta0, ew, evec, 0.0 if invariant else float(betas[j]),
                          invariant or k >= min_size)
            if invariant or k == m or lz.evaluate(taus, tol)[2].all():
                return lz
        V[k] = w / betas[j]
    raise AssertionError("unreachable: the loop returns at k == m")


def _krylov_times(matrix, v, ts, method: SemigroupMethod) -> np.ndarray:
    """e^{-tA}v for every t in ts, as rows in the order of ts.

    Each restart builds one Lanczos basis for all pending times and accepts
    those whose estimate passes.  It restarts from the furthest accepted
    time below the first failing one or, when the first pending time fails,
    from its largest halving whose estimate passes on the same basis.
    """
    times, where = np.unique(np.asarray(ts, dtype=float), return_inverse=True)
    x = np.asarray(v, dtype=complex)
    out = np.zeros((times.size, x.size), dtype=complex)
    done = np.zeros(times.size, dtype=bool)
    start = 0.0  # the time x has been propagated to
    for restart in range(1, defaults.KRYLOV_MAX_RESTARTS + 1):
        if not x.any():
            return out[where]  # e^{-tA}0 = 0
        todo = np.flatnonzero(~done)
        taus = times[todo] - start
        lz = _lanczos(matrix, x, taus, method.krylov_dim, method.krylov_tol)
        small, err, ok = lz.evaluate(taus, method.krylov_tol)
        out[todo[ok]] = lz.vectors(small[ok])
        done[todo[ok]] = True
        if done.all():
            return out[where]
        lead = int(np.argmin(ok))  # the first failing pending time
        residual = float(err[lead])
        if lead > 0:
            start, x = times[todo[lead - 1]], out[todo[lead - 1]]
            continue
        tau = taus[0]
        for _ in range(_MAX_HALVINGS):
            tau *= 0.5
            small, _, ok = lz.evaluate([tau], method.krylov_tol)
            if ok[0]:
                break
        else:
            break  # not even a short step certifies on this basis
        start, x = start + tau, lz.vectors(small)[0]
    raise NumericalError(
        f"krylov propagator failed to converge after {restart} restarts "
        f"(residual {residual:.3e}, tolerance {method.krylov_tol:.1e})",
        residual=residual,
    )


def _propagate(op: DiscreteOperator, v, ts, method: Optional[SemigroupMethod]) -> np.ndarray:
    """e^{-tA}v for every positive t in ts, as rows in the order of ts (None: Krylov)."""
    method = method or SemigroupMethod()
    if method.variant == "krylov":
        return _krylov_times(op.matrix, v, ts, method)
    w, vecs = op.eigensystem()
    coef = vecs.conj().T @ v
    return np.array([vecs @ (np.exp(-t * w) * coef) for t in ts])


def _positive_times(ts) -> list:
    """ts as floats; ArgumentError unless every one is finite and positive."""
    ts = [float(t) for t in ts]
    for t in ts:
        _check_time(t)
    return ts


def heat_apply(op: DiscreteOperator, v, t: float,
               method: Optional[SemigroupMethod] = None) -> np.ndarray:
    """e^{-tA} v by ``method`` (default Krylov; a copy of v at t = 0)."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.dim,):
        raise ArgumentError(f"vector must have shape ({op.dim},)")
    if t == 0:
        return v.copy()
    return _propagate(op, v, _positive_times([t]), method)[0]


def kernel_diagonals(op: DiscreteOperator, site, ts: Sequence[float],
                     method: Optional[SemigroupMethod] = None) -> list:
    """Discrete heat-kernel diagonals at a grid site, one fiber matrix per t
    in ts, in the order of ts.

    The fiber matrix is the Gram matrix X^H X / dv_cell of the half-time
    vectors x_b = e^{-(t/2)A} e_b of the fiber deltas at the site, for both
    methods; dividing by the Hermitian-volume cell 2^n h^{2n} makes it
    comparable with ``model_diagonal``.  A Krylov estimate eps at t/2 bounds
    its relative error by 2 eps + eps^2 to first order (module docstring).
    """
    ts = _positive_times(ts)
    grid = op.grid
    flat = grid.flat_index(site)
    xs = np.empty((len(ts), op.fiber_dim, op.dim), dtype=complex)
    for b in range(op.fiber_dim):
        delta = np.zeros(op.dim, dtype=complex)
        delta[b * grid.sites + flat] = 1.0
        xs[:, b] = _propagate(op, delta, [0.5 * t for t in ts], method)
    return [FiberEndomorphism(grid.n, op.q, _gram(x) / grid.dv_cell) for x in xs]


def _gram(x) -> np.ndarray:
    """The Gram matrix of the rows of x, Hermitian bit for bit."""
    upper = np.triu(x.conj() @ x.T, 1)
    return upper + upper.conj().T + np.diag(np.linalg.norm(x, axis=1) ** 2)


def kernel_diagonal(op: DiscreteOperator, site, t: float,
                    method: Optional[SemigroupMethod] = None) -> FiberEndomorphism:
    """Discrete heat-kernel diagonal at a grid site: ``kernel_diagonals`` at one t."""
    return kernel_diagonals(op, site, [t], method)[0]


@dataclass(frozen=True)
class TraceEstimate:
    value: float
    stderr: float
    probes: int
    method: str


def heat_traces(op: DiscreteOperator, ts: Sequence[float],
                method: Optional[SemigroupMethod] = None,
                seed: Optional[int] = None,
                probes: int = defaults.TRACE_PROBES) -> list:
    """Traces of e^{-tA}, one per t in ts, in the order of ts: by default
    Hutchinson estimation with ``probes`` (at least 2) Rademacher probes
    from ``seed`` (then required), exact eigenvalue sums under dense-eigen.
    Every t uses the same probes; each sample is ||e^{-(t/2)A} xi||^2, with
    relative error at most 2 eps + eps^2 to first order for an estimate eps
    at t/2 (module docstring)."""
    ts = _positive_times(ts)
    method = method or SemigroupMethod()
    if method.variant == "dense-eigen":
        w = op.eigenvalues()
        return [TraceEstimate(float(np.sum(np.exp(-t * w))), 0.0, 0, "dense-eigen")
                for t in ts]
    if seed is None:
        raise ArgumentError("stochastic trace estimation requires a seed")
    if probes < 2:
        raise ArgumentError("stochastic trace estimation requires probes >= 2")
    rng = np.random.default_rng(seed)
    half = [0.5 * t for t in ts]
    samples = np.empty((probes, len(ts)))
    for i in range(probes):
        xi = rng.choice([-1.0, 1.0], size=op.dim).astype(complex)
        samples[i] = np.linalg.norm(_propagate(op, xi, half, method), axis=1) ** 2
    values = samples.mean(axis=0)
    stderrs = samples.std(axis=0, ddof=1) / np.sqrt(probes)
    return [TraceEstimate(float(v), float(s), probes, method.variant)
            for v, s in zip(values, stderrs)]


def heat_trace(op: DiscreteOperator, t: float,
               method: Optional[SemigroupMethod] = None,
               seed: Optional[int] = None,
               probes: int = defaults.TRACE_PROBES) -> TraceEstimate:
    """Trace of e^{-tA}: ``heat_traces`` at one t."""
    return heat_traces(op, [t], method, seed, probes)[0]


@dataclass(frozen=True)
class SpectralBoundReport:
    """Outcome of ``spectral_bound_check``: ``passed`` is the positivity
    certificate and ``bound`` is (N/(e t))^N.  No eigenvalue is computed,
    so ``max_value`` and ``attaining_eigenvalue`` are always NaN.
    """

    passed: bool
    max_value: float
    bound: float
    attaining_eigenvalue: float


def _certify_positive(op: DiscreteOperator, psd_tol: float) -> bool:
    """Whether the smallest eigenvalue exceeds -psd_tol, cached per tolerance.

    By Sylvester's law of inertia, ``A + psd_tol*I`` has a Cholesky factor
    exactly when it is positive definite.  The factorisation is banded in
    the natural grid order (Golub & Van Loan, Matrix Computations, 4.3),
    with the half-bandwidth read from the matrix.  The band is stored in
    LAPACK's lower layout (``ab[d, j] = A[j+d, j]``) in Fortran order, so
    that it is factorised in place without a copy.  A band larger than
    ``defaults.BAND_CHOLESKY_MAX_BYTES`` raises ``ResourceLimitError``.
    """
    if psd_tol not in op._psd_certificate:
        low = sp.tril(op.matrix, format="coo")
        low.sum_duplicates()
        offset = low.row - low.col
        bands = int(offset.max(initial=0)) + 1
        nbytes = 16 * bands * op.dim
        if nbytes > defaults.BAND_CHOLESKY_MAX_BYTES:
            raise ResourceLimitError(
                f"positivity band of {nbytes} bytes ({bands} x {op.dim}) exceeds "
                f"cap {defaults.BAND_CHOLESKY_MAX_BYTES}"
            )
        ab = np.zeros((bands, op.dim), dtype=complex, order="F")
        ab[offset, low.col] = low.data
        ab[0] += psd_tol
        try:
            sla.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
            op._psd_certificate[psd_tol] = True
        except np.linalg.LinAlgError:
            op._psd_certificate[psd_tol] = False
    return op._psd_certificate[psd_tol]


def spectral_bound_check(op: DiscreteOperator, t: float, n_power: int,
                         psd_tol: float = 1e-8) -> SpectralBoundReport:
    """Check max_s s^N e^{-ts} <= (N/(e t))^N over the operator spectrum.

    The bound is the calculus maximum of s^N e^{-ts} over s >= 0 (equal to
    1 for N = 0), so the only falsifiable content is positivity itself.
    Every operator, for any size, n and fiber dimension, is certified by
    one banded Cholesky factorisation of ``A + psd_tol*I``: it is rejected
    with ``InvariantViolation`` iff its smallest eigenvalue is <= -psd_tol,
    whatever spectral caches the operator holds.  A band above
    ``defaults.BAND_CHOLESKY_MAX_BYTES`` (it grows as d*side^(2n-1) rows)
    raises ``ResourceLimitError``.
    """
    (t,) = _positive_times([t])
    if not 0 <= n_power <= 4:
        raise ArgumentError("N must be between 0 and 4")
    if not _certify_positive(op, psd_tol):
        raise InvariantViolation(
            f"operator not PSD: smallest eigenvalue <= {-psd_tol:.3e} "
            "(banded Cholesky of A + tol*I failed)"
        )
    bound = 1.0 if n_power == 0 else (n_power / (np.e * t)) ** n_power
    return SpectralBoundReport(True, float("nan"), float(bound), float("nan"))


# ---------------------------------------------------------------------------
# k-convergence experiment


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    t: float
    value: np.ndarray
    model: np.ndarray
    abs_err: float


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
    targets = {t: model_diagonal(ModelSpec(weight.n, weight.lam, q), t).matrix for t in ts}
    rows = []
    for k in ks:
        op = assemble_scaled(weight, pert, k, grid, q)
        for t, diag in zip(ts, kernel_diagonals(op, grid.origin_site(), ts, method)):
            err = float(np.max(np.abs(diag.matrix - targets[t])))
            rows.append(ConvergenceRow(k, float(t), diag.matrix, targets[t], err))
    return ConvergenceReport(weight.n, q, tuple(rows))


def model_baseline_errors(weight: WeightFunction, q: int, ts: Sequence[float],
                          grid: Optional[GridSpec] = None,
                          method: Optional[SemigroupMethod] = None) -> dict:
    """Pure discretization error of the unperturbed model on the same grid."""
    grid = grid or GridSpec(weight.n, defaults.CONVERGE_RADIUS, defaults.CONVERGE_SPACING)
    spec = ModelSpec(weight.n, weight.lam, q)
    diags = kernel_diagonals(assemble_model(spec, grid), grid.origin_site(), ts, method)
    return {t: float(np.max(np.abs(diag.matrix - model_diagonal(spec, t).matrix)))
            for t, diag in zip(ts, diags)}
