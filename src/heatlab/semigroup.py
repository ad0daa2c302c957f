"""Heat semigroup actions e^{-tA}v, kernel diagonals, traces, spectral
bound checks, and the k-convergence experiment.

Under the default method, ``heat_apply`` and ``kernel_diagonals`` run
Lanczos and stochastic ``heat_traces`` run a Chebyshev block.  A dense
eigendecomposition (exact up to rounding, cached on the operator) runs only
when asked for, as the reference.

``heat_apply`` and ``kernel_diagonals`` use Lanczos/Krylov at every size:
approximating e^{-tA}v needs no size threshold (Hochbruck & Lubich, SINUM
1997).  The Lanczos relation A V_m = V_m T_m + beta_m v_{m+1} e_m^T does not
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

Stochastic traces advance all Hutchinson probes as one block through the
Chebyshev expansion of e^{-tA} on a certified spectral interval (Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 1984; Weisse, Wellein, Alvermann & Fehske, Rev.
Mod. Phys. 78, 2006): one sparse product per degree for every probe and
time, with no orthogonalisation and no small eigenproblem.  Each sample
carries an a-priori error bound, and the sweep stops once that bound is
below unit roundoff relative to every result (see ``_ChebyshevBlock``).
Delta starts keep Lanczos: the interval needs the positivity certificate,
which costs about 0.2 s at dimension 10 201 (grid radius 5, spacing 0.1),
where Lanczos takes about 0.06 s for both diagonals at t = 0.5 and 1, while
the Gershgorin lower end (-66.5 there, against a smallest eigenvalue near
0) would make the expansion cancel e^{33 t}.

Kernel diagonals and trace samples are quadratic forms u^H e^{-tA} u.  As A
is Hermitian, e^{-tA} = (e^{-tA/2})^H e^{-tA/2}: each start vector is
propagated once, to every t/2 (Lanczos needs about sqrt(t ||A||) steps), and
the forms are the Gram matrix of the half-time vectors, positive
semidefinite by construction (Golub & Meurant, Matrices, Moments and
Quadrature, 2010).  A Krylov estimate eps at t/2 bounds the relative error
of a form by 2 eps + eps^2 to first order; the observed error is second
order.

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

    Under krylov, ``heat_apply`` and ``kernel_diagonals`` run Lanczos:
    ``krylov_dim`` (an integer >= 1) caps the basis built per restart, and
    ``krylov_tol`` (a number > 0) bounds the a-posteriori error estimate of
    each e^{-tA}v relative to its norm (the shared basis is in the module
    docstring, the restart rule in ``_krylov_times``).  Stochastic
    ``heat_traces`` run a Chebyshev block that is exact to rounding, so the
    two settings do not apply to them.  Dense-eigen is limited to dimension
    ``defaults.DENSE_EIGEN_CAP`` by ``DiscreteOperator.eigensystem``.
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


# Unit roundoff of float64: a Chebyshev sweep stops once its a-priori tail
# bound is below it relative to every column's norm.
_ROUNDOFF = 2.0 ** -53
# The default positivity tolerance, which also gives a sweep its lower end.
_PSD_TOL = 1e-8
# Largest rounding estimate of a sweep that is trusted, relative to its result.
_ROUNDING_LIMIT = 2.0 ** -36


def _spectral_interval(op: DiscreteOperator) -> tuple:
    """An interval [a, b] holding the spectrum of the Hermitian op.

    b is the Gershgorin upper end.  a is -_PSD_TOL when the Gershgorin lower
    end is below it and the banded Cholesky certificate passes; otherwise
    (a failed certificate, or a band that raises ``ResourceLimitError``) it
    is the Gershgorin lower end min_i (a_ii - sum_{j != i} |a_ij|).
    """
    diag = op.matrix.diagonal().real
    radius = np.asarray(abs(op.matrix).sum(axis=1)).ravel() - np.abs(diag)
    low, high = float(np.min(diag - radius)), float(np.max(diag + radius))
    if low < -_PSD_TOL:
        try:
            if _certify_positive(op, _PSD_TOL):
                low = -_PSD_TOL
        except ResourceLimitError:
            pass
    return low, high


def _log_bessel_tails(x: float, kmax: int) -> np.ndarray:
    """Upper bounds on log sum_{j>K} I_j(x) for K = 0..kmax and x >= 0.

    With nu = K+1, Luke's bound I_nu(x) <= (x/2)^nu e^{x^2/(4(nu+1))} / nu!
    and the ratio bound I_{j+1}(x)/I_j(x) <= x/(2(j+1)) <= rho = x/(2(nu+1))
    for j >= nu give sum_{j>=nu} I_j(x) <= I_nu(x)/(1 - rho); the bound is
    +inf where rho >= 1.  Both follow from the power series of I_nu.
    """
    nu = np.arange(1, kmax + 2, dtype=float)
    if x == 0:
        return np.full(nu.size, -np.inf)
    log_i = nu * np.log(0.5 * x) + x * x / (4.0 * (nu + 1.0)) - np.cumsum(np.log(nu))
    rho = x / (2.0 * (nu + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rho < 1.0, log_i - np.log1p(-rho), np.inf)


class _Sweep(NamedTuple):
    """One Chebyshev sweep of a block: per tau (rows) and column, the sums
    y, the bound ``trunc`` on ||y - e^{-tau A} xi||, and the rounding
    estimate K u e^{-tau a} ||xi|| / ||y|| relative to ||y||."""

    ys: np.ndarray      # (len(taus), dim, columns)
    norms: np.ndarray
    trunc: np.ndarray
    rounding: np.ndarray
    degree: int


class _ChebyshevBlock:
    """e^{-tau A} on a block of start vectors for several tau at once.

    On the spectral interval [a, b] of ``_spectral_interval``, with centre c
    and half-width r, e^{-tau A} = sum_k c_k(tau) T_k((A - c)/r), where
    c_k = 2 (-1)^k e^{-tau c} I_k(tau r), halved at k = 0 (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 1984).  Truncating after degree K leaves an error of
    norm at most ||xi|| sum_{k>K} |c_k| for a start vector xi, whatever its
    spectral content in [a, b]; ``_log_bessel_tails`` bounds that sum.
    """

    def __init__(self, op: DiscreteOperator):
        self.low, self.high = a, b = _spectral_interval(op)
        self.centre, self.radius = 0.5 * (a + b), max(0.5 * (b - a), np.finfo(float).tiny)
        # the recurrence T_{k+1} = 2 (A - c)/r T_k - T_{k-1}, with the 2 folded in
        shifted = op.matrix - self.centre * sp.identity(op.dim, format="csr")
        self.matrix = (shifted * (2.0 / self.radius)).tocsr()

    def _expansion(self, taus) -> tuple:
        """Coefficients c_k(tau) and bounds tail[K] >= sum_{k>K} |c_k(tau)|
        plus the aliasing error of the computed coefficients, as rows per
        degree up to the cap, and the cap.

        The cap is the first degree whose tail is at most _ROUNDOFF e^{-tau b}:
        as ||e^{-tau A} xi|| >= e^{-tau b} ||xi||, every column passes the
        stopping rule of ``sweep`` by then.  The coefficients are a discrete
        cosine transform of e^{-tau(c + r cos theta)} at N + 1
        Chebyshev-Lobatto angles, N = 2 (cap + 1); each one is then off by at
        most sum_{j >= 2N - cap} |c_j|.
        """
        r, b = self.radius, self.high

        def log_tails(kmax):
            # log sum_{j>K} |c_j| = log 2 - tau c + log sum_{j>K} I_j(tau r)
            return np.array([np.log(2.0) - tau * self.centre + _log_bessel_tails(tau * r, kmax)
                             for tau in taus]).T

        search = log_tails(int(4.0 * r * max(taus)) + 128)
        passing = np.all(search <= np.log(_ROUNDOFF) - taus * b, axis=1)
        cap = int(np.argmax(passing)) if passing.any() else len(search) - 1
        nodes = 2 * (cap + 1)
        theta = np.pi * np.arange(nodes + 1) / nodes
        f = np.exp(-np.outer(taus, self.low + r * (1.0 + np.cos(theta))))
        even = np.concatenate([f, f[:, -2:0:-1]], axis=1)
        coef = np.fft.rfft(even, axis=1).real[:, : cap + 1] / nodes
        coef[:, 0] *= 0.5
        tails = np.exp(log_tails(2 * nodes))
        aliasing = np.arange(1, cap + 2)[:, None] * tails[2 * nodes - cap - 1]
        return coef.T, tails[: cap + 1] + aliasing, cap

    def sweep(self, xi, taus) -> _Sweep:
        """The truncated expansions of e^{-tau A} xi for every tau and column
        of the block xi, advanced together at one sparse product per degree.

        The sweep stops at the first checked degree K where
        tail[K] ||xi|| <= _ROUNDOFF ||y|| for every column and tau, y being
        the partial sum; the first check comes once every tail is below
        sqrt(_ROUNDOFF), and each later one where the last check predicts
        the rule to pass.
        """
        taus = np.asarray(taus, dtype=float)
        coef, tail, cap = self._expansion(taus)
        xi_norm = np.sqrt(_squared_norms(xi))
        ys = coef[0][:, None, None] * xi
        prev, cur = None, xi
        k = 0
        check = int(np.argmax(np.all(tail <= np.sqrt(_ROUNDOFF), axis=1)))
        while True:
            if k >= check:
                norms = np.sqrt(_squared_norms(ys))
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(xi_norm > 0, xi_norm / norms, 0.0)
                if k == cap or np.all(tail[k][:, None] * ratio <= _ROUNDOFF):
                    break
                ahead = np.all(tail[k + 1:] * ratio.max(axis=1) <= _ROUNDOFF, axis=1)
                check = k + 1 + int(np.argmax(ahead)) if ahead.any() else cap
            nxt = self.matrix @ cur
            if prev is None:
                nxt *= 0.5
            else:
                nxt -= prev
            prev, cur = cur, nxt
            k += 1
            for y, ck in zip(ys, coef[k]):
                sla.blas.zaxpy(cur.ravel(), y.ravel(), a=ck)  # in place: y is contiguous
        # sum_k |c_k| = e^{-tau a}: the largest partial sum a term can carry
        rounding = max(k, 1) * _ROUNDOFF * np.exp(-taus * self.low)[:, None] * ratio
        return _Sweep(ys, norms, tail[k][:, None] * xi_norm, rounding, k)

    def samples(self, xi, taus) -> tuple:
        """||e^{-tau A} xi||^2 for each column of xi (rows) and tau
        (columns), and bounds on their errors.

        A sweep whose rounding estimate exceeds _ROUNDING_LIMIT for a tau is
        not trusted there: the block restarts from the furthest trusted tau
        before it, or from the largest halving of the first pending tau
        that is trusted, by the semigroup law; later steps are no longer
        than that halving.  That happens only when a is far below the
        smallest eigenvalue (a Gershgorin lower end) or for tau lambda_min
        large enough that e^{-tau A} xi is tiny beside xi.  An
        error E_s at time s grows to at most e^{-(tau - s) a} E_s by tau, and
        the truncation bounds of the steps add; a sample with error bound
        E on its vector y is off by at most 2 E ||y|| + E^2, plus rounding.
        """
        times, where = np.unique(np.asarray(taus, dtype=float), return_inverse=True)
        xi = np.asarray(xi, dtype=complex)
        norms = np.empty((times.size, xi.shape[1]))
        errs = np.empty_like(norms)
        state, start, state_err, done = xi, 0.0, np.zeros(xi.shape[1]), 0
        longest = np.inf  # the longest step trusted after a halving
        while done < times.size:
            steps = times[done:] - start
            halved = steps[0] > longest
            steps = np.array([longest]) if halved else steps[steps <= longest]
            for _ in range(_MAX_HALVINGS):
                sw = self.sweep(state, steps)
                trusted = np.all(sw.rounding <= _ROUNDING_LIMIT, axis=1)
                if trusted[0]:
                    break
                steps, halved = steps[:1] * 0.5, True
                longest = steps[0]
            else:
                raise NumericalError(
                    f"chebyshev propagator lost accuracy on [{self.low:.6g}, {self.high:.6g}] "
                    f"(rounding estimate {sw.rounding.max():.3e})",
                    residual=float(sw.rounding.max()))
            count = int(np.argmin(trusted)) if not trusted.all() else len(steps)
            err = np.exp(-steps[:count] * self.low)[:, None] * state_err + sw.trunc[:count]
            state, state_err = sw.ys[count - 1], err[count - 1]
            if halved:
                start += steps[0]
                continue
            norms[done: done + count], errs[done: done + count] = sw.norms[:count], err
            done += count
            start = times[done - 1]
        norms, errs = norms[where], errs[where]
        return (norms ** 2).T, (errs * (2.0 * norms + errs)).T


def _squared_norms(x) -> np.ndarray:
    """Squared 2-norms along axis -2: of the columns of each trailing matrix."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=-2)


def _rademacher_block(rng, dim: int, width: int) -> np.ndarray:
    """``width`` Rademacher probes as columns, drawn one after another."""
    block = np.empty((dim, width), dtype=complex)
    for j in range(width):
        block[:, j] = rng.choice([-1.0, 1.0], size=dim)
    return block


def heat_traces(op: DiscreteOperator, ts: Sequence[float],
                method: Optional[SemigroupMethod] = None,
                seed: Optional[int] = None,
                probes: int = defaults.TRACE_PROBES) -> list:
    """Traces of e^{-tA}, one per t in ts, in the order of ts: by default
    Hutchinson estimation with ``probes`` (at least 2) Rademacher probes
    from ``seed`` (then required), exact eigenvalue sums under dense-eigen.

    Every t uses the same probes; each sample is ||e^{-(t/2)A} xi||^2.  All
    probes and times advance as one Chebyshev block (``_ChebyshevBlock``),
    in column slabs of at most ``defaults.TRACE_BLOCK_BYTES``.  Each sample
    has an a-priori error bound (``_ChebyshevBlock.samples``); once the
    positivity certificate holds, it is below unit roundoff relative to the
    sample, so the estimate is exact to rounding for its probes.  The method
    label stays "krylov": the polynomial p(A) xi lies in the Krylov space of
    xi.  ``krylov_dim`` and ``krylov_tol`` do not apply.
    """
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
    block = _ChebyshevBlock(op)
    half = [0.5 * t for t in ts]
    # the sweep holds the slab, two recurrence vectors and one sum per time
    width = max(1, defaults.TRACE_BLOCK_BYTES // (16 * (3 + len(ts)) * op.dim))
    samples = np.concatenate([
        block.samples(_rademacher_block(rng, op.dim, min(width, probes - start)), half)[0]
        for start in range(0, probes, width)
    ])
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
                         psd_tol: float = _PSD_TOL) -> SpectralBoundReport:
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
