"""Heat semigroup actions e^{-tA}v, kernel diagonals, traces, spectral
bound checks, and the k-convergence experiment.

Under the default method every heat action runs one propagator: the
Chebyshev expansion of e^{-tA} on an interval [a, b] that holds the
spectrum (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984; Weisse, Wellein,
Alvermann & Fehske, Rev. Mod. Phys. 78, 2006).  ``heat_apply`` advances a
one-column block, ``kernel_diagonals`` the d fiber deltas of a site, and
stochastic ``heat_traces`` the Hutchinson probes; each block reaches every
requested time at one sparse product per degree, with no
orthogonalisation and no small eigenproblem.  Each result carries an
a-priori error bound, and a sweep stops once that bound is below unit
roundoff relative to every result (see ``_ChebyshevBlock``).  A dense
eigendecomposition (exact up to rounding, memoized by the operator) runs
only when asked for, as the reference.  This module reads operators and
writes no state into them.

b is the Gershgorin upper end.  a is the spectral floor that
``assemble_model`` and ``assemble_scaled`` prove for every operator they
build: its Gram parts are positive semidefinite, the remainder is bounded
by Gershgorin, a rounding allowance covers the assembly, and a random
probe checks that the matrix holds those parts (``operators._floor``).
Any other operator sweeps from its Gershgorin lower end
(``_spectral_interval``).

Kernel diagonals and trace samples are quadratic forms u^H e^{-tA} u.  As A
is Hermitian, e^{-tA} = (e^{-tA/2})^H e^{-tA/2}: each start vector is
propagated once, to every t/2, and the forms are the Gram matrix of the
half-time vectors, positive semidefinite by construction (Golub & Meurant,
Matrices, Moments and Quadrature, 2010).  A bound E on the error of a
half-time vector y bounds that of its squared norm by 2 E ||y|| + E^2.

The spectral bound check reduces to positivity, which the operator
certifies and memoizes (``DiscreteOperator._positive``).
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import defaults
from .errors import ArgumentError, InvariantViolation, NumericalError
from .geometry import FiberEndomorphism, WeightFunction
from .model_kernels import ModelSpec, _check_time, model_diagonal
from .operators import (
    _PSD_TOL,
    _ROUNDOFF,
    DiscreteOperator,
    GridSpec,
    PerturbationSpec,
    _gershgorin,
    _scaled,
    assemble_model,
)

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

    Under krylov every heat action runs the Chebyshev block of the module
    docstring, exact to rounding on its interval.  The label stays "krylov":
    the polynomial p(A) v lies in the Krylov space of v.  Dense-eigen is
    limited to dimension ``defaults.DENSE_EIGEN_CAP`` by
    ``DiscreteOperator.eigensystem``.
    """

    variant: str = "krylov"

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ArgumentError(f"unknown method variant {self.variant!r}")


def _propagate(op: DiscreteOperator, xi, ts, method: Optional[SemigroupMethod]) -> np.ndarray:
    """e^{-tA} xi for every column of the block xi and positive t in ts, as
    an array (len(ts), dim, columns) in the order of ts (None: Chebyshev)."""
    method = method or SemigroupMethod()
    if method.variant == "krylov":
        return _ChebyshevBlock(op).propagate(xi, ts).ys
    w, vecs = op.eigensystem()
    coef = vecs.conj().T @ xi
    return np.array([vecs @ (np.exp(-t * w)[:, None] * coef) for t in ts])


def _positive_times(ts) -> list:
    """ts as floats; ArgumentError unless every one is finite and positive."""
    ts = [float(t) for t in ts]
    for t in ts:
        _check_time(t)
    return ts


def heat_apply(op: DiscreteOperator, v, t: float,
               method: Optional[SemigroupMethod] = None) -> np.ndarray:
    """e^{-tA} v by ``method`` (default Chebyshev; a copy of v at t = 0)."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.dim,):
        raise ArgumentError(f"vector must have shape ({op.dim},)")
    if t == 0:
        return v.copy()
    return _propagate(op, v[:, None], _positive_times([t]), method)[0, :, 0]


def kernel_diagonals(op: DiscreteOperator, site, ts: Sequence[float],
                     method: Optional[SemigroupMethod] = None) -> list:
    """Discrete heat-kernel diagonals at a grid site, one fiber matrix per t
    in ts, in the order of ts.

    The fiber matrix is the Gram matrix X^H X / dv_cell of the half-time
    vectors x_b = e^{-(t/2)A} e_b of the fiber deltas at the site, for both
    methods; dividing by the Hermitian-volume cell 2^n h^{2n} makes it
    comparable with ``model_diagonal``.  All d deltas advance as one block
    to every t/2; each x_b is exact to rounding (module docstring).
    """
    ts = _positive_times(ts)
    grid = op.grid
    fibers = np.arange(op.fiber_dim)
    deltas = np.zeros((op.dim, op.fiber_dim), dtype=complex)
    deltas[fibers * grid.sites + grid.flat_index(site), fibers] = 1.0
    xs = _propagate(op, deltas, [0.5 * t for t in ts], method)
    return [FiberEndomorphism(grid.n, op.q, _gram(x.T) / grid.dv_cell) for x in xs]


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


# Largest rounding estimate of a sweep that is trusted, relative to its result.
_ROUNDING_LIMIT = 2.0 ** -36
# Halvings of an untrusted first step tried before giving up.
_MAX_HALVINGS = 64


def _spectral_interval(op: DiscreteOperator) -> tuple:
    """An interval [a, b] holding the spectrum of the Hermitian op: its
    Gershgorin ends, a raised to the assemblers' floor.  Without a floor, an
    a far below lambda_min costs restarts (``_ChebyshevBlock.propagate``).
    """
    low, high, *_ = _gershgorin(op.matrix)
    if op._floor is not None:
        low = max(low, op._floor)
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


class _Propagation(NamedTuple):
    """e^{-tau A} xi per tau (first axis) and column of xi, with bounds; a
    squared norm is off by at most 2 E ||y|| + E^2."""

    ys: np.ndarray       # (len(taus), dim, columns): the vectors y
    errs: np.ndarray     # (len(taus), columns): bounds E on ||y - e^{-tau A} xi||
    squares: np.ndarray  # ||y||^2


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
        # the recurrence T_{k+1} = 2 (A - c)/r T_k - T_{k-1}, with 2/r and the
        # shift folded into a copy of the stored values; setdiag keeps the
        # sparsity pattern when every diagonal entry is stored, as the
        # stabilizer makes it in every assembled operator
        self.matrix = op.matrix * (2.0 / self.radius)
        self.matrix.setdiag(self.matrix.diagonal() - 2.0 * self.centre / self.radius)

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
                y += ck * cur
        # sum_k |c_k| = e^{-tau a}: the largest partial sum a term can carry
        rounding = max(k, 1) * _ROUNDOFF * np.exp(-taus * self.low)[:, None] * ratio
        return _Sweep(ys, norms, tail[k][:, None] * xi_norm, rounding, k)

    def propagate(self, xi, taus) -> _Propagation:
        """e^{-tau A} xi for each tau and column of the block xi, in the
        order of taus, with a-priori bounds on their errors.

        A sweep whose rounding estimate exceeds _ROUNDING_LIMIT for a tau is
        not trusted there: the block restarts from the furthest trusted tau
        before it, or from the largest halving of the first pending tau
        that is trusted, by the semigroup law; later steps are no longer
        than that halving.  That happens only when a is far below the
        smallest eigenvalue (a Gershgorin lower end) or for tau lambda_min
        large enough that e^{-tau A} xi is tiny beside xi.  An
        error E_s at time s grows to at most e^{-(tau - s) a} E_s by tau, and
        the truncation bounds of the steps add.
        """
        times, where = np.unique(np.asarray(taus, dtype=float), return_inverse=True)
        xi = np.asarray(xi, dtype=complex)
        if times.size == 0:
            empty = np.zeros((0, xi.shape[1]))
            return _Propagation(np.zeros((0,) + xi.shape, dtype=complex), empty, empty)
        accepted = []  # (ys, norms, errs) of the times each trusted sweep passed
        state, start, state_err, done = xi, 0.0, np.zeros(xi.shape[1]), 0
        longest = np.inf  # the longest step trusted after a halving
        while done < times.size:
            steps = times[done:] - start
            halved = steps[0] > longest
            steps = np.array([longest]) if halved else steps[steps <= longest]
            for halvings in range(_MAX_HALVINGS + 1):
                sw = self.sweep(state, steps)
                trusted = np.all(sw.rounding <= _ROUNDING_LIMIT, axis=1)
                if trusted[0]:
                    break
                if halvings == _MAX_HALVINGS:
                    residual = float(sw.rounding.max())
                    raise NumericalError(
                        f"chebyshev propagator lost accuracy on [{self.low:.6g}, "
                        f"{self.high:.6g}] (residual {residual:.3e}, the rounding "
                        f"estimate relative to the result)", residual=residual)
                steps, halved = steps[:1] * 0.5, True
                longest = steps[0]
            count = int(np.argmin(trusted)) if not trusted.all() else len(steps)
            err = np.exp(-steps[:count] * self.low)[:, None] * state_err + sw.trunc[:count]
            state, state_err = sw.ys[count - 1], err[count - 1]
            if halved:
                start += steps[0]
                continue
            accepted.append((sw.ys[:count], sw.norms[:count], err))
            done += count
            start = times[done - 1]
        if len(accepted) == 1:
            ys, norms, errs = accepted[0]
        else:
            ys, norms, errs = (np.concatenate(part) for part in zip(*accepted))
        if not np.array_equal(where, np.arange(times.size)):
            ys, norms, errs = ys[where], norms[where], errs[where]
        return _Propagation(ys, errs, norms ** 2)


def _squared_norms(x) -> np.ndarray:
    """Squared 2-norms along axis -2: of the columns of each trailing matrix."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=-2)


def _rademacher_block(rng, dim: int, width: int) -> np.ndarray:
    """``width`` Rademacher probes as columns, drawn one after another."""
    return np.ascontiguousarray(rng.choice([-1.0, 1.0], size=(width, dim)).T, dtype=complex)


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
    has an a-priori error bound (``_ChebyshevBlock.propagate``) below unit
    roundoff relative to the sample, so the estimate is exact to rounding
    for its probes.
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
        block.propagate(_rademacher_block(rng, op.dim, min(width, probes - start)), half).squares.T
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
    """Outcome of ``spectral_bound_check``: ``passed`` is its positivity
    verdict and ``bound`` is (N/(e t))^N.  No eigenvalue is computed,
    so ``max_value`` is always NaN.
    """

    passed: bool
    max_value: float
    bound: float


def spectral_bound_check(op: DiscreteOperator, t: float, n_power: int) -> SpectralBoundReport:
    """Check max_s s^N e^{-ts} <= (N/(e t))^N over the operator spectrum.

    The bound is the calculus maximum of s^N e^{-ts} over s >= 0 (equal to
    1 for N = 0), so the only falsifiable content is positivity itself.  An
    operator is rejected with ``InvariantViolation`` iff its smallest
    eigenvalue is <= -1e-8 (``_PSD_TOL``): a floor proven at assembly above
    that passes it, and any other operator is certified by one banded
    Cholesky factorisation of ``A + 1e-8*I`` (``DiscreteOperator._positive``),
    whatever eigensystem it has memoized.  A band above
    ``defaults.BAND_CHOLESKY_MAX_BYTES`` (it grows as d*side^(2n-1) rows)
    raises ``ResourceLimitError``.
    """
    (t,) = _positive_times([t])
    if not 0 <= n_power <= 4:
        raise ArgumentError("N must be between 0 and 4")
    if not op._positive():
        raise InvariantViolation(
            f"operator not PSD: smallest eigenvalue <= {-_PSD_TOL:.3e} "
            "(banded Cholesky of A + tol*I failed)"
        )
    bound = 1.0 if n_power == 0 else (n_power / (np.e * t)) ** n_power
    return SpectralBoundReport(True, float("nan"), float(bound))


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

    def errors_for(self, t: float) -> list:
        return [r.abs_err for r in self.rows if r.t == t]


def converge_in_k(weight: WeightFunction, pert: Optional[PerturbationSpec],
                  q: int, ts: Sequence[float], ks: Sequence[int],
                  grid: GridSpec,
                  method: Optional[SemigroupMethod] = None) -> ConvergenceReport:
    """Assemble the scaled operator for each k, read the kernel diagonal at
    the origin, and compare with the continuum model diagonal."""
    ks = list(ks)
    if ks != sorted(ks) or len(set(ks)) != len(ks):
        raise ArgumentError("k list must be strictly increasing")
    targets = {t: model_diagonal(ModelSpec(weight.n, weight.lam, q), t).matrix for t in ts}
    rows = []
    assemble = _scaled(weight, pert, grid, q)  # the k-invariant parts, built once
    for k in ks:
        # the operator is not kept, so the next assembly does not run beside it
        diags = kernel_diagonals(assemble(k), grid.origin_site(), ts, method)
        for t, diag in zip(ts, diags):
            err = float(np.max(np.abs(diag.matrix - targets[t])))
            rows.append(ConvergenceRow(k, float(t), diag.matrix, targets[t], err))
    return ConvergenceReport(weight.n, q, tuple(rows))


def model_baseline_errors(weight: WeightFunction, q: int, ts: Sequence[float],
                          grid: GridSpec,
                          method: Optional[SemigroupMethod] = None) -> dict:
    """Pure discretization error of the unperturbed model on the same grid."""
    spec = ModelSpec(weight.n, weight.lam, q)
    diags = kernel_diagonals(assemble_model(spec, grid), grid.origin_site(), ts, method)
    return {t: float(np.max(np.abs(diag.matrix - model_diagonal(spec, t).matrix)))
            for t, diag in zip(ts, diags)}
