"""Heat semigroup actions e^{-tA}v, kernel diagonals, traces, spectral
bound checks, and the k-convergence experiment.

Under the default method every heat action runs one propagator: the
Chebyshev expansion of e^{-tA} on an interval [a, b] that holds the
spectrum (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984; Weisse, Wellein,
Alvermann & Fehske, Rev. Mod. Phys. 78, 2006).  ``heat_apply`` advances a
one-column block, ``kernel_diagonals`` the d fiber deltas of a site, and
stochastic ``heat_traces`` the Hutchinson probes; each block reaches every
requested time at one sparse product per degree, with no
orthogonalisation and no small eigenproblem.  A sweep stops once its
a-priori truncation bound is below unit roundoff u relative to every result
(``_ChebyshevBlock``).  Its rounding error, as that of the reference dense
eigendecomposition (memoized by the operator), is of order
u ||e^{-tA}|| ||xi||: a far smaller result, as where the lowest eigenvectors
vanish at large t, may keep few correct digits, unreported.  A result past
the float range raises NumericalError.  No operator state is written here.

The operator memoizes [a, b] (``DiscreteOperator._interval``).  b is the
Gershgorin upper end.  a is the spectral floor that ``assemble_model``
and ``assemble_scaled`` prove for every operator they build: its Gram
parts are positive semidefinite, the remainder is bounded by Gershgorin,
a rounding allowance covers the assembly, and a random probe checks that
the matrix holds those parts (``operators._floor``).  Any other operator
sweeps from its Gershgorin lower end.

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
    is given) or dense-eigen (the reference, run only when asked for).

    Under krylov every heat action runs the Chebyshev block of the module
    docstring, truncated below rounding on its interval.  The label stays
    "krylov": the polynomial p(A) v lies in the Krylov space of v.
    Dense-eigen is limited to dimension ``defaults.DENSE_EIGEN_CAP`` by
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
    with np.errstate(over="ignore", invalid="ignore"):
        return _in_range(np.array([vecs @ (np.exp(-t * w)[:, None] * coef) for t in ts]),
                         "a dense-eigen propagation")


def _in_range(values, what: str):
    """values, if every one is finite; else NumericalError: ``what`` left the float range."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} left the float range", residual=np.inf)
    return values


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
    to every t/2; each x_b is truncated below rounding (module docstring).
    """
    ts = _positive_times(ts)
    grid = op.grid
    fibers = np.arange(op.fiber_dim)
    deltas = np.zeros((op.dim, op.fiber_dim), dtype=complex)
    deltas[fibers * grid.sites + grid.flat_index(site), fibers] = 1.0
    xs = _propagate(op, deltas, [0.5 * t for t in ts], method)
    with np.errstate(over="ignore", invalid="ignore"):  # squares past 2^512 read inf
        grams = _in_range([_gram(x.T) / grid.dv_cell for x in xs], "a kernel diagonal")
    return [FiberEndomorphism(grid.n, op.q, gram) for gram in grams]


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
# Halvings in a row of the longest step tried before giving up.
_MAX_HALVINGS = 64


def _log_bessel_tails(x: float, kmax: int) -> np.ndarray:
    """Upper bounds on log sum_{j>K} I_j(x) for K = 0..kmax and x >= 0.

    With nu = K+1, Luke's bound I_nu(x) <= (x/2)^nu e^{x^2/(4(nu+1))} / nu!
    and the ratio bound I_{j+1}(x)/I_j(x) <= x/(2(j+1)) <= rho = x/(2(nu+1))
    for j >= nu give sum_{j>=nu} I_j(x) <= I_nu(x)/(1 - rho); the bound is
    +inf where rho >= 1.  Both follow from the power series of I_nu.
    """
    nu = np.arange(1, kmax + 2, dtype=float)
    rho = x / (2.0 * (nu + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_i = nu * np.log(0.5 * x) + x * x / (4.0 * (nu + 1.0)) - np.cumsum(np.log(nu))
        return np.where(rho < 1.0, log_i - np.log1p(-rho), np.inf)


class _Sweep(NamedTuple):
    """One Chebyshev sweep of a block: per tau (rows) and column, the sums y, the bound
    ``trunc`` on ||y - e^{-tau A} xi||, and the rounding estimate K u e^{-tau a} ||xi|| / ||y||."""

    ys: np.ndarray      # (len(taus), dim, columns)
    norms: np.ndarray
    trunc: np.ndarray
    rounding: np.ndarray
    degree: int


class _Propagation(NamedTuple):
    """e^{-tau A} xi per tau and column of xi; a squared norm is off by at most 2 E ||y|| + E^2."""

    ys: np.ndarray       # (len(taus), dim, columns): the vectors y
    errs: np.ndarray     # (len(taus), columns): bounds E on ||y - e^{-tau A} xi||
    squares: np.ndarray  # ||y||^2


class _ChebyshevBlock:
    """e^{-tau A} on a block of start vectors for several tau at once.

    On the spectral interval [a, b] of ``DiscreteOperator._interval``, with centre c
    and half-width r, e^{-tau A} = sum_k c_k(tau) T_k((A - c)/r), where
    c_k = 2 (-1)^k e^{-tau c} I_k(tau r), halved at k = 0 (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 1984).  Truncating after degree K leaves an error of
    norm at most ||xi|| sum_{k>K} |c_k| for a start vector xi, whatever its
    spectral content in [a, b]; ``_log_bessel_tails`` bounds that sum.
    """

    def __init__(self, op: DiscreteOperator):
        self.low, self.high = a, b = op._interval()
        self.centre, self.radius = 0.5 * (a + b), max(0.5 * (b - a), np.finfo(float).tiny)
        # the recurrence T_{k+1} = 2 (A - c)/r T_k - T_{k-1}, with 2/r and the shift folded
        # into a copy of the stored values; setdiag keeps the sparsity pattern when every
        # diagonal entry is stored, as the stabilizer makes it in every assembled operator
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
        xi_norm = _norms(xi)
        ys = coef[0][:, None, None] * xi
        prev, cur, k = None, xi, 0
        check = int(np.argmax(np.all(tail <= np.sqrt(_ROUNDOFF), axis=1)))
        while True:
            if k >= check:
                norms = _norms(ys)
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

        Each pass sweeps from the last trusted time s over the pending steps
        tau - s up to ``longest``, or one step of ``longest``, and advances
        to its leading trusted taus (the semigroup law): finite sums with a
        rounding estimate of at most _ROUNDING_LIMIT.  When none is,
        ``longest`` halves, at most _MAX_HALVINGS times in a row: a far below
        lambda_min, e^{-tau A} xi tiny beside xi, or e^{-tau a} overflowing.
        An error E_s at s grows to at most e^{-(tau - s) a} E_s by tau, and
        the steps' truncation bounds add (to inf past the largest float).
        A sum is at most e^{-step a} ||state||: sums that overflow where that
        factor is at most 2 raise, as ||e^{-s A} xi|| is log-convex in s and
        a requested result (or xi) is then near the largest float too.
        """
        times, where = np.unique(np.asarray(taus, dtype=float), return_inverse=True)
        xi = np.asarray(xi, dtype=complex)
        if times.size == 0:
            empty = np.zeros((0, xi.shape[1]))
            return _Propagation(np.zeros((0,) + xi.shape, dtype=complex), empty, empty)
        accepted = []  # (ys, norms, errs) of the requested times reached
        state, state_err, start, done, longest, halvings = xi, np.zeros(xi.shape[1]), 0.0, 0, np.inf, 0
        while done < times.size:
            pending = times[done:] - start
            steps = pending[pending <= longest] if pending[0] <= longest else np.array([longest])
            with np.errstate(over="ignore", invalid="ignore"):  # sums that overflow read inf
                sw = self.sweep(state, steps)
                rounding = np.where(np.isfinite(sw.norms), sw.rounding, np.inf)
                err = np.exp(-steps * self.low)[:, None] * state_err + sw.trunc
            count = int(np.cumprod(np.all(rounding <= _ROUNDING_LIMIT, axis=1)).sum())
            if count == 0:
                past = steps[0] * self.low >= -np.log(2.0) and not np.isfinite(sw.norms[0]).all()
                if past or halvings == _MAX_HALVINGS:
                    residual = float(rounding.max())  # inf where the sums overflowed
                    raise NumericalError(
                        f"chebyshev propagator {'overflowed' if past else 'lost accuracy'} on "
                        f"[{self.low:.6g}, {self.high:.6g}] (residual {residual:.3e}, the "
                        f"rounding estimate relative to the result)", residual=residual)
                longest, halvings = 0.5 * steps[0], halvings + 1
                continue
            state, state_err, halvings = sw.ys[count - 1], err[count - 1], 0
            if steps[0] < pending[0]:  # the intermediate step
                start += steps[0]
                continue
            accepted.append((sw.ys[:count], sw.norms[:count], err[:count]))
            done, start = done + count, times[done + count - 1]
        ys, norms, errs = (part[0] if len(accepted) == 1 else np.concatenate(part)
                           for part in zip(*accepted))
        if not np.array_equal(where, np.arange(times.size)):
            ys, norms, errs = ys[where], norms[where], errs[where]
        with np.errstate(over="ignore"):  # inf once a norm passes 2^512
            return _Propagation(ys, errs, norms ** 2)


def _norms(x) -> np.ndarray:
    """2-norms along axis -2 of the columns of each trailing matrix, scaled exactly by the power
    of two that brings a column's largest part into [1/2, 1): no square over- or underflows."""
    e = np.frexp(np.maximum(np.abs(x.real).max(axis=-2), np.abs(x.imag).max(axis=-2)))[1]
    y = np.ldexp(x.real, -e[..., None, :]) ** 2 + np.ldexp(x.imag, -e[..., None, :]) ** 2
    return np.ldexp(np.sqrt(y.sum(axis=-2)), e)


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

    Every t uses the same probes; each sample is ||e^{-(t/2)A} xi||^2, and
    one past the float range raises NumericalError.  All probes and times
    advance as one Chebyshev block (``_ChebyshevBlock``) in column slabs of
    at most ``defaults.TRACE_BLOCK_BYTES``.  Each sample's a-priori
    truncation bound (``_ChebyshevBlock.propagate``) is below unit roundoff
    relative to it; its rounding is relative to ||e^{-(t/2)A}|| ||xi||."""
    ts = _positive_times(ts)
    method = method or SemigroupMethod()
    if method.variant == "dense-eigen":
        w = op.eigenvalues()
        with np.errstate(over="ignore"):
            values = _in_range([np.sum(np.exp(-t * w)) for t in ts], "a dense trace")
        return [TraceEstimate(float(v), 0.0, 0, "dense-eigen") for v in values]
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
    # scaled exactly by the power of two of the largest sample: no sum or square overflows
    e = np.frexp(_in_range(samples, "a trace sample").max(axis=0))[1]
    scaled = np.ldexp(samples, -e)
    values = np.ldexp(scaled.mean(axis=0), e)
    stderrs = np.ldexp(scaled.std(axis=0, ddof=1), e) / np.sqrt(probes)
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
