"""Exactly solvable Landau-level models on elliptic curves and products.

A degree-d line bundle power on a flat elliptic curve carries a constant
curvature eigenvalue lambda = 2 pi d / A (A the area in the Hermitian
volume normalization).  Its Laplacian on sections has the Landau spectrum
{k lambda m : m >= 0}, each level of dimension k d; on (0,1)-forms the
spectrum shifts by one level.  These closed forms serve as brute-force
oracles for heat traces, Riemann-Roch dimensions, and trace-level Morse
inequalities.

The Landau structure (spacing and multiplicity) is validated numerically
against a discretized periodic magnetic Laplacian with Peierls link
phases; see ``validate_landau_levels``.  In Landau gauge a partial
Fourier transform in y turns that operator into Harper's equation: real
cyclic tridiagonal rings with the same spectrum, which the oracle solves
instead of the 2-D Peierls matrix.  Without one closing site each ring is
a path, so the rings are a tridiagonal bordered by one row per ring, and
LAPACK's tridiagonal kernels factor them: ``dpttrf`` for ARPACK's
shift-invert and a Sturm count (``dstebz``) with the closing sites' Schur
complement for the inertia.  The rings fall into shift classes of
bit-identical copies, so ARPACK solves one ring per class and repeats
each eigenvalue once per copy; the inertia count covers every ring.  A
level is the set of those eigenvalues between two exact mid-gaps,
checked against the inertia count below the top one.  Only the oracle
imports scipy, inside its functions.
"""

from dataclasses import astuple, dataclass
from typing import Tuple

import numpy as np

from . import defaults
from .errors import AccuracyError, ArgumentError, InvariantViolation
from .geometry import CurvatureEndomorphism, CurvatureField, morse_bound
from .model_kernels import _check_time

__all__ = [
    "EllipticCurveBundle",
    "SpectrumTable",
    "MorseTraceRecord",
    "ProductMorseRecord",
    "LandauLevelValidation",
    "landau_spectrum",
    "heat_trace_exact",
    "heat_trace_truncated",
    "riemann_roch_dims",
    "morse_trace_inequality",
    "product_torus_morse",
    "magnetic_torus_operator",
    "validate_landau_levels",
]


@dataclass(frozen=True)
class EllipticCurveBundle:
    """Flat elliptic curve C/(Z + tau Z) with a degree-d bundle.

    ``area`` is Im(tau) (flat metric normalization) and the constant
    curvature eigenvalue is lambda = 2 pi d / area, so lambda * area
    = 2 pi d holds identically.
    """

    tau: complex
    degree: int

    def __post_init__(self):
        if np.imag(self.tau) <= 0:
            raise ArgumentError("tau must have positive imaginary part")
        if self.degree == 0:
            raise ArgumentError("degree must be nonzero")

    @property
    def area(self) -> float:
        return float(np.imag(self.tau))

    @property
    def lambda_scalar(self) -> float:
        return 2.0 * np.pi * self.degree / self.area

    def dual(self) -> "EllipticCurveBundle":
        return EllipticCurveBundle(self.tau, -self.degree)


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue/multiplicity rows, strictly increasing, with cutoff level."""

    rows: tuple
    cutoff: int

    def __post_init__(self):
        eigs = [r[0] for r in self.rows]
        if any(e2 <= e1 for e1, e2 in zip(eigs, eigs[1:])):
            raise InvariantViolation("eigenvalues must be strictly increasing")
        if any(r[1] < 1 for r in self.rows):
            raise InvariantViolation("multiplicities must be positive")

    def eigenvalues(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows])

    def multiplicities(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows], dtype=int)


def _check_kq(bundle: EllipticCurveBundle, k: int, q: int) -> None:
    if k < 1:
        raise ArgumentError("k must be a positive integer")
    if q not in (0, 1):
        raise ArgumentError("q must be 0 or 1 on a curve")


def landau_spectrum(bundle: EllipticCurveBundle, k: int, q: int, cutoff: int) -> SpectrumTable:
    """Spectrum of the power-k Laplacian on (0,q)-forms up to the cutoff level.

    Negative degree is handled by duality: the q=0 spectrum on degree -|d|
    equals the q=1 spectrum on degree |d| and vice versa.
    """
    _check_kq(bundle, k, q)
    if cutoff < 0:
        raise ArgumentError("cutoff must be nonnegative")
    if bundle.degree < 0:
        return landau_spectrum(bundle.dual(), k, 1 - q, cutoff)
    lam = k * bundle.lambda_scalar
    mult = k * bundle.degree
    rows = tuple((lam * (m + q), mult) for m in range(cutoff + 1))
    return SpectrumTable(rows, cutoff)


def heat_trace_exact(bundle: EllipticCurveBundle, k: int, q: int, t: float) -> float:
    """Closed-form trace of e^{-(t/k) box^q_k}: geometric series over levels."""
    _check_kq(bundle, k, q)
    _check_time(t)
    if bundle.degree < 0:
        return heat_trace_exact(bundle.dual(), k, 1 - q, t)
    lam = bundle.lambda_scalar
    kd = k * bundle.degree
    if q == 0:
        return kd / (-np.expm1(-t * lam))
    return kd / np.expm1(t * lam)


def heat_trace_truncated(bundle: EllipticCurveBundle, k: int, q: int, t: float,
                         cutoff: int, rtol: float = 1e-12) -> float:
    """Trace from the truncated spectrum table; errors out when the geometric
    tail exceeds the requested relative accuracy."""
    _check_time(t)
    table = landau_spectrum(bundle, k, q, cutoff)
    # t * lambda of the dual (positive-degree) model governs the tail
    x = t * 2.0 * np.pi * abs(bundle.degree) / bundle.area
    total = float(np.dot(table.multiplicities(), np.exp(-t * table.eigenvalues() / k)))
    tail = table.multiplicities()[-1] * np.exp(-t * table.eigenvalues()[-1] / k) / (-np.expm1(-x))
    if tail > rtol * max(total, 1e-300):
        needed = int(np.ceil(50.0 / x))
        raise AccuracyError(
            f"cutoff {cutoff} too small: tail bound {tail:.3e} exceeds rtol {rtol:.1e}; "
            f"need cutoff >= {needed}",
            bound=float(tail),
        )
    return total


def riemann_roch_dims(k: int, d: int) -> Tuple[int, int]:
    """(dim H^0, dim H^1) for a degree k*d bundle on a genus-1 curve, k*|d| >= 1."""
    if k < 1 or k * abs(d) < 1:
        raise ArgumentError("need k >= 1 and k*|d| >= 1")
    if d > 0:
        return k * d, 0
    return 0, k * abs(d)


@dataclass(frozen=True)
class MorseTraceRecord:
    k: int
    q: int
    t: float
    lhs: int
    rhs: float
    holds: bool
    equality: bool

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class ProductMorseRecord(MorseTraceRecord):
    morse_integral: float
    normalized_lhs: float


def _alternating(k: int, q: int, t: float, dims, traces) -> MorseTraceRecord:
    """lhs = sum_{j<=q} (-1)^{q-j} dims[j] against rhs, the same sum of the
    heat traces; the inequality lhs <= rhs and equality are read to within
    1e-10 max(1, |rhs|)."""
    lhs = int(sum((-1) ** (q - j) * dims[j] for j in range(q + 1)))
    rhs = float(sum((-1) ** (q - j) * traces[j] for j in range(q + 1)))
    tol = 1e-10 * max(1.0, abs(rhs))
    return MorseTraceRecord(k, q, float(t), lhs, rhs, lhs <= rhs + tol, abs(lhs - rhs) <= tol)


def morse_trace_inequality(bundle: EllipticCurveBundle, k: int, q: int, t: float) -> MorseTraceRecord:
    """Alternating cohomology sum versus alternating heat-trace sum.

    lhs = sum_{j<=q} (-1)^{q-j} dim H^j, rhs the same sum of traces; the
    inequality lhs <= rhs holds for every t, with equality at q = n = 1.
    """
    _check_kq(bundle, k, q)
    _check_time(t)
    traces = [heat_trace_exact(bundle, k, j, t) for j in range(q + 1)]
    return _alternating(k, q, t, riemann_roch_dims(k, bundle.degree), traces)


def product_torus_morse(b1: EllipticCurveBundle, b2: EllipticCurveBundle,
                        k: int, q: int, t: float) -> ProductMorseRecord:
    """Morse-inequality comparison on a product of curves with degrees
    (d1 > 0, d2 < 0): exact Kunneth dimensions against combined traces,
    plus the curvature integral from ``geometry.morse_bound``.

    Product spectra combine additively with multiplicities multiplying, so
    the degree-j dimension and trace are sum_{a+b=j} of the curves'
    products: the convolutions of their (degree 0, degree 1) sequences.
    """
    if not (b1.degree > 0 and b2.degree < 0):
        raise ArgumentError("expected degree signs (d1 > 0, d2 < 0)")
    if q not in (0, 1, 2):
        raise ArgumentError("q must be in {0, 1, 2} on a product of curves")
    if k < 1:
        raise ArgumentError("k must be a positive integer")
    _check_time(t)
    dims = np.convolve(riemann_roch_dims(k, b1.degree), riemann_roch_dims(k, b2.degree))
    traces = np.convolve(*([heat_trace_exact(b, k, j, t) for j in (0, 1)] for b in (b1, b2)))
    rec = _alternating(k, q, t, dims, traces)

    curv = CurvatureEndomorphism.diagonal([b1.lambda_scalar, b2.lambda_scalar])
    field = CurvatureField.constant(curv, b1.area * b2.area)  # constant, so one cell is exact
    integral = morse_bound(field, q).value
    return ProductMorseRecord(*astuple(rec), float(integral), rec.lhs / float(k) ** 2)


# ---------------------------------------------------------------------------
# Discretized periodic magnetic Laplacian oracle


def _check_torus_grid(flux_quanta: int, n_points: int, side: float) -> None:
    if flux_quanta < 1 or n_points < 4 or side <= 0:
        raise ArgumentError("need flux_quanta >= 1, n_points >= 4, side > 0")


def magnetic_torus_operator(flux_quanta: int, n_points: int, side: float):
    """Peierls-phase discretization of the uniform-field magnetic Laplacian
    (-i grad - A)^2 on a square torus of the given side, with the stated
    number of flux quanta; magnetic periodic boundary conditions.  Site
    (i, j) is row i N + j.  Returns a scipy.sparse CSR matrix."""
    import scipy.sparse as sp

    _check_torus_grid(flux_quanta, n_points, side)
    N, Q = n_points, flux_quanta
    h = side / N
    site = np.arange(N * N)
    i, j = np.divmod(site, N)
    # x-hop to (i + 1, j); the wrap link carries the magnetic twist
    x_phase = np.where(i == N - 1, -2.0 * np.pi * Q * j / N, 0.0)
    # y-hop to (i, j + 1) in Landau gauge
    y_phase = 2.0 * np.pi * (Q / N**2) * i
    x_next, y_next = (i + 1) % N * N + j, i * N + (j + 1) % N
    rows = np.concatenate([site, site, x_next, site, y_next])
    cols = np.concatenate([site, x_next, site, y_next, site])
    vals = np.concatenate([np.full(N * N, 4.0 / h**2),
                           -np.exp(1j * x_phase) / h**2, -np.exp(-1j * x_phase) / h**2,
                           -np.exp(1j * y_phase) / h**2, -np.exp(-1j * y_phase) / h**2])
    return sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()


def _harper_rings(flux_quanta: int, n_points: int, side: float):
    """The y-Fourier transform of ``magnetic_torus_operator``, an exact
    unitary equivalent: Harper's equation (Harper 1955; Hofstadter 1976).

    Momentum m turns the Landau-gauge y-hop at x-index i into the diagonal
    (4 - 2 cos 2 pi (m / N + Q i / N^2)) / h^2, and the twisted x wrap link
    joins x-site N-1 at momentum m to x-site 0 at m + Q.  With g = gcd(N, Q)
    this leaves g real rings of L = N^2 / g sites; site ring * L + p carries
    x-index p mod N and momentum ring + Q floor(p / N), so its phase is
    (ring N + Q p) / N^2, and every link of a ring carries the hop -1/h^2.
    As the phase index ring N + Q p is reduced in integers, ring r is an
    exact cyclic shift (``np.roll``) of ring r mod s, s = gcd(Q / g, g):
    the rings fall into s shift classes of g / s copies with one spectrum
    (Zak's magnetic translations, Phys. Rev. 134, A1602, 1964).
    Returns (diag, hop): the (g, L) array of ring diagonals and the hop."""
    _check_torus_grid(flux_quanta, n_points, side)
    N, Q = n_points, flux_quanta
    h = side / N
    g = np.gcd(N, Q)
    ring, p = np.arange(g)[:, None], np.arange(N * N // g)
    # the phase reduced exactly in integers
    phase = (ring * N + Q * p) % (N * N) / (N * N)
    return (4.0 - 2.0 * np.cos(2.0 * np.pi * phase)) / h**2, -1.0 / h**2


def _ring_apply(diag, hop, x):
    """The rings H applied to a vector x in site order ring * L + p."""
    x = x.reshape(diag.shape)
    return (diag * x + hop * (np.roll(x, 1, axis=1) + np.roll(x, -1, axis=1))).ravel()


# Bordering (Haynsworth, Linear Algebra Appl. 1, 1968).  Without its
# closing site p = L - 1 each ring is a path of L - 1 sites; the g paths
# form one tridiagonal T with no link between rings.  The closing sites
# are the border B: each couples, by the hop, only to the first and last
# site of its own path.  As T is block diagonal, Y = T^{-1} B is supported
# ring by ring and the Schur complement S = C - B^T Y is diagonal.


def _path(diag, hop):
    """The tridiagonal T of the rings without their closing sites, as
    LAPACK's diagonal and off-diagonal (d, e)."""
    d = diag[:, :-1].ravel()
    e = np.full(d.size - 1, hop)
    e[diag.shape[1] - 2::diag.shape[1] - 1] = 0.0
    return d, e


def _border(diag, hop):
    """B as a (g, L - 1) array whose row r is column r of B: the hop at
    the first and last site of path r."""
    b = np.zeros((diag.shape[0], diag.shape[1] - 1))
    b[:, [0, -1]] = hop
    return b


def _closing_pivots(diag, hop, shift, y):
    """The Schur complement s_r = c_r - shift - hop (y_r[0] + y_r[-1]) of
    the closing sites, given Y = (T - shift)^{-1} B as a (g, L - 1) array,
    and a first-order bound on its rounding error, 64 eps ||H - shift||
    (1 + ||y_r||)^2, which grows as shift nears an eigenvalue of T."""
    schur = diag[:, -1] - shift - hop * (y[:, 0] + y[:, -1])
    scale = np.abs(diag).max() + 2.0 * abs(hop) + abs(shift)
    return schur, 64.0 * np.finfo(float).eps * scale * (1.0 + np.linalg.norm(y, axis=1)) ** 2


def _ring_inverse(diag, hop):
    """x -> H^{-1} x for the positive definite rings H, by bordering.

    T, a principal submatrix of H, is factored once with LAPACK ``dpttrf``
    (L D L^T), and Y = T^{-1} B and the Schur complements s_r once.  Each
    application is then one ``dpttrs`` and O(N^2) vector work: with
    t = T^{-1} x_T, the closing values are v_r = (x_r - hop (t_r[0] +
    t_r[-1])) / s_r and the path values t - Y v.  Raises ``AccuracyError``
    when H is not numerically positive definite: ``dpttrf`` fails on T, or
    an s_r is not above its rounding bound."""
    from scipy.linalg import lapack

    d, e, info = lapack.dpttrf(*_path(diag, hop))
    if info != 0:
        raise AccuracyError(f"the Harper paths are not positive definite (dpttrf info {info})")

    def path_solve(b):
        return lapack.dpttrs(d, e, b.reshape(-1, 1))[0].reshape(b.shape)

    y = path_solve(_border(diag, hop))
    schur, bound = _closing_pivots(diag, hop, 0.0, y)
    if np.any(schur <= bound):
        raise AccuracyError("the Harper rings are not positive definite: a closing pivot "
                            f"is {schur.min():.3g}", bound=float(bound.max()))

    def solve(x):
        x = x.reshape(diag.shape)
        t = path_solve(x[:, :-1])
        v = (x[:, -1] - hop * (t[:, 0] + t[:, -1])) / schur
        return np.concatenate([t - y * v[:, None], v[:, None]], axis=1).ravel()

    return solve


def _count_below(diag, hop, shift: float) -> int:
    """Number of eigenvalues of the rings H strictly below shift.

    By Sylvester's law of inertia and Haynsworth's additivity,
    In(H - shift) = In(T - shift) + In(S(shift)) with the diagonal Schur
    complement S(shift) = C - shift - B^T (T - shift)^{-1} B.  A Sturm
    count of T (LAPACK ``dstebz``; Parlett, The Symmetric Eigenvalue
    Problem, 3.3) gives the first term, and one pivoted tridiagonal solve
    (``dgtsv``) of T - shift against B the g signs of S.  When shift lies
    within rounding of an eigenvalue of T the two terms may disagree; then
    an s_r is within its rounding bound (``_closing_pivots``) and the count
    raises ``AccuracyError`` rather than return a number.  An eigenvalue
    of H within rounding of shift may be counted on either side."""
    from scipy.linalg import lapack

    d, e = _path(diag, hop)
    lo = min(d.min(), shift) - 3.0 * abs(hop)   # below every eigenvalue of T
    # only the count m is used, so the bisection may stop at once
    m, *_, info = lapack.dstebz(d, e, 1, lo, shift, 0, 0, shift - lo, "B")
    if info != 0:
        raise AccuracyError(f"Sturm count at shift {shift:.6g} failed (dstebz info {info})")
    *_, y, info = lapack.dgtsv(e, d - shift, e, _border(diag, hop).reshape(-1, 1))
    if info != 0:
        raise AccuracyError(f"shift {shift:.6g} is an eigenvalue of the Harper paths")
    schur, bound = _closing_pivots(diag, hop, shift, y.reshape(diag.shape[0], -1))
    if np.any(np.abs(schur) <= bound):
        raise AccuracyError(f"shift {shift:.6g} lies within rounding of an eigenvalue of "
                            "the Harper paths or rings", bound=float(bound.max()))
    return int(m) + int(np.count_nonzero(schur < 0))


def _discrete_landau_levels(bundle: EllipticCurveBundle, k: int, n_points: int,
                            count: int) -> list:
    """The ``count`` smallest eigenvalues of the discretized Laplacian on
    sections, normalized to the Landau convention (level m at k lambda m),
    split into ``count // (k d)`` levels at the mid-gaps k lambda (m -+ 1/2).
    The eigenvalues come from shift-inverted ARPACK on the Harper rings
    (``_harper_rings``), the real tridiagonal y-Fourier transform of the
    Peierls matrix, each inverse applied by bordering (``_ring_inverse``).
    The rings fall into s shift classes of c = g / s bit-identical copies
    (``defaults.harper_copies``), so ARPACK solves the s representatives,
    rings 0 .. s - 1, for ceil(count / c) eigenvalues and each is repeated
    c times.  Raises ``AccuracyError`` when they miss one below the top
    mid-gap, as counted by ``_count_below`` on all g rings."""
    import scipy.sparse.linalg as spla

    quanta = k * bundle.degree
    side = np.sqrt(bundle.area / 2.0)   # Lebesgue side; dv area = 2 * side^2
    field = 2.0 * np.pi * quanta / side**2
    diag, hop = _harper_rings(quanta, n_points, side)
    copies = defaults.harper_copies(quanta, n_points)
    reps = diag[:diag.shape[0] // copies]   # ring r is a shift of ring r mod s
    n = reps.size
    rings = spla.LinearOperator((n, n), matvec=lambda x: _ring_apply(reps, hop, x), dtype=float)
    inverse = spla.LinearOperator((n, n), matvec=_ring_inverse(reps, hop), dtype=float)
    # A fixed-seed random start vector keeps reruns byte-identical
    # without missing any symmetry class of the spectrum.
    v0 = np.random.default_rng(0).standard_normal(n)
    eigs = np.sort(spla.eigsh(rings, k=-(-count // copies), sigma=0.0, which="LM", v0=v0,
                              OPinv=inverse, return_eigenvectors=False, maxiter=10000))
    eigs = (np.repeat(eigs, copies) - field) / 4.0
    gaps = k * bundle.lambda_scalar * (np.arange(count // quanta + 1) - 0.5)
    cuts = np.searchsorted(eigs, gaps)
    # the count runs on all g rings, so it would also catch a wrong class rule
    below = _count_below(diag, hop, field + 4.0 * gaps[-1])
    if below != cuts[-1]:
        raise AccuracyError(f"{below} eigenvalues lie below the top mid-gap at N={n_points}, "
                            f"but only {cuts[-1]} of the {eigs.size} computed")
    return [eigs[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


@dataclass(frozen=True)
class LandauLevelValidation:
    """Per-level comparison of the discrete oracle with the spectrum table."""

    levels: np.ndarray
    expected: np.ndarray
    extrapolated: np.ndarray
    error_estimate: np.ndarray
    multiplicities: np.ndarray
    expected_multiplicity: int
    matches: np.ndarray

    @property
    def all_match(self) -> bool:
        return bool(np.all(self.matches))


def validate_landau_levels(bundle: EllipticCurveBundle, k: int,
                           eigen_count: int,
                           resolutions: Tuple[int, int]) -> LandauLevelValidation:
    """Validate spectrum-table eigenvalues and multiplicities against the
    discretized periodic magnetic Laplacian at two resolutions with
    Richardson extrapolation (the discretization error is O(h^2)).  The
    ``eigen_count`` smallest eigenvalues give ``eigen_count // (k d)``
    levels; a level matches when its multiplicity is k d at both
    resolutions and its extrapolation is within the error estimate.
    eigen_count lies in [k d, ``defaults.max_eigen_count``] at the coarse
    N, which is at most N^2 - 2."""
    if bundle.degree < 1:
        raise ArgumentError("oracle validation requires positive degree")
    if k < 1:
        raise ArgumentError("k must be a positive integer")
    if not all(isinstance(n, (int, np.integer)) for n in resolutions):
        raise ArgumentError(f"resolutions must be integers, not {resolutions!r}")
    n1, n2 = resolutions
    if n2 != 2 * n1:
        raise ArgumentError("resolutions must differ by a factor of 2")
    kd = k * bundle.degree
    high = defaults.max_eigen_count(kd, n1)
    if not kd <= eigen_count <= high:
        raise ArgumentError("eigen_count must lie in [k*degree, N^2 - max(2, copies of a "
                            f"Harper ring)] = [{kd}, {high}]")
    lam = k * bundle.lambda_scalar
    coarse = _discrete_landau_levels(bundle, k, n1, eigen_count)
    fine = _discrete_landau_levels(bundle, k, n2, eigen_count)
    expected = lam * np.arange(len(fine))
    # an empty level has no mean; ``complete`` fails it
    e1, e2 = (np.array([c.mean() if c.size else np.nan for c in lv]) for lv in (coarse, fine))
    extrap = (4.0 * e2 - e1) / 3.0
    err = defaults.RICHARDSON_SAFETY * np.abs(e2 - e1) / 3.0 + 1e-9 * lam
    mults = np.array([c.size for c in fine], dtype=int)
    complete = (mults == kd) & (np.array([c.size for c in coarse]) == kd)
    matches = (np.abs(extrap - expected) <= err) & complete
    return LandauLevelValidation(
        levels=np.arange(len(fine)), expected=expected, extrapolated=extrap,
        error_estimate=err, multiplicities=mults, expected_multiplicity=kd,
        matches=matches,
    )
