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
phases; see ``validate_landau_levels``.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import defaults
from .errors import AccuracyError, ArgumentError, InvariantViolation
from .geometry import CurvatureEndomorphism, CurvatureField, morse_bound

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
    if k * abs(bundle.degree) < 1:
        raise ArgumentError("need k*|d| >= 1")


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
    if t <= 0:
        raise ArgumentError("t must be positive")
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
    if t <= 0:
        raise ArgumentError("t must be positive")
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


def morse_trace_inequality(bundle: EllipticCurveBundle, k: int, q: int, t: float) -> MorseTraceRecord:
    """Alternating cohomology sum versus alternating heat-trace sum.

    lhs = sum_{j<=q} (-1)^{q-j} dim H^j, rhs the same sum of traces; the
    inequality lhs <= rhs holds for every t, with equality at q = n = 1.
    """
    _check_kq(bundle, k, q)
    dims = riemann_roch_dims(k, bundle.degree)
    lhs = sum((-1) ** (q - j) * dims[j] for j in range(q + 1))
    rhs = sum((-1) ** (q - j) * heat_trace_exact(bundle, k, j, t) for j in range(q + 1))
    equality = bool(abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)))
    holds = bool(lhs <= rhs + 1e-10 * max(1.0, abs(rhs)))
    return MorseTraceRecord(k, q, float(t), int(lhs), float(rhs), holds, equality)


@dataclass(frozen=True)
class ProductMorseRecord:
    k: int
    q: int
    t: float
    lhs: int
    rhs: float
    holds: bool
    equality: bool
    morse_integral: float
    normalized_lhs: float

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs


def _kunneth_dims(b1: EllipticCurveBundle, b2: EllipticCurveBundle, k: int) -> tuple:
    h1 = riemann_roch_dims(k, b1.degree)
    h2 = riemann_roch_dims(k, b2.degree)
    return (
        h1[0] * h2[0],
        h1[0] * h2[1] + h1[1] * h2[0],
        h1[1] * h2[1],
    )


def product_torus_morse(b1: EllipticCurveBundle, b2: EllipticCurveBundle,
                        k: int, q: int, t: float,
                        quadrature_cells: int = 16) -> ProductMorseRecord:
    """Morse-inequality comparison on a product of curves with degrees
    (d1 > 0, d2 < 0): exact Kunneth dimensions against combined traces,
    plus the curvature integral from ``geometry.morse_bound``.

    Product spectra combine additively with multiplicities multiplying,
    so the degree-j product trace is sum_{a+b=j} trace_a(E1) trace_b(E2).
    """
    if not (b1.degree > 0 and b2.degree < 0):
        raise ArgumentError("expected degree signs (d1 > 0, d2 < 0)")
    if q not in (0, 1, 2):
        raise ArgumentError("q must be in {0, 1, 2} on a product of curves")
    if k < 1:
        raise ArgumentError("k must be a positive integer")
    dims = _kunneth_dims(b1, b2, k)
    lhs = sum((-1) ** (q - j) * dims[j] for j in range(q + 1))

    def product_trace(j: int) -> float:
        return sum(
            heat_trace_exact(b1, k, a, t) * heat_trace_exact(b2, k, j - a, t)
            for a in range(j + 1)
            if 0 <= j - a <= 1 and a <= 1
        )

    rhs = sum((-1) ** (q - j) * product_trace(j) for j in range(q + 1))
    holds = bool(lhs <= rhs + 1e-9 * max(1.0, abs(rhs)))
    equality = bool(abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)))

    curv = CurvatureEndomorphism.diagonal([b1.lambda_scalar, b2.lambda_scalar])
    field = CurvatureField.constant(curv, b1.area * b2.area, cells=quadrature_cells)
    integral = morse_bound(field, q).value
    return ProductMorseRecord(k, q, float(t), int(lhs), float(rhs), holds, equality,
                              float(integral), lhs / float(k) ** 2)


# ---------------------------------------------------------------------------
# Discretized periodic magnetic Laplacian oracle


def magnetic_torus_operator(flux_quanta: int, n_points: int, side: float) -> sp.csr_matrix:
    """Peierls-phase discretization of the uniform-field magnetic Laplacian
    (-i grad - A)^2 on a square torus of the given side, with the stated
    number of flux quanta; magnetic periodic boundary conditions."""
    if flux_quanta < 1 or n_points < 4 or side <= 0:
        raise ArgumentError("need flux_quanta >= 1, n_points >= 4, side > 0")
    N, Q = n_points, flux_quanta
    h = side / N
    alpha = Q / N**2
    rows, cols, vals = [], [], []

    def idx(i, j):
        return (i % N) * N + (j % N)

    for i in range(N):
        for j in range(N):
            a = idx(i, j)
            rows.append(a), cols.append(a), vals.append(4.0 / h**2)
            # x-hop; the wrap link carries the magnetic twist
            ph = -2.0 * np.pi * Q * j / N if i == N - 1 else 0.0
            b = idx(i + 1, j)
            rows += [a, b]
            cols += [b, a]
            vals += [-np.exp(1j * ph) / h**2, -np.exp(-1j * ph) / h**2]
            # y-hop in Landau gauge
            ph = 2.0 * np.pi * alpha * i
            b = idx(i, j + 1)
            rows += [a, b]
            cols += [b, a]
            vals += [-np.exp(1j * ph) / h**2, -np.exp(-1j * ph) / h**2]
    return sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()


def _discrete_landau_levels(bundle: EllipticCurveBundle, k: int, n_points: int,
                            count: int) -> np.ndarray:
    """Smallest eigenvalues of the discretized Laplacian on sections,
    normalized to the Landau convention (level m at k lambda m)."""
    quanta = k * bundle.degree
    side = np.sqrt(bundle.area / 2.0)   # Lebesgue side; dv area = 2 * side^2
    field = 2.0 * np.pi * quanta / side**2
    h = magnetic_torus_operator(quanta, n_points, side)
    if h.shape[0] <= 1500:
        eigs = np.linalg.eigvalsh(h.toarray())[:count]
    else:
        # A fixed-seed random start vector keeps reruns byte-identical
        # without missing any symmetry class of the spectrum.
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
        eigs = np.sort(spla.eigsh(h, k=count, sigma=0.0, which="LM", v0=v0.astype(h.dtype),
                                  return_eigenvectors=False, maxiter=10000))
    return (eigs[:count] - field) / 4.0


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


def _cluster(eigs: np.ndarray, gap: float) -> list:
    clusters, current = [], [eigs[0]]
    for e in eigs[1:]:
        if e - current[-1] > gap:
            clusters.append(current)
            current = [e]
        else:
            current.append(e)
    clusters.append(current)
    return clusters


def validate_landau_levels(bundle: EllipticCurveBundle, k: int,
                           eigen_count: int = 10,
                           resolutions: Tuple[int, int] = (32, 64)) -> LandauLevelValidation:
    """Validate spectrum-table eigenvalues and multiplicities against the
    discretized periodic magnetic Laplacian at two resolutions with
    Richardson extrapolation (the discretization error is O(h^2))."""
    if bundle.degree < 1:
        raise ArgumentError("oracle validation requires positive degree")
    n1, n2 = resolutions
    if n2 != 2 * n1:
        raise ArgumentError("resolutions must differ by a factor of 2")
    lam = k * bundle.lambda_scalar
    coarse = _discrete_landau_levels(bundle, k, n1, eigen_count)
    fine = _discrete_landau_levels(bundle, k, n2, eigen_count)
    gap = 0.5 * lam
    cl_coarse = _cluster(coarse, gap)
    cl_fine = _cluster(fine, gap)
    n_levels = min(len(cl_coarse), len(cl_fine))
    # drop a trailing incomplete cluster (its states straddle eigen_count)
    kd = k * bundle.degree
    while n_levels and (len(cl_coarse[n_levels - 1]) < kd or len(cl_fine[n_levels - 1]) < kd):
        n_levels -= 1
    if n_levels == 0:
        raise AccuracyError("no complete Landau cluster among the requested eigenvalues")
    expected = np.array([lam * m for m in range(n_levels)])
    e1 = np.array([np.mean(c) for c in cl_coarse[:n_levels]])
    e2 = np.array([np.mean(c) for c in cl_fine[:n_levels]])
    extrap = (4.0 * e2 - e1) / 3.0
    err = defaults.RICHARDSON_SAFETY * np.abs(e2 - e1) / 3.0 + 1e-9 * lam
    mults = np.array([len(c) for c in cl_fine[:n_levels]], dtype=int)
    matches = (np.abs(extrap - expected) <= err) & (mults == kd)
    return LandauLevelValidation(
        levels=np.arange(n_levels), expected=expected, extrapolated=extrap,
        error_estimate=err, multiplicities=mults, expected_multiplicity=kd,
        matches=matches,
    )
