"""Curvature extraction from weights, the fiber twist endomorphism, the
asymptotic kernel diagonal, and Morse-inequality integrals.

A local weight is phi(z) = sum_j lambda_j |z_j|^2 + p(z) with p an analytic
real-valued perturbation vanishing to third order at 0.  Its curvature
endomorphism is the Hermitian matrix of mixed second Wirtinger derivatives
d^2 phi / dz_i dzbar_j, expressed in a frame orthonormal for the base
metric.  The asymptotic diagonal is

    prod_j f(mu_j, t) * exp(t * Theta),   f(mu, t) = mu / (2 pi (1 - e^{-t mu})),

where mu_j are the curvature eigenvalues, f(0, t) = 1/(2 pi t), and Theta
is the twist endomorphism acting on the (0,q) fiber.  Values are densities
against the Hermitian volume element (see README, "Volume conventions").
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import defaults, fiber
from .errors import ArgumentError, DomainError, InvariantViolation
from .fiber import FiberEndomorphism
from .model_kernels import _check_time, _checked_lam, heat_factor

__all__ = [
    "Perturbation",
    "WeightFunction",
    "CurvatureEndomorphism",
    "FiberEndomorphism",
    "CurvatureField",
    "MorseBoundResult",
    "curvature_at",
    "twist_endomorphism",
    "asymptotic_diagonal",
    "heat_factor",
    "morse_index",
    "morse_index_integrals",
    "morse_bound",
    "cubic_re_perturbation",
    "quartic_abs_perturbation",
]


# ---------------------------------------------------------------------------
# Wirtinger finite differences

# 4th-order central first difference: sum_i W_i f(x + O_i h) / (12 h).
_D1_WEIGHTS = (1.0, -8.0, 8.0, -1.0)
_D1_OFFSETS = (-2.0, -1.0, 1.0, 2.0)


def _on_grid(grid_form: Callable) -> Callable:
    """The per-point callable of a whole-grid form: ``grid_form`` maps a
    (points, n) array to one value per row, and the callable's value at a
    point z is the row of the one-row grid z[None, :].  ``_sample`` calls
    ``grid_form`` once on the whole array instead, with the same values bit
    for bit."""

    def at_point(z):
        return grid_form(np.asarray(z, dtype=complex)[None, :])[0]

    at_point._grid_form = grid_form
    return at_point


def _sample(f: Callable, points: np.ndarray, shape: tuple = (), dtype=None) -> np.ndarray:
    """Values of a per-point callable at every row of ``points`` (shape
    (points, n)), stacked into an array of shape (points, *shape).  A
    callable made by ``_on_grid`` is called once on the whole array, any
    other once per row."""
    grid_form = getattr(f, "_grid_form", None)
    values = [f(p) for p in points] if grid_form is None else grid_form(points)
    return np.asarray(values, dtype=dtype).reshape((len(points),) + shape)


def _grid_partials(values: np.ndarray, grid, step: float) -> list:
    """Partials along each real axis (x_1, y_1, ..., x_n, y_n) of values sampled
    at every site of ``grid`` (shape (sites, *shape)), ``step`` apart: the
    derivative of the polynomial through the min(5, s) nearest samples on the
    axis, s = ``grid.points_per_axis`` (Fornberg, Math. Comp. 51, 1988).  That
    is ``_D1_WEIGHTS`` inside, 4th-order one-sided on the two outer layers and
    the quadratic at s = 3; each sum is 0 + w_0 v_0 + ... + w_4 v_4."""
    s = grid.points_per_axis
    m = min(5, s)
    first = np.clip(np.arange(s) - m // 2, 0, s - m)  # each sample's window
    # 12 times the weights are integers, and rounding makes them exact
    w = np.rint([12 * np.linalg.solve(np.vander(np.arange(m) + f - i, increasing=True).T,
                                      np.eye(m)[1]) for i, f in enumerate(first)])
    cube = values.reshape((s,) * 2 * grid.n + values.shape[1:])
    return [sum(w[:, k].reshape((s,) + (1,) * (cube.ndim - a - 1)) * np.take(cube, first + k, a)
                for k in range(m)).reshape(values.shape) / (12 * step) for a in range(2 * grid.n)]


def _fd_real_hessian(f: Callable, z: np.ndarray, h: float) -> np.ndarray:
    """4th-order real Hessian of f: C^n -> R viewed on R^{2n}."""
    n2 = 2 * z.shape[0]
    H = np.empty((n2, n2))
    c1 = np.array(_D1_WEIGHTS) / 12.0
    o1 = np.array(_D1_OFFSETS)
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    o2 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])

    def unit(axis):
        e = np.zeros(z.shape[0], dtype=complex)
        e[axis // 2] = 1.0 if axis % 2 == 0 else 1j
        return e

    for a in range(n2):
        ea = unit(a)
        H[a, a] = sum(ci * f(z + oi * h * ea) for ci, oi in zip(c2, o2)) / h**2
        for b in range(a + 1, n2):
            eb = unit(b)
            val = 0.0
            for ci, oi in zip(c1, o1):
                for cj, oj in zip(c1, o1):
                    val += ci * cj * f(z + oi * h * ea + oj * h * eb)
            H[a, b] = H[b, a] = val / h**2
    return H


def complex_hessian_from_real(H: np.ndarray) -> np.ndarray:
    """d^2/dz_i dzbar_j from the real Hessian on R^{2n} (z_j = x_j + i y_j)."""
    n = H.shape[0] // 2
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            xx = H[2 * i, 2 * j]
            yy = H[2 * i + 1, 2 * j + 1]
            xy = H[2 * i, 2 * j + 1]
            yx = H[2 * i + 1, 2 * j]
            out[i, j] = 0.25 * (xx + yy + 1j * (xy - yx))
    return out


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class Perturbation:
    """Analytic real-valued map C^n -> R with optional exact derivatives.

    ``value`` is mandatory.  ``zbar_gradient`` returns the vector of
    d p / dzbar_j; ``hessian`` the matrix d^2 p / dz_i dzbar_j.  Missing
    derivatives fall back to 4th-order central differences with step
    ``defaults.FD_STEP``.  Each callable takes one point of shape (n,).
    ``assemble_scaled`` calls a user's ``zbar_gradient`` once per grid
    site, or without one ``value`` 8n times per site (the 4 stencil points
    of each of the 2n real axes); the exact gradients of the ready-made
    perturbations below are evaluated once, on the whole grid.
    """

    value: Callable[[np.ndarray], float]
    zbar_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value_at(self, z: np.ndarray) -> float:
        return float(self.value(np.asarray(z, dtype=complex)))

    def zbar_gradient_at(self, z: np.ndarray) -> np.ndarray:
        return self._zbar_gradients(np.asarray(z, dtype=complex)[None, :])[0]

    def _zbar_gradients(self, points: np.ndarray) -> np.ndarray:
        """d p / dzbar_j at every row of ``points`` (shape (points, n)): the
        exact gradient sampled by ``_sample``, else the 4th-order central
        differences of ``value`` along each real axis with step
        ``defaults.FD_STEP``, one stencil over all rows."""
        if self.zbar_gradient is not None:
            return _sample(self.zbar_gradient, points, (points.shape[1],), complex)
        h, d = defaults.FD_STEP, []
        for axis in range(2 * points.shape[1]):
            e = np.zeros(points.shape[1], dtype=complex)
            e[axis // 2] = 1.0 if axis % 2 == 0 else 1j
            d.append(sum(ci * _sample(self.value, points + oi * h * e)
                         for ci, oi in zip(_D1_WEIGHTS, _D1_OFFSETS)) / (12 * h))
        return 0.5 * (np.stack(d[0::2], axis=1) + 1j * np.stack(d[1::2], axis=1))

    def hessian_at(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self.hessian is not None:
            return np.asarray(self.hessian(z), dtype=complex)
        return complex_hessian_from_real(_fd_real_hessian(self.value, z, defaults.FD_STEP))


@dataclass(frozen=True)
class WeightFunction:
    """Local potential: quadratic eigenvalue part plus analytic perturbation.

    ``chart_radius`` declares the analyticity domain |z| < chart_radius.
    """

    n: int
    lam: tuple
    perturbation: Optional[Perturbation] = None
    chart_radius: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "lam", _checked_lam(self.n, self.lam))

    def check_chart(self, z) -> None:
        z = np.asarray(z, dtype=complex)
        if np.linalg.norm(z) >= self.chart_radius:
            raise DomainError(
                f"|z|={np.linalg.norm(z):.3g} outside chart radius {self.chart_radius:.3g}"
            )


def _validated_hermitian(matrix: np.ndarray, tol: float, what: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvariantViolation(f"{what} must be square")
    if not np.all(np.isfinite(matrix)):
        raise DomainError(f"{what} has non-finite entries")
    asym = np.max(np.abs(matrix - matrix.conj().T)) if matrix.size else 0.0
    if asym > tol:
        raise InvariantViolation(f"{what} is not Hermitian: max asymmetry {asym:.3e}")
    out = 0.5 * (matrix + matrix.conj().T)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CurvatureEndomorphism:
    """Hermitian matrix of d^2 phi / dz_i dzbar_j in an orthonormal frame."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _validated_hermitian(self.matrix, defaults.HERMITIAN_ABS_TOL, "curvature matrix")
        if m.shape != (self.n, self.n):
            raise InvariantViolation(f"expected {self.n}x{self.n} matrix")
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @staticmethod
    def diagonal(lambdas) -> "CurvatureEndomorphism":
        lam = np.asarray(lambdas, dtype=float)
        return CurvatureEndomorphism(lam.size, np.diag(lam).astype(complex))


# ---------------------------------------------------------------------------
# Operations


def curvature_at(weight: WeightFunction, point) -> CurvatureEndomorphism:
    """Curvature endomorphism diag(lambda) + perturbation Hessian at a point."""
    z = np.asarray(point, dtype=complex)
    if z.shape != (weight.n,):
        raise ArgumentError(f"point must have shape ({weight.n},)")
    weight.check_chart(z)
    m = np.diag(np.asarray(weight.lam, dtype=complex))
    if weight.perturbation is not None:
        h = weight.perturbation.hessian_at(z)
        if not np.all(np.isfinite(h)):
            raise DomainError("perturbation Hessian has non-finite entries")
        m = m + h
    m = _validated_hermitian(m, defaults.HESSIAN_ASYMMETRY_TOL, "curvature matrix")
    return CurvatureEndomorphism(weight.n, m)


def twist_endomorphism(curv: CurvatureEndomorphism, q: int) -> FiberEndomorphism:
    """Curvature acting on the (0,q) fiber: -sum_ij R_ij e^i wedge iota_j.

    For diagonal curvature diag(lambda) the result is diagonal with entry
    -sum_{j in J} lambda_j on the basis form indexed by J.
    """
    n = curv.n
    if not 0 <= q <= n:
        raise ArgumentError(f"q={q} outside [0, {n}]")
    d = fiber.fiber_dim(n, q)
    out = np.zeros((d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            rij = curv.matrix[i, j]
            if rij != 0:
                out -= rij * fiber.wedge_contract(n, q, i, j)
    return FiberEndomorphism(n, q, out)


def _expm_hermitian(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.exp(w)) @ v.conj().T


def asymptotic_diagonal(curv: CurvatureEndomorphism, q: int, t: float) -> FiberEndomorphism:
    """Limit diagonal: prod_j f(mu_j, t) times exp(t Theta) on the (0,q) fiber."""
    _check_time(t)
    mu = curv.eigenvalues()
    pref = 1.0
    for m in mu:
        pref *= heat_factor(float(m), t)
    theta = twist_endomorphism(curv, q)
    return FiberEndomorphism(curv.n, q, pref * _expm_hermitian(t * theta.matrix))


def morse_index(curv: CurvatureEndomorphism):
    """Count of eigenvalues < -tol, or None when any lies in [-tol, tol]."""
    tol = defaults.DEGENERACY_THRESHOLD
    mu = curv.eigenvalues()
    if np.any(np.abs(mu) <= tol):
        return None
    return int(np.sum(mu < -tol))


@dataclass(frozen=True)
class CurvatureField:
    """Curvature sampled on quadrature cells with their volumes."""

    matrices: tuple
    volumes: np.ndarray

    def __post_init__(self):
        vols = np.asarray(self.volumes, dtype=float)
        if len(self.matrices) == 0:
            raise ArgumentError("empty curvature field")
        if vols.shape != (len(self.matrices),):
            raise ArgumentError("one volume per cell required")
        if np.any(vols <= 0):
            raise ArgumentError("cell volumes must be positive")
        vols.setflags(write=False)
        object.__setattr__(self, "volumes", vols)

    @staticmethod
    def constant(curv: CurvatureEndomorphism, total_volume: float, cells: int = 1) -> "CurvatureField":
        """Constant field split into `cells` equal-volume quadrature cells."""
        if cells < 1 or total_volume <= 0:
            raise ArgumentError("need at least one cell of positive volume")
        vols = np.full(cells, total_volume / cells)
        return CurvatureField(tuple([curv] * cells), vols)


@dataclass(frozen=True)
class MorseBoundResult:
    value: float
    degenerate_volume: float


def morse_index_integrals(field: CurvatureField):
    """Per-index integrals I_j = sum_{index(cell)=j} |det(R/2pi)| vol, plus skipped volume."""
    n = field.matrices[0].n
    integrals = np.zeros(n + 1)
    degenerate = 0.0
    for curv, vol in zip(field.matrices, field.volumes):
        j = morse_index(curv)
        if j is None:
            degenerate += vol
            continue
        density = np.real(np.linalg.det(curv.matrix)) / (2.0 * np.pi) ** n
        integrals[j] += (-1.0) ** j * density * vol
    return integrals, degenerate


def morse_bound(field: CurvatureField, q: int) -> MorseBoundResult:
    """Signed curvature integral over cells of Morse index <= q.

    Each non-degenerate cell of index j <= q contributes
    (-1)^j det(R/2pi) * vol (the density of the top Chern form over n! in an
    orthonormal frame); degenerate cells are skipped and their total volume
    reported.
    """
    n = field.matrices[0].n
    if not 0 <= q <= n:
        raise ArgumentError(f"q={q} outside [0, {n}]")
    integrals, degenerate = morse_index_integrals(field)
    return MorseBoundResult(float(np.sum(integrals[: q + 1])), degenerate)


# ---------------------------------------------------------------------------
# Ready-made perturbations


def cubic_re_perturbation(amplitude: float) -> Perturbation:
    """p(z) = amplitude * Re(z_1^3), with exact derivatives; the zbar
    gradient is a whole-grid form (``_on_grid``)."""

    def value(z):
        return amplitude * float(np.real(z[0] ** 3))

    @_on_grid
    def zbar_grad(z):
        # 1.5 a conj(z_1)^2 in real arithmetic, which rounds as a scalar
        # complex product does (numpy's array product may fuse it)
        x, y = z[:, 0].real, z[:, 0].imag
        g = np.zeros(z.shape, dtype=complex)
        g[:, 0].real = 1.5 * amplitude * (x * x - y * y)
        g[:, 0].imag = 1.5 * amplitude * -(x * y + y * x)
        return g

    def hessian(z):
        return np.zeros((len(z), len(z)), dtype=complex)

    return Perturbation(value, zbar_grad, hessian)


def quartic_abs_perturbation(amplitude: float) -> Perturbation:
    """p(z) = amplitude * |z_1|^4, with exact derivatives; the zbar
    gradient is a whole-grid form (``_on_grid``)."""

    def value(z):
        return amplitude * float(np.abs(z[0]) ** 4)

    @_on_grid
    def zbar_grad(z):
        # 2 a z_1^2 conj(z_1) in real arithmetic, as in cubic_re_perturbation
        x, y = z[:, 0].real, z[:, 0].imag
        c = 2.0 * amplitude
        sr, si = c * (x * x - y * y), c * (x * y + y * x)
        g = np.zeros(z.shape, dtype=complex)
        g[:, 0].real = sr * x + si * y
        g[:, 0].imag = si * x - sr * y
        return g

    def hessian(z):
        h = np.zeros((len(z), len(z)), dtype=complex)
        h[0, 0] = 4.0 * amplitude * np.abs(z[0]) ** 2
        return h

    return Perturbation(value, zbar_grad, hessian)
