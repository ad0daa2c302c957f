"""Finite-difference assembly of the model Laplacian and its scaled version
as Hermitian sparse matrices on a truncated grid in R^{2n}.

Layout: the coefficient vector is fiber-major, i.e. binomial(n,q) blocks of
length ``sites``; the spatial flattening is C-order over the real axes
(x_1, y_1, ..., x_n, y_n).  All first derivatives are centred 2nd-order
differences with Dirichlet truncation, and every operator is assembled
from factor matrices and their conjugate transposes, so Hermiticity is
exact by construction.

The centred first difference has checkerboard null modes; composed as
C^dag C these would produce spurious low-lying spectrum that pollutes heat
kernels by O(1).  Every assembly therefore adds the positive-semidefinite
stabilizer sigma * h^6 * sum_a D4_a^T D4_a (D4 = squared second
difference), which is O(h^6) on smooth fields and lifts the checkerboard
modes to O(1/h^2).  See README, "Discretization".
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from . import defaults, fiber
from .errors import ArgumentError, DomainError, InvariantViolation, ResourceLimitError
from .geometry import WeightFunction, _fd_real_partial
from .model_kernels import ModelSpec

__all__ = [
    "GridSpec",
    "DiscreteOperator",
    "PerturbationSpec",
    "assemble_model",
    "assemble_scaled",
    "gauge_diagonal_identity_check",
    "to_matrix_market",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid on [-r, r]^{2n} centred at the origin.

    The radius is snapped up to the nearest multiple of the spacing so the
    origin is always a grid point (2r/h even).
    """

    n: int
    radius: float
    spacing: float
    boundary: str = "dirichlet"

    def __post_init__(self):
        if self.n < 1:
            raise ArgumentError("dimension must be positive")
        if self.radius <= 0 or self.spacing <= 0:
            raise ArgumentError("radius and spacing must be positive")
        if self.boundary != "dirichlet":
            raise ArgumentError("only Dirichlet truncation is supported")
        if self.sites > defaults.SITE_CAP:
            raise ResourceLimitError(
                f"grid has {self.sites} sites, cap is {defaults.SITE_CAP}"
            )

    @property
    def half_points(self) -> int:
        return int(np.ceil(self.radius / self.spacing - 1e-9))

    @property
    def effective_radius(self) -> float:
        return self.half_points * self.spacing

    @property
    def points_per_axis(self) -> int:
        return 2 * self.half_points + 1

    @property
    def sites(self) -> int:
        return self.points_per_axis ** (2 * self.n)

    def axis_coords(self) -> np.ndarray:
        m = self.half_points
        return (np.arange(2 * m + 1) - m) * self.spacing

    def site_coordinates(self) -> np.ndarray:
        """Complex coordinates of all sites, shape (sites, n)."""
        ax = self.axis_coords()
        mesh = np.meshgrid(*([ax] * (2 * self.n)), indexing="ij")
        flat = [m.ravel() for m in mesh]
        return np.stack(
            [flat[2 * j] + 1j * flat[2 * j + 1] for j in range(self.n)], axis=1
        )

    def origin_site(self) -> tuple:
        return (self.half_points,) * (2 * self.n)

    def flat_index(self, site) -> int:
        site = tuple(site)
        if len(site) != 2 * self.n:
            raise ArgumentError(f"site must have {2 * self.n} indices")
        s = self.points_per_axis
        if any(not 0 <= i < s for i in site):
            raise ArgumentError("site outside grid")
        return int(np.ravel_multi_index(site, (s,) * (2 * self.n)))

    @property
    def lebesgue_cell(self) -> float:
        return self.spacing ** (2 * self.n)

    @property
    def dv_cell(self) -> float:
        """Cell volume of the Hermitian volume element (2^n Lebesgue)."""
        return 2.0 ** self.n * self.lebesgue_cell


@dataclass(eq=False)
class DiscreteOperator:
    """Hermitian sparse operator over grid sites x fiber components."""

    matrix: sp.csr_matrix
    gauge: str
    q: int
    k: int            # 0 denotes the unscaled model operator
    grid: GridSpec
    site_weight: float

    def __post_init__(self):
        a = self.matrix.tocsr()
        scale = np.abs(a).max() if a.nnz else 0.0
        herm = np.abs(a - a.getH()).max() if a.nnz else 0.0
        if scale > 0 and herm > defaults.OPERATOR_HERMITIAN_RTOL * scale:
            raise InvariantViolation(
                f"assembled operator not Hermitian: {herm:.3e} vs scale {scale:.3e}"
            )
        self.matrix = a
        # Spectral caches: dense eigensystem, dense eigenvalues, smallest
        # eigenvalues (ARPACK), and positivity certificates keyed by tolerance.
        self._eig = None
        self._eigvals = None
        self._smallest = None
        self._psd_certificate = {}

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def fiber_dim(self) -> int:
        return fiber.fiber_dim(self.grid.n, self.q)

    @property
    def dv_site_volume(self) -> float:
        return self.grid.dv_cell

    def eigensystem(self):
        """Dense eigendecomposition, cached; guarded by the dense cap."""
        if self._eig is None:
            if self.dim > defaults.DENSE_EIGEN_CAP:
                raise ResourceLimitError(
                    f"dense eigendecomposition of dimension {self.dim} exceeds "
                    f"cap {defaults.DENSE_EIGEN_CAP}"
                )
            w, v = np.linalg.eigh(self.matrix.toarray())
            self._eig = (w, v)
        return self._eig

    def eigenvalues(self):
        """Dense eigenvalues only (cheaper than the full eigensystem), cached."""
        if self._eig is not None:
            return self._eig[0]
        if self._eigvals is None:
            if self.dim > defaults.DENSE_EIGEN_CAP:
                raise ResourceLimitError(
                    f"dense eigenvalues of dimension {self.dim} exceed "
                    f"cap {defaults.DENSE_EIGEN_CAP}"
                )
            self._eigvals = np.linalg.eigvalsh(self.matrix.toarray())
        return self._eigvals


@dataclass(frozen=True)
class PerturbationSpec:
    """Chart-level perturbation data for the scaled operator.

    ``r`` maps a point of C^n to the n x n matrix of frame coefficients
    (must vanish at 0), ``alpha`` to the n-vector of adjoint zero-order
    terms, ``volume_density`` to the positive density m (m(0) = 1).  All
    default to the trivial values.
    """

    r: Optional[Callable[[np.ndarray], np.ndarray]] = None
    alpha: Optional[Callable[[np.ndarray], np.ndarray]] = None
    volume_density: Optional[Callable[[np.ndarray], float]] = None

    def r_at(self, y: np.ndarray, n: int) -> np.ndarray:
        if self.r is None:
            return np.zeros((n, n), dtype=complex)
        return np.asarray(self.r(y), dtype=complex).reshape(n, n)

    def alpha_at(self, y: np.ndarray, n: int) -> np.ndarray:
        if self.alpha is None:
            return np.zeros(n, dtype=complex)
        return np.asarray(self.alpha(y), dtype=complex).reshape(n)

    def m_at(self, y: np.ndarray) -> float:
        if self.volume_density is None:
            return 1.0
        m = float(self.volume_density(y))
        if m <= 0:
            raise DomainError("volume density must be positive")
        return m

    def validate_origin(self, n: int) -> None:
        zero = np.zeros(n, dtype=complex)
        if np.max(np.abs(self.r_at(zero, n))) > 1e-12:
            raise InvariantViolation("frame perturbation r must vanish at 0")
        if abs(self.m_at(zero) - 1.0) > 1e-12:
            raise InvariantViolation("volume density must equal 1 at 0")


TRIVIAL_PERTURBATION = PerturbationSpec()


# ---------------------------------------------------------------------------
# 1D blocks and kron placement


def _d1(s: int, h: float) -> sp.csr_matrix:
    e = np.ones(s - 1)
    return (sp.diags([-e, e], [-1, 1]) / (2.0 * h)).tocsr()


def _d2(s: int, h: float) -> sp.csr_matrix:
    return (
        sp.diags([np.ones(s - 1), -2.0 * np.ones(s), np.ones(s - 1)], [-1, 0, 1]) / h**2
    ).tocsr()


def _place(op1d: sp.spmatrix, axis: int, axes: int, s: int) -> sp.csr_matrix:
    left = s**axis
    right = s ** (axes - axis - 1)
    out = op1d
    if left > 1:
        out = sp.kron(sp.identity(left), out)
    if right > 1:
        out = sp.kron(out, sp.identity(right))
    return out.tocsr()


class _GridOperators:
    """Per-grid cache of placed derivative matrices and coordinate arrays."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        s = grid.points_per_axis
        h = grid.spacing
        axes = 2 * grid.n
        d1, d2 = _d1(s, h), _d2(s, h)
        self.first = [_place(d1, a, axes, s) for a in range(axes)]
        d4 = (d2 @ d2).tocsr()
        self.stab_1d = (d4.T @ d4).tocsr()
        self.stab_axes = [_place(self.stab_1d, a, axes, s) for a in range(axes)]
        self.z = grid.site_coordinates()

    def dzbar(self, j: int) -> sp.csr_matrix:
        return 0.5 * (self.first[2 * j] + 1j * self.first[2 * j + 1])

    def stabilizer(self, coeff: float) -> sp.csr_matrix:
        h = self.grid.spacing
        out = coeff * h**6 * self.stab_axes[0]
        for a in range(1, 2 * self.grid.n):
            out = out + coeff * h**6 * self.stab_axes[a]
        return out.tocsr()

    def model_factor(self, j: int, lam: float) -> sp.csr_matrix:
        """C_j = d/dzbar_j + (lam/2) z_j."""
        return (self.dzbar(j) + sp.diags(0.5 * lam * self.z[:, j])).tocsr()


def _scalar_model_part(ops: _GridOperators, lam, stabilizer: float) -> sp.csr_matrix:
    out = ops.stabilizer(stabilizer)
    for j, lj in enumerate(lam):
        c = ops.model_factor(j, lj)
        out = out + c.getH() @ c
    return out.tocsr()


def assemble_model(spec: ModelSpec, grid: GridSpec,
                   stabilizer: float = defaults.GHOST_STABILIZER) -> DiscreteOperator:
    """Model operator sum_j C_j^dag C_j + Theta_0 (plus the ghost stabilizer)."""
    if spec.n != grid.n:
        raise ArgumentError("model and grid dimensions differ")
    ops = _GridOperators(grid)
    scalar = _scalar_model_part(ops, spec.lam, stabilizer)
    d = fiber.fiber_dim(spec.n, spec.q)
    a = sp.kron(sp.identity(d), scalar)
    theta0 = fiber.twist_eigenvalues(spec.lam, spec.q)
    if np.any(theta0 != 0):
        a = a + sp.kron(sp.diags(theta0), sp.identity(grid.sites))
    return DiscreteOperator(a.tocsr(), "symmetric", spec.q, 0, grid, grid.lebesgue_cell)


# ---------------------------------------------------------------------------
# Scaled operator


def _fd_complex_partial(f: Callable, y: np.ndarray, a: int, h: float, shape) -> np.ndarray:
    """4th-order d/dz_a of a matrix/vector-valued callable at y."""
    c = (1.0, -8.0, 8.0, -1.0)
    o = (-2.0, -1.0, 1.0, 2.0)
    ex = np.zeros(y.shape, dtype=complex)
    ex[a] = 1.0
    ey = np.zeros(y.shape, dtype=complex)
    ey[a] = 1j
    dx = sum(ci * np.asarray(f(y + oi * h * ex), dtype=complex) for ci, oi in zip(c, o)) / (12 * h)
    dy = sum(ci * np.asarray(f(y + oi * h * ey), dtype=complex) for ci, oi in zip(c, o)) / (12 * h)
    return (0.5 * (dx - 1j * dy)).reshape(shape)


def _wedge_term_coefficients(pert: PerturbationSpec, y: np.ndarray, n: int) -> np.ndarray:
    """(0,2)-components w^j_{bc} of dbar of the dual frame, in the scaled frame.

    Returns an array of shape (n, n, n) with entry [j, b, c] (antisymmetric
    in b, c).  Zero when no frame perturbation is present or n = 1.
    """
    w = np.zeros((n, n, n), dtype=complex)
    if pert.r is None or n == 1:
        return w
    mbar = np.conj(np.eye(n) + pert.r_at(y, n))
    p = np.linalg.inv(mbar)
    dn = np.empty((n, n, n), dtype=complex)  # dn[a] = d/dzbar_a of Nbar
    h = defaults.FD_STEP
    for a in range(n):
        dm = np.conj(_fd_complex_partial(lambda u: pert.r_at(u, n), y, a, h, (n, n)))
        dn[a] = -(p @ dm @ p).T
    for j in range(n):
        t = np.einsum("as,ba,cs->bc", dn[:, j, :], mbar, mbar)
        w[j] = t - t.T
    return w


def assemble_scaled(weight: WeightFunction, pert: Optional[PerturbationSpec],
                    k: int, grid: GridSpec, q: int,
                    stabilizer: float = defaults.GHOST_STABILIZER) -> DiscreteOperator:
    """Scaled operator at tensor power k on the fixed grid, symmetric gauge.

    Rows of the scaled dbar are assembled per coefficient sampling at
    y = z / sqrt(k): frame coefficients (delta_js + conj(r_js)(y)) on the
    Wirtinger derivatives, the gauge multiplier from conjugating by
    e^{k phi(y)/2} m(y)^{1/2}, and the (0,2) frame term with its
    1/sqrt(k) prefactor.  The assembled Laplacian is
    D_q^dag D_q + D_{q-1} D_{q-1}^dag plus an exact twist correction making
    the unperturbed case reduce identically to ``assemble_model``.
    """
    n = weight.n
    if n != grid.n:
        raise ArgumentError("weight and grid dimensions differ")
    if not 0 <= q <= n:
        raise ArgumentError(f"q={q} outside [0, {n}]")
    if k < 1:
        raise ArgumentError("k must be a positive integer")
    pert = pert or TRIVIAL_PERTURBATION
    pert.validate_origin(n)
    sqrtk = np.sqrt(float(k))
    corner = grid.effective_radius * np.sqrt(2.0 * n) / sqrtk
    if corner >= weight.chart_radius:
        raise DomainError(
            f"scaled grid reaches |y|={corner:.3g}, outside chart radius "
            f"{weight.chart_radius:.3g}"
        )

    ops = _GridOperators(grid)
    sites = grid.sites
    z = ops.z
    y = z / sqrtk
    lam = np.asarray(weight.lam)

    has_r = pert.r is not None
    has_m = pert.volume_density is not None
    has_p = weight.perturbation is not None

    # Per-site samples.
    rbar = np.zeros((sites, n, n), dtype=complex)
    if has_r:
        for i in range(sites):
            rbar[i] = np.conj(pert.r_at(y[i], n))
    grad_phi = (lam * y).astype(complex)        # d phi0 / dzbar at y
    if has_p:
        for i in range(sites):
            grad_phi[i] += weight.perturbation.zbar_gradient_at(y[i])
    grad_logm = np.zeros((sites, n), dtype=complex)
    if has_m:
        logm = lambda u: np.log(pert.m_at(u))
        for i in range(sites):
            for j in range(n):
                gx = _fd_real_partial(logm, y[i], 2 * j, defaults.FD_STEP)
                gy = _fd_real_partial(logm, y[i], 2 * j + 1, defaults.FD_STEP)
                grad_logm[i, j] = 0.5 * (gx + 1j * gy)

    # Row operators B_j = sum_s (delta_js + rbar_js) d/dzbar_s + g_j.
    rows = []
    for j in range(n):
        b = ops.dzbar(j)
        g = 0.5 * lam[j] * z[:, j].astype(complex)       # exact model part
        if has_p:
            g = g + 0.5 * sqrtk * (grad_phi[:, j] - lam[j] * y[:, j])
        if has_m:
            g = g - 0.5 / sqrtk * grad_logm[:, j]
        if has_r:
            for s in range(n):
                coef = rbar[:, j, s]
                if np.any(coef != 0):
                    b = b + sp.diags(coef) @ ops.dzbar(s)
                    g = g + 0.5 * sqrtk * coef * grad_phi[:, s]
                    if has_m:
                        g = g - 0.5 / sqrtk * coef * grad_logm[:, s]
        rows.append((b + sp.diags(g)).tocsr())

    def dbar_matrix(degree: int) -> Optional[sp.csr_matrix]:
        if degree < 0 or degree >= n + 1:
            return None
        dq, dq1 = fiber.fiber_dim(n, degree), fiber.fiber_dim(n, degree + 1)
        if dq1 == 0:
            return None
        out = sp.csr_matrix((dq1 * sites, dq * sites), dtype=complex)
        for j in range(n):
            out = out + sp.kron(fiber.wedge_matrix(n, degree, j), rows[j])
        if has_r and n > 1 and degree >= 1:
            wcoef = np.zeros((sites, n, n, n), dtype=complex)
            for i in range(sites):
                wcoef[i] = _wedge_term_coefficients(pert, y[i], n)
            blocks = {}
            for j in range(n):
                for b in range(n):
                    for c in range(b + 1, n):
                        vals = wcoef[:, j, b, c]
                        if not np.any(vals != 0):
                            continue
                        f = (
                            fiber.wedge_matrix(n, degree, b)
                            @ fiber.wedge_matrix(n, degree - 1, c)
                            @ fiber.contract_matrix(n, degree, j)
                        )
                        for (rr, cc), fv in np.ndenumerate(f):
                            if fv != 0:
                                key = (rr, cc)
                                blocks[key] = blocks.get(key, 0) + fv * vals
            if blocks:
                add = sp.lil_matrix(out.shape, dtype=complex)
                for (rr, cc), vals in blocks.items():
                    idx = np.arange(sites)
                    add[rr * sites + idx, cc * sites + idx] = vals / sqrtk
                out = out + add.tocsr()
        return out.tocsr()

    d_q = dbar_matrix(q)
    d_qm1 = dbar_matrix(q - 1)
    dq = fiber.fiber_dim(n, q)
    a = sp.csr_matrix((dq * sites, dq * sites), dtype=complex)
    if d_q is not None:
        a = a + d_q.getH() @ d_q
    if d_qm1 is not None:
        a = a + d_qm1 @ d_qm1.getH()

    # Exact twist correction: replace the discrete factor commutators by the
    # continuum eigenvalues so the unperturbed case reduces to assemble_model.
    for j in range(n):
        pi_j = np.real(np.diag(fiber.projection_contains(n, q, j)))
        if not np.any(pi_j != 0):
            continue
        c0 = ops.model_factor(j, lam[j])
        comm = (c0 @ c0.getH() - c0.getH() @ c0).tocsr()
        delta = (lam[j] * sp.identity(sites) - comm).tocsr()
        a = a + sp.kron(sp.diags(pi_j), delta)

    # Stabilizer on every fiber component.
    a = a + sp.kron(sp.identity(dq), ops.stabilizer(stabilizer))

    # Optional adjoint zero-order terms (Hermitian part; see README).
    if pert.alpha is not None:
        alpha = np.empty((sites, n), dtype=complex)
        for i in range(sites):
            alpha[i] = pert.alpha_at(y[i], n)
        x = sp.csr_matrix((dq * sites, dq * sites), dtype=complex)
        if d_q is not None:
            aop = sp.csr_matrix((dq * sites, fiber.fiber_dim(n, q + 1) * sites), dtype=complex)
            for j in range(n):
                aop = aop + sp.kron(
                    fiber.contract_matrix(n, q + 1, j), sp.diags(alpha[:, j] / sqrtk)
                )
            x = x + aop @ d_q
        if d_qm1 is not None:
            aop = sp.csr_matrix(
                (fiber.fiber_dim(n, q - 1) * sites, dq * sites), dtype=complex
            )
            for j in range(n):
                aop = aop + sp.kron(
                    fiber.contract_matrix(n, q, j), sp.diags(alpha[:, j] / sqrtk)
                )
            x = x + d_qm1 @ aop
        a = a + 0.5 * (x + x.getH())

    return DiscreteOperator(a.tocsr(), "symmetric", q, k, grid, grid.lebesgue_cell)


def gauge_diagonal_identity_check(weight: WeightFunction, k: int, grid: GridSpec,
                                  site, pert: Optional[PerturbationSpec] = None,
                                  q: int = 0, t: float = 1.0,
                                  tol: float = 1e-10) -> bool:
    """Check that the kernel diagonal agrees between the symmetric and
    weighted gauges at a site (the conjugation factors cancel pointwise)."""
    from . import semigroup

    op = assemble_scaled(weight, pert, k, grid, q)
    method = semigroup.SemigroupMethod.auto(op.dim)
    diag_sym = semigroup.kernel_diagonal(op, site, t, method).matrix
    y = np.asarray(
        [grid.axis_coords()[site[2 * j]] + 1j * grid.axis_coords()[site[2 * j + 1]]
         for j in range(grid.n)]
    ) / np.sqrt(float(k))
    pert = pert or TRIVIAL_PERTURBATION
    g = np.exp(0.5 * k * weight.value(y)) * np.sqrt(pert.m_at(y))
    diag_weighted = (g * diag_sym) * (1.0 / g)
    scale = max(np.max(np.abs(diag_sym)), 1e-300)
    return bool(np.max(np.abs(diag_weighted - diag_sym)) <= tol * scale)


def to_matrix_market(op: DiscreteOperator, path) -> None:
    """Export in Matrix Market coordinate format (complex general)."""
    mmwrite(str(path), op.matrix.tocoo(), field="complex", symmetry="general")
