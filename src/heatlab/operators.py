"""Finite-difference assembly of the model Laplacian and its scaled version
as Hermitian sparse matrices on a truncated grid in R^{2n}.

Layout: the coefficient vector is fiber-major, i.e. binomial(n,q) blocks of
length ``sites``; the spatial flattening is C-order over the real axes
(x_1, y_1, ..., x_n, y_n).  All first derivatives are centred 2nd-order
differences with Dirichlet truncation, and every operator is assembled
from factor matrices and their conjugate transposes, so Hermiticity is
exact by construction.  The scaled operator is A = G^dag G + F: G stacks
D_q on D_{q-1}^dag in CSR, so one CSR product gives both Gram parts, and
F, the twist correction plus the stabilizer, does not depend on k.
``_scaled`` builds the parts that k does not change once, as locals of the
``assemble(k)`` it returns: the grid's operators, the stencil of the row
operators (index arithmetic; the model factors C_j and the twist
correction's 5-point blocks, in closed form, are values on it), F and the
floor's terms of it.  Nothing outlives that function.  G and G^dag
are built from one COO triplet list: the values of each block of G on the
stencil (``_gram``).  Their rows come out sorted; the Gram product is
sorted once, before F is added, and nothing else is sorted.  No assembly
converts a matrix to CSC.

The centred first difference has checkerboard null modes; composed as
C^dag C these would produce spurious low-lying spectrum that pollutes heat
kernels by O(1).  Every assembly therefore adds the positive-semidefinite
stabilizer sigma * h^6 * sum_a D4_a^T D4_a (D4 = squared second
difference), which is O(h^6) on smooth fields and lifts the checkerboard
modes to O(1/h^2).  See README, "Discretization".
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import defaults, fiber
from .errors import ArgumentError, DomainError, InvariantViolation, ResourceLimitError
from .geometry import WeightFunction, _grid_partials, _sample
from .model_kernels import ModelSpec

__all__ = [
    "GridSpec",
    "DiscreteOperator",
    "PerturbationSpec",
    "assemble_model",
    "assemble_scaled",
    "to_matrix_market",
]

# Unit roundoff of float64.
_ROUNDOFF = 2.0 ** -53
# The positivity tolerance of DiscreteOperator._positive.
_PSD_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid on [-r, r]^{2n} centred at the origin.

    The radius is snapped up to the nearest multiple of the spacing so the
    origin is always a grid point (2r/h even).
    """

    n: int
    radius: float
    spacing: float

    def __post_init__(self):
        if self.n < 1:
            raise ArgumentError("dimension must be positive")
        if not (0 < self.radius < np.inf and 0 < self.spacing < np.inf):
            raise ArgumentError("radius and spacing must be finite and positive")
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


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Hermitian sparse operator over grid sites x fiber components: an
    immutable value that memoizes its spectral facts in ``_memo`` when first
    asked for (``eigensystem``, ``eigenvalues``, ``_positive``).

    ``_floor``, a proven lower bound on the spectrum, is handed over only by
    assemble_model and assemble_scaled (see ``_floor``).  Their operators
    are Hermitian by construction and skip the Hermiticity scan; their CSR
    arrays are read-only, so a floor never outlives its matrix.
    """

    matrix: sp.csr_matrix
    q: int
    k: int            # 0 denotes the unscaled model operator
    grid: GridSpec
    _floor: Optional[float] = field(default=None, kw_only=True, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        a = self.matrix.tocsr()
        if self._floor is None:
            scale = np.abs(a.copy()).max() if a.nnz else 0.0  # abs sorts in place
            herm = np.abs(a - a.getH()).max() if a.nnz else 0.0
            if scale > 0 and herm > defaults.OPERATOR_HERMITIAN_RTOL * scale:
                raise InvariantViolation(f"assembled operator not Hermitian: {herm:.3e} "
                                         f"vs scale {scale:.3e}")
        else:
            a.sum_duplicates()  # canonical: scipy sorts other matrices in place
            for part in (a.data, a.indices, a.indptr):
                part.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def fiber_dim(self) -> int:
        return fiber.fiber_dim(self.grid.n, self.q)

    def _dense(self) -> np.ndarray:
        """The matrix as a dense array, guarded by the dense cap."""
        if self.dim > defaults.DENSE_EIGEN_CAP:
            raise ResourceLimitError(
                f"dense eigensolve of dimension {self.dim} exceeds cap {defaults.DENSE_EIGEN_CAP}"
            )
        return self.matrix.toarray()

    def eigensystem(self):
        """Dense eigendecomposition (w, v), memoized."""
        if "eig" not in self._memo:
            self._memo["eig"] = tuple(np.linalg.eigh(self._dense()))
        return self._memo["eig"]

    def eigenvalues(self):
        """Dense eigenvalues only (cheaper than the full eigensystem), memoized."""
        if "eig" in self._memo:
            return self._memo["eig"][0]
        if "eigvals" not in self._memo:
            self._memo["eigvals"] = np.linalg.eigvalsh(self._dense())
        return self._memo["eigvals"]

    def _positive(self) -> bool:
        """Whether the smallest eigenvalue exceeds -_PSD_TOL: a floor above
        -_PSD_TOL decides it, else a memoized banded Cholesky verdict that no
        memoized eigensystem enters.

        By Sylvester's law of inertia, ``A + _PSD_TOL*I`` has a Cholesky factor
        exactly when it is positive definite.  It is factorised banded in the
        natural grid order (Golub & Van Loan, Matrix Computations, 4.3), in
        place, from LAPACK's lower layout (``ab[d, j] = A[j+d, j]``) in
        Fortran order.  A band larger than ``defaults.BAND_CHOLESKY_MAX_BYTES``
        raises ``ResourceLimitError``.
        """
        if self._floor is not None and self._floor > -_PSD_TOL:
            return True
        if "psd" not in self._memo:
            import scipy.linalg as sla

            low = sp.tril(self.matrix, format="coo")
            low.sum_duplicates()
            offset = low.row - low.col
            bands = int(offset.max(initial=0)) + 1
            nbytes = 16 * bands * self.dim
            if nbytes > defaults.BAND_CHOLESKY_MAX_BYTES:
                raise ResourceLimitError(
                    f"positivity band of {nbytes} bytes ({bands} x {self.dim}) exceeds "
                    f"cap {defaults.BAND_CHOLESKY_MAX_BYTES}"
                )
            ab = np.zeros((bands, self.dim), dtype=complex, order="F")
            ab[offset, low.col] = low.data
            ab[0] += _PSD_TOL
            try:
                sla.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
                self._memo["psd"] = True
            except np.linalg.LinAlgError:
                self._memo["psd"] = False
        return self._memo["psd"]


@dataclass(frozen=True)
class PerturbationSpec:
    """Chart-level perturbation data for the scaled operator.

    ``r`` maps a point of C^n to the n x n matrix of frame coefficients
    (must vanish at 0), ``alpha`` to the n-vector of adjoint zero-order
    terms, ``volume_density`` to the positive density m (m(0) = 1).  All
    default to the trivial values.  Each takes one point of shape (n,).
    ``assemble_scaled`` calls each once per grid site, and ``r`` and
    ``volume_density`` once more at 0 (``validate_origin``, which
    ``converge_in_k`` runs once for all its k); the partials of ``r`` and
    ``log m`` are taken on these samples.  A sample that is not finite
    raises DomainError.  The CLI's ``linear_r11`` frame is evaluated once,
    on the whole grid.
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
        if not 0 < m < np.inf:
            raise DomainError("volume density must be positive and finite")
        return m

    def validate_origin(self, n: int) -> None:
        zero = np.zeros(n, dtype=complex)
        if np.max(np.abs(self.r_at(zero, n))) > 1e-12:
            raise InvariantViolation("frame perturbation r must vanish at 0")
        if abs(self.m_at(zero) - 1.0) > 1e-12:
            raise InvariantViolation("volume density must equal 1 at 0")


# ---------------------------------------------------------------------------
# Grid operators


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
    """The parts of one grid that no coefficient changes: its site
    coordinates, the squared second difference D4 and the stabilizer, the
    stencil of the row operators, the model factors C_j on it and the
    stabilizer terms of ``_floor``."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        s, h, axes = grid.points_per_axis, grid.spacing, 2 * grid.n
        e = np.ones(s)
        d2 = (sp.diags([e[1:], -2.0 * e, e[1:]], [-1, 0, 1]) / h**2).tocsr()
        self.d4 = (d2 @ d2).tocsr()
        # The ghost stabilizer sigma * h^6 * sum_a D4_a^T D4_a.
        unit = (defaults.GHOST_STABILIZER * h**6 * (self.d4.T @ self.d4)).tocsr()
        self.stabilizer = sum(_place(unit, a, axes, s) for a in range(axes)).tocsr()
        self.z = grid.site_coordinates()

    def stencil(self, coords: tuple) -> tuple:
        """The pattern of I + sum_{c in coords} d/dzbar_c as site triplets
        sorted by row and column: (rows, cols, the coordinate c of each entry
        (-1 on the diagonal), its d/dzbar_c value (0 on the diagonal), the
        positions of the diagonal), all read-only."""
        s, axes = self.grid.points_per_axis, 2 * self.grid.n
        quarter = 0.25 / self.grid.spacing  # d/dzbar = (d/dx + i d/dy) / 2, centred
        # (offset, coordinate, value) of each entry in increasing offset: a
        # step along real axis a is s^(axes - 1 - a) sites, and x_c, y_c are
        # the axes 2c, 2c + 1
        entries = [(0, -1, 0j)]
        for c in coords:
            for sign in (-1, 1):
                entries += [(sign * s ** (axes - 1 - 2 * c), c, complex(sign * quarter, 0.0)),
                            (sign * s ** (axes - 2 - 2 * c), c, complex(0.0, sign * quarter))]
        entries.sort(key=lambda entry: entry[0])
        site = np.arange(self.grid.sites)
        # a neighbour off the grid is dropped (Dirichlet truncation)
        inside = np.stack([site // abs(offset) % s != (s - 1 if offset > 0 else 0) if offset
                           else np.full(site.size, True) for offset, _, _ in entries], axis=1)
        rows, entry = np.nonzero(inside)
        offset, coord, value = (np.array(part)[entry] for part in zip(*entries))
        out = (rows.astype(np.int32), (rows + offset).astype(np.int32), coord.astype(np.int8),
               value, np.flatnonzero(coord < 0))
        for part in out:  # shared by every k
            part.flags.writeable = False
        return out

    def factor(self, j: int, lam: float) -> tuple:
        """C_j = d/dzbar_j + (lam/2) z_j as site triplets (rows, cols,
        values) sorted by row and column."""
        rows, cols, _, value, diag = self.stencil((j,))
        value = value.copy()
        value[diag] = 0.5 * lam * self.z[:, j]
        return rows, cols, value

    def probe(self, dim: int) -> tuple:
        """The stabilizer terms of ``_floor`` at dimension dim: its
        Rademacher probe x, (I (x) S) x, the row bound sigma h^6
        sum_a |D4_a|^T |D4_a| 1 on each fiber block, the longest row of S
        and the longest inner product of D4^T D4."""
        s, axes = self.grid.points_per_axis, 2 * self.grid.n
        d4 = abs(self.d4)
        w = d4.T @ (d4 @ np.ones(s))  # |D4|^T |D4| 1 along one axis
        rows = sum(w.reshape([s if b == ax else 1 for b in range(axes)]) for ax in range(axes))
        x = np.random.default_rng(0).choice([-1.0, 1.0], size=dim)
        return (x, _per_block(self.stabilizer, x),
                np.tile(defaults.GHOST_STABILIZER * self.grid.spacing**6 * rows.ravel(),
                        dim // self.grid.sites),
                int(np.diff(self.stabilizer.indptr).max(initial=0)), _inner_length(d4))


def _twist(ops: _GridOperators, lam, q: int) -> tuple:
    """The exact twist correction R = sum_j pi_j (x) delta_j at degree q,
    delta_j = lam_j I - [C_j, C_j^H], and F = R + S, S the stabilizer on
    each fiber component.

    On the grid [C_j, C_j^H] = lam_j (A_x + A_y) / 2, A_a the Dirichlet
    neighbour average along the axes x_j, y_j of plane j, so delta_j is
    the 5-point stencil of ``stencil((j,))``: lam_j on the diagonal and
    -lam_j / 4 on the four neighbours."""
    n, sites, d = ops.grid.n, ops.grid.sites, fiber.fiber_dim(ops.grid.n, q)
    rest = sp.csr_matrix((d * sites, d * sites))
    for j in range(n):
        pi_j = np.real(np.diag(fiber.projection_contains(n, q, j)))
        if np.any(pi_j != 0):
            rows, cols, _, _, diag = ops.stencil((j,))
            value = np.full(rows.size, -0.25 * lam[j], dtype=complex)
            value[diag] = lam[j]
            delta = sp.csr_matrix((value, (rows, cols)), shape=(sites, sites))
            rest = rest + sp.kron(sp.diags(pi_j), delta).tocsr()
    return rest, rest + sp.kron(sp.identity(d), ops.stabilizer).tocsr()


def _gershgorin(m) -> tuple:
    """The Gershgorin ends min_i (m_ii - sum_{j != i} |m_ij|) and
    max_i (m_ii + sum_{j != i} |m_ij|) of a Hermitian CSR matrix, its
    absolute row sums |m| 1, and the largest number of terms in one."""
    diag = m.diagonal().real
    rows = np.asarray(abs(m).sum(axis=1)).ravel()
    radius = rows - np.abs(diag)
    count = int(np.diff(m.indptr).max(initial=0))
    return float(np.min(diag - radius)), float(np.max(diag + radius)), rows, count


def _remainder(rest, x) -> tuple:
    """The remainder terms of ``_floor``: ``_gershgorin(rest)`` and rest @ x."""
    return _gershgorin(rest) + (rest @ x,)


def _inner_length(g) -> int:
    """The longest inner product in an entry of G^H G: the largest number of
    stored entries in a column of the CSR matrix G."""
    return int(np.bincount(g.indices, minlength=g.shape[1]).max(initial=0))


def _per_block(m, x) -> np.ndarray:
    """(I (x) m) x: m acting alike on each block of x of its column length."""
    return (m @ x.reshape(-1, m.shape[1]).T).T.ravel()


def _floor(probe: tuple, remainder: tuple, a, g, sums: int, n: int) -> float:
    """A lower bound on the spectrum of the stored a = fl(A), A = G^H G + S
    + R on a grid in C^n, added up in ``sums`` roundings from the product
    of the stored Gram factor G, the stabilizer S and a stored Hermitian
    remainder R (a G or S narrower than a acts on each fiber block).
    ``probe`` holds the terms of S (``_GridOperators.probe``), and
    ``remainder`` those of R (``_remainder``).

    lambda_min(A) is at least the Gershgorin lower end of R (Weyl), and
    |fl(A) - A| <= gamma_m B entrywise, B = |G|^H |G| + |R| + sigma h^6
    sum_a |D4_a|^T |D4_a| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1 and 3.5), gamma_m = m u / (1 - m u) for the m
    roundings of an entry: the longest inner product of a Gram product (the
    most stored entries in a column of G or of D4; the blocks of a stacked
    G sum their products inside that inner product), 3 for a complex
    product (Higham Lemma 3.5), 1 + 2n for the stabilizer's scaling and
    axis sums, the ``sums``, and the row count of R for its Gershgorin
    sums.  So the floor is that end less gamma_m ||B||_inf =
    gamma_m max_i (B 1)_i.

    A fixed-seed Rademacher probe x checks that a holds these pieces
    (Freivalds, 1979): fl(A) and the stored S and R lie within gamma_m B of
    their exact sums, and as |x| = 1 the products a x, G x, G^H (G x), S x,
    R x and their sum round by at most 8 gamma_{c+3} B 1, c being their
    longest inner product.  An entry of a x - (G^H (G x) + S x + R x)
    above gamma_p (B 1)_i, p = 3 m + 8 (c + 3), raises InvariantViolation.
    """
    x, stab_x, stab_bound, stab_count, d4_inner = probe
    lower, _, bound, count, rest_x = remainder
    g_abs = abs(g)
    bound = bound + stab_bound
    bound += np.tile(g_abs.T @ (g_abs @ np.ones(g.shape[1])), a.shape[0] // g.shape[1])
    inner = max(d4_inner, _inner_length(g))
    m = inner + 3 + 1 + 2 * n + sums + count
    residual = np.abs(a @ x - stab_x - rest_x - _per_block(g.getH(), _per_block(g, x)))
    c = max([inner, stab_count, count] + [int(np.diff(f.indptr).max(initial=0)) for f in (a, g)])
    p = 3 * m + 8 * (c + 3)
    if np.any(residual > p * _ROUNDOFF / (1.0 - p * _ROUNDOFF) * bound):
        raise InvariantViolation(f"assembled matrix differs from its pieces by up to "
                                 f"{residual.max():.3e} on a probe")
    return lower - m * _ROUNDOFF / (1.0 - m * _ROUNDOFF) * float(bound.max())


def _gram(sites: int, blocks: dict, shape: tuple, fixed) -> tuple:
    """A Gram factor G in CSR and G^H G + fixed, G and G^H both from one COO
    triplet list.

    ``blocks`` maps the (row, column) of each nonzero sites x sites block of
    G to its site triplets (rows, cols, values), sorted by row and column or
    by column and row; so the rows of G and of G^H come out sorted, with no
    sort.  Exact zeros are dropped, as sparse sums and products drop them.
    The product is sorted once, so that adding ``fixed`` merges two sorted
    matrices and the sum needs no sort of its own.
    """
    keys = sorted(blocks)
    rows = np.concatenate([blocks[b][0] + int(b[0]) * sites for b in keys])
    cols = np.concatenate([blocks[b][1] + int(b[1]) * sites for b in keys])
    data = np.concatenate([blocks[b][2] for b in keys])
    # The blocks (whose only reference the callers hand over), the triplets
    # and G^H are released before the product and the sum, which set the
    # peak of an assembly's memory.
    del blocks
    g = sp.csr_matrix((data, (rows, cols)), shape=shape)
    gh = sp.csr_matrix((np.conj(data), (cols, rows)), shape=shape[::-1])
    del rows, cols, data
    g.eliminate_zeros()
    gh.eliminate_zeros()
    gram = gh @ g
    del gh
    gram.sort_indices()
    return g, gram + fixed


def assemble_model(spec: ModelSpec, grid: GridSpec) -> DiscreteOperator:
    """Model operator sum_j C_j^dag C_j + Theta_0 (plus the ghost stabilizer).

    G stacks the C_j of ``_GridOperators.factor``, so one product G^dag G
    gives their sum.  The spectral floor is min Theta_0 less the rounding
    allowance of ``_floor``, with G and the stabilizer as Gram parts.
    """
    if spec.n != grid.n:
        raise ArgumentError("model and grid dimensions differ")
    ops = _GridOperators(grid)
    stacked, scalar = _gram(grid.sites, {(j, 0): ops.factor(j, spec.lam[j]) for j in range(grid.n)},
                            (grid.n * grid.sites, grid.sites), ops.stabilizer)
    theta0 = fiber.twist_eigenvalues(spec.lam, spec.q)
    a = sp.kron(sp.identity(theta0.size), scalar) if theta0.size > 1 else scalar
    # Theta_0 (x) I with every diagonal entry stored: one term per row
    theta = np.repeat(theta0, grid.sites)
    twist = sp.csr_matrix((theta, np.arange(theta.size), np.arange(theta.size + 1)))
    a = (a + twist if np.any(theta0 != 0) else a).tocsr()
    probe = ops.probe(theta.size)
    # the sums are those of the stabilizer and of Theta_0
    return DiscreteOperator(a, spec.q, 0, grid, _floor=_floor(
        probe, _remainder(twist, probe[0]), a, stacked, 2, grid.n))


# ---------------------------------------------------------------------------
# Scaled operator


def _wedge_term_coefficients(r: np.ndarray, dr: list) -> np.ndarray:
    """(0,2)-components w^j_{bc} of dbar of the dual frame, in the scaled frame.

    ``r`` holds the frame samples (points, n, n) and ``dr`` their real-axis
    partials (``_grid_partials``).  Returns an array of shape
    (n, n, n, points) with entry [j, b, c, i] (antisymmetric in b, c).
    Every product sums over its inner index in order, point by point.
    """
    n = r.shape[1]

    def mul(x, y):  # x y of two (n, n, points) matrix fields
        return sum(x[:, u, None] * y[None, u] for u in range(n))

    def last(x):  # a (points, n, n) field as a contiguous (n, n, points) one
        return np.ascontiguousarray(np.moveaxis(x, 0, -1))

    mbar = np.conj(np.eye(n) + r)
    p = last(np.linalg.inv(mbar))
    mbar = last(mbar)
    # dn[a][j, s] = d/dzbar_a of Nbar, -(P dM_a P)^T
    dn = [-mul(mul(p, last(np.conj(0.5 * (dr[2 * a] - 1j * dr[2 * a + 1])))), p).swapaxes(0, 1)
          for a in range(n)]
    # t[j][b, c] = sum_a mbar[b, a] sum_s dn[a][j, s] mbar[c, s]
    u = [mul(d, mbar.swapaxes(0, 1)) for d in dn]
    t = sum(mbar[None, :, a, None] * u[a][:, None] for a in range(n))
    return t - t.swapaxes(1, 2)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, if every one is finite; else DomainError naming ``what``."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} is not finite at every site of the scaled grid")
    return values


def _scaled(weight: WeightFunction, pert: Optional[PerturbationSpec], grid: GridSpec,
            q: int) -> Callable[[int], DiscreteOperator]:
    """``assemble(k)``, the ``assemble_scaled`` operator at each k.  The
    checks of n, q and the origin, and the parts that k does not change
    (stencils, R, F = R + S, the floor's terms of S and, without alpha, of
    R) are built once, here; ``assemble(k)`` builds the rest."""
    n = weight.n
    if n != grid.n:
        raise ArgumentError("weight and grid dimensions differ")
    if not 0 <= q <= n:
        raise ArgumentError(f"q={q} outside [0, {n}]")
    pert = pert or PerturbationSpec()
    pert.validate_origin(n)
    has_r = pert.r is not None
    perturbation = weight.perturbation
    # The value-only weight gradient samples up to 2 FD_STEP past a site.
    value_only = perturbation is not None and perturbation.zbar_gradient is None
    ops = _GridOperators(grid)
    z, lam, sites = ops.z, np.asarray(weight.lam), grid.sites
    # row j's stencil: that of every coordinate, of coordinate j without r
    stencils = ([ops.stencil(tuple(range(n)))] * n if has_r
                else [ops.stencil((j,)) for j in range(n)])
    # D_q is absent at q = n, D_{q-1} at q = 0.  G stacks D_q on D_{q-1}^dag,
    # so G^dag G = D_q^dag D_q + D_{q-1} D_{q-1}^dag is one CSR product.
    above = fiber.fiber_dim(n, q + 1) if q < n else 0
    below = fiber.fiber_dim(n, q - 1) if q >= 1 else 0
    shape = ((above + below) * sites, fiber.fiber_dim(n, q) * sites)
    # The exact twist correction R (the continuum eigenvalues in place of the
    # discrete factor commutators, so the unperturbed case reduces to
    # assemble_model) and F = R + S with the stabilizer.
    twist, fixed = _twist(ops, lam, q)
    probe = ops.probe(shape[1])
    # Without alpha R is the twist, so its terms in the floor are k-invariant.
    twist_terms = _remainder(twist, probe[0]) if pert.alpha is None else None

    def assemble(k: int) -> DiscreteOperator:
        if k < 1:
            raise ArgumentError("k must be a positive integer")
        sqrtk = np.sqrt(float(k))
        reach = (grid.effective_radius * np.sqrt(2.0 * n) / sqrtk
                 + 2 * defaults.FD_STEP * value_only)
        if reach >= weight.chart_radius:
            raise DomainError(f"scaled grid and its stencils reach |y|={reach:.3g}, outside "
                              f"chart radius {weight.chart_radius:.3g}")
        y = z / sqrtk

        # Every coefficient is sampled once per assembly, a user callable once
        # per point and a whole-grid form once (``_sample``); the partials of r
        # and log m come from these samples (``_grid_partials``).
        if has_r:
            r = _finite(_sample(pert.r, y, (n, n), complex), "frame r")
            rbar = np.conj(r)
        grad_phi = (lam * y).astype(complex)        # d phi0 / dzbar at y
        if perturbation is not None:
            grad_phi = grad_phi + _finite(perturbation._zbar_gradients(y), "weight gradient")
        step = grid.spacing / sqrtk  # between neighbouring sites y
        grad_logm = np.zeros((sites, n), dtype=complex)
        if pert.volume_density is not None:
            d = _grid_partials(np.log(_sample(pert.m_at, y)), grid, step)
            grad_logm = np.stack([0.5 * (d[2 * j] + 1j * d[2 * j + 1]) for j in range(n)], axis=1)
        if pert.alpha is not None:
            alpha = _finite(_sample(lambda u: pert.alpha_at(u, n), y, (n,)), "alpha")
        wcoef = None
        if has_r and n > 1 and q >= 1:
            wcoef = _wedge_term_coefficients(r, _grid_partials(r, grid, step))

        def row(j: int) -> tuple:
            """B_j = sum_s (delta_js + rbar_js) d/dzbar_s + g_j on its stencil."""
            # the exact model part, then the weight and density perturbations
            g = (0.5 * lam[j] * z[:, j] + 0.5 * sqrtk * (grad_phi[:, j] - lam[j] * y[:, j])
                 - 0.5 / sqrtk * grad_logm[:, j])
            site_rows, _, coord, value, diag = stencils[j]
            b = np.where(coord == j, value, 0)
            if has_r:
                b = b + rbar[site_rows, j, coord] * value
                for s in range(n):
                    coef = rbar[:, j, s]
                    if np.any(coef != 0):
                        g = (g + 0.5 * sqrtk * coef * grad_phi[:, s]
                             - 0.5 / sqrtk * coef * grad_logm[:, s])
            b[diag] = g
            return stencils[j], b

        def dbar_blocks(degree: int, rows: list) -> dict:
            """The nonzero sites x sites blocks (rows, cols, values, diagonal)
            of the scaled dbar from (0,degree) to (0,degree+1) forms."""
            blocks = {}
            for j, ((site_rows, site_cols, _, _, diag), b) in enumerate(rows):
                wedge = fiber.wedge_matrix(n, degree, j)
                for key in zip(*np.nonzero(wedge)):
                    blocks[key] = site_rows, site_cols, wedge[key] * b, diag
            if wcoef is None or degree < 1:
                return blocks
            # The (0,2) frame term: wedge_b wedge_c iota_j (x) w^j_bc on the
            # site diagonal, divided by sqrt(k) after the sum over (j, b, c).
            frame = {}
            for j in range(n):
                for b in range(n):
                    for c in range(b + 1, n):
                        if not np.any(wcoef[j, b, c] != 0):
                            continue
                        f = (fiber.wedge_matrix(n, degree, b)
                             @ fiber.wedge_matrix(n, degree - 1, c)
                             @ fiber.contract_matrix(n, degree, j))
                        for key in zip(*np.nonzero(f)):
                            term = f[key] * wcoef[j, b, c]
                            frame[key] = frame[key] + term if key in frame else term
            every = np.arange(sites, dtype=np.int32)
            for key, term in frame.items():
                term = term * (1 / sqrtk)
                if key in blocks:
                    blocks[key][2][blocks[key][3]] += term
                else:
                    blocks[key] = every, every, term, every
            return blocks

        def factor_blocks() -> dict:
            rows = [row(j) for j in range(n)]
            blocks = {}
            if q < n:
                blocks.update({key: part[:3] for key, part in dbar_blocks(q, rows).items()})
            if q >= 1:
                blocks.update({(above + key[1], key[0]): (site_cols, site_rows, np.conj(v))
                               for key, (site_rows, site_cols, v, _)
                               in dbar_blocks(q - 1, rows).items()})
            return blocks

        stacked, a = _gram(sites, factor_blocks(), shape, fixed)
        terms = twist_terms
        # Optional adjoint zero-order terms (Hermitian part; see README): the
        # contractions iota_j alpha_j / sqrt(k) into and out of degree q.
        if pert.alpha is not None:
            def contraction(degree: int) -> sp.csr_matrix:
                return sum(sp.kron(fiber.contract_matrix(n, degree, j),
                                   sp.diags(alpha[:, j] / sqrtk)) for j in range(n)).tocsr()

            x = 0
            if q < n:
                x = x + contraction(q + 1) @ stacked[:above * sites]
            if q >= 1:
                x = x + stacked[above * sites:].getH().tocsr() @ contraction(q)
            zero_order = (0.5 * (x + x.getH())).tocsr()
            a = a + zero_order
            terms = _remainder(twist + zero_order, probe[0])
        # fl(A) rounds in at most 3 sums (F, G^dag G + F and the zero-order
        # part), and R in one more with alpha.
        sums = 3 if pert.alpha is None else 4
        return DiscreteOperator(a, q, k, grid, _floor=_floor(probe, terms, a, stacked, sums, n))

    return assemble


def assemble_scaled(weight: WeightFunction, pert: Optional[PerturbationSpec],
                    k: int, grid: GridSpec, q: int) -> DiscreteOperator:
    """Scaled operator at tensor power k on the fixed grid, symmetric gauge.

    Rows of the scaled dbar are assembled per coefficient sampling at
    y = z / sqrt(k): frame coefficients (delta_js + conj(r_js)(y)) on the
    Wirtinger derivatives, the gauge multiplier from conjugating by
    e^{k phi(y)/2} m(y)^{1/2}, and the (0,2) frame term with its
    1/sqrt(k) prefactor.  An absent weight perturbation or volume density
    contributes exact zeros (grad phi - lam y, grad log m).  The assembled
    Laplacian is A = G^dag G + F, G being D_q stacked on D_{q-1}^dag (so
    G^dag G = D_q^dag D_q + D_{q-1} D_{q-1}^dag), and F = R + S the
    k-invariant sum of an exact twist correction R, which makes the
    unperturbed case reduce identically to ``assemble_model``, and the
    stabilizer S.  A sample of r, alpha, m or the weight gradient that is
    not finite raises DomainError.

    Its spectral floor (``_floor``) takes G and the stabilizer as Gram
    parts, and R plus the adjoint zero-order part as the remainder.
    """
    return _scaled(weight, pert, grid, q)(k)


def to_matrix_market(op: DiscreteOperator, path) -> None:
    """Export in Matrix Market coordinate format (complex general)."""
    from scipy.io import mmwrite

    mmwrite(str(path), op.matrix.tocoo(), field="complex", symmetry="general")
