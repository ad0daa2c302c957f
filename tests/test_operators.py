import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.io import mmread
from scipy.sparse.linalg import eigsh

from heatlab import defaults, operators
from heatlab.errors import ArgumentError, DomainError, InvariantViolation, ResourceLimitError
from heatlab.geometry import Perturbation, WeightFunction, _on_grid, cubic_re_perturbation
from heatlab.model_kernels import ModelSpec
from heatlab.operators import (
    DiscreteOperator,
    GridSpec,
    PerturbationSpec,
    assemble_model,
    assemble_scaled,
    to_matrix_market,
)


def _linear_r11(amplitude):
    def r(y):
        return np.array([[amplitude * y[0]]], dtype=complex)

    return PerturbationSpec(r=r)


# ---------------------------------------------------------------------------
# GridSpec


def test_grid_snaps_radius_and_centers_origin():
    grid = GridSpec(1, 5.0, 0.4)
    assert grid.points_per_axis == 27
    np.testing.assert_allclose(grid.effective_radius, 5.2)
    ax = grid.axis_coords()
    assert ax[grid.half_points] == 0.0
    assert grid.flat_index(grid.origin_site()) == (grid.sites - 1) // 2


def test_grid_site_cap():
    with pytest.raises(ResourceLimitError):
        GridSpec(1, 8.0, 0.01)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ArgumentError):
        GridSpec(1, -1.0, 0.1)
    with pytest.raises(ArgumentError):
        GridSpec(1, 1.0, 0.0)
    with pytest.raises(ArgumentError):
        GridSpec(0, 1.0, 0.1)
    for radius, spacing in ((np.inf, 0.5), (np.nan, 0.5), (1.0, np.nan)):
        with pytest.raises(ArgumentError):
            GridSpec(1, radius, spacing)
    grid = GridSpec(1, 1.0, 0.5)  # 5 points per axis
    with pytest.raises(ArgumentError, match="2 indices"):
        grid.flat_index((2,))
    for site in ((5, 0), (0, -1)):
        with pytest.raises(ArgumentError, match="outside grid"):
            grid.flat_index(site)


@pytest.mark.parametrize("build, message", [
    (lambda g: assemble_model(ModelSpec(2, (1.0, 1.0), 0), g), "dimensions differ"),
    (lambda g: assemble_scaled(WeightFunction(2, (1.0, 1.0)), None, 1, g, 0),
     "dimensions differ"),
    (lambda g: assemble_scaled(WeightFunction(1, (1.0,)), None, 1, g, 2), "q=2 outside"),
    (lambda g: assemble_scaled(WeightFunction(1, (1.0,)), None, 1, g, -1), "q=-1 outside"),
    (lambda g: assemble_scaled(WeightFunction(1, (1.0,)), None, 0, g, 0), "k must be"),
])
def test_assemblers_reject_bad_arguments(build, message):
    with pytest.raises(ArgumentError, match=message):
        build(GridSpec(1, 1.0, 0.5))


def test_site_coordinates_layout():
    grid = GridSpec(1, 1.0, 1.0)
    z = grid.site_coordinates()
    assert z.shape == (9, 1)
    # C-order: x slowest, y fastest
    np.testing.assert_allclose(z[:3, 0], [-1 - 1j, -1, -1 + 1j])
    np.testing.assert_allclose(z[grid.flat_index(grid.origin_site()), 0], 0.0)


# ---------------------------------------------------------------------------
# assemble_model


def test_free_case_is_combined_five_point_laplacian():
    # lambda = 0: the scalar part is the complex-combined centred stencil
    # 1/4 (Dx^T Dx + Dy^T Dy) plus the documented ghost stabilizer
    grid = GridSpec(1, 2.0, 0.5)
    op = assemble_model(ModelSpec(1, (0.0,), 0), grid)
    s, h = grid.points_per_axis, grid.spacing
    e = np.ones(s - 1)
    d1 = sp.diags([-e, e], [-1, 1]) / (2 * h)
    d2 = sp.diags([np.ones(s - 1), -2 * np.ones(s), np.ones(s - 1)], [-1, 0, 1]) / h**2
    d4 = d2 @ d2
    eye = sp.identity(s)
    dx, dy = sp.kron(d1, eye), sp.kron(eye, d1)
    stab = defaults.GHOST_STABILIZER * h**6 * (
        sp.kron(d4.T @ d4, eye) + sp.kron(eye, d4.T @ d4)
    )
    expect = 0.25 * (dx.T @ dx + dy.T @ dy) + stab
    assert np.abs(op.matrix - expect).max() < 1e-14


def test_hermiticity_and_q0_positivity_matrix():
    lam_grids = {1: [(1.0,), (0.0,), (-1.5,)], 2: [(1.0, -0.5), (0.0, 2.0)]}
    for n, lams in lam_grids.items():
        grid = GridSpec(n, 2.0, 0.5)
        for lam in lams:
            for q in range(n + 1):
                op = assemble_model(ModelSpec(n, lam, q), grid)
                # Hermitian bit for bit, not only within a tolerance
                assert (op.matrix != op.matrix.getH()).nnz == 0
            # q = 0 has no twist part: PSD by construction
            op0 = assemble_model(ModelSpec(n, lam, 0), grid)
            low = eigsh(op0.matrix, k=1, which="SA", return_eigenvectors=False,
                        maxiter=5000)[0]
            assert low >= -1e-10


def test_consistency_order_against_symbolic_action():
    # box applied to u = exp(-|z|^2) has the closed form
    # (lam/2 - 1)((|z|^2 - 1) + lam/2 |z|^2) u  (n = 1, q = 0)
    lam = 0.7
    errors = []
    for h in (0.2, 0.1):
        grid = GridSpec(1, 4.0, h)
        op = assemble_model(ModelSpec(1, (lam,), 0), grid)
        z = grid.site_coordinates()[:, 0]
        u = np.exp(-np.abs(z) ** 2)
        applied = op.matrix @ u
        r2 = np.abs(z) ** 2
        symbolic = (0.5 * lam - 1) * ((r2 - 1) + 0.5 * lam * r2) * u
        interior = np.abs(z) < 2.5
        errors.append(np.abs((applied - symbolic)[interior]).max())
    ratio = errors[0] / errors[1]
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


def test_ground_energy_examples():
    grid = GridSpec(1, 5.0, 0.25)
    op0 = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    e0 = eigsh(op0.matrix, k=1, sigma=-0.05, which="LM", return_eigenvectors=False)[0]
    assert -1e-10 <= e0 <= 0.05
    op1 = assemble_model(ModelSpec(1, (1.0,), 1), grid)
    e1 = eigsh(op1.matrix, k=1, sigma=0.9, which="LM", return_eigenvectors=False)[0]
    assert abs(e1 - 1.0) <= 0.05


def test_q1_spectral_lower_bound():
    grid = GridSpec(1, 5.0, 0.25)
    op1 = assemble_model(ModelSpec(1, (1.0,), 1), grid)
    low = eigsh(op1.matrix, k=1, sigma=0.5, which="LM", return_eigenvectors=False)[0]
    assert low >= 1.0 - 0.05


# ---------------------------------------------------------------------------
# assemble_scaled


def test_scaled_reduces_to_model_without_perturbation():
    grid = GridSpec(1, 4.0, 0.25)
    weight = WeightFunction(1, (1.0,))
    model = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    for k in (1, 16, 256):
        scaled = assemble_scaled(weight, None, k, grid, 0)
        assert np.abs(scaled.matrix - model.matrix).max() <= 1e-12
    # the twist correction R makes every degree q reduce, at n = 1, 2 and 3
    for lam, grid in (((0.5,), grid), ((1.0, -0.5), GridSpec(2, 1.0, 0.5)),
                      ((1.0, -0.5, 0.7), GridSpec(3, 0.5, 0.5))):
        n = len(lam)
        for q in range(n + 1):
            scaled = assemble_scaled(WeightFunction(n, lam), None, 7, grid, q)
            target = assemble_model(ModelSpec(n, lam, q), grid)
            assert np.abs(scaled.matrix - target.matrix).max() <= 1e-12


def test_twist_correction_has_the_closed_form_spectrum():
    # at n = 1, q = 1, R = lam (I - (A_x + A_y) / 2), A_a the Dirichlet
    # neighbour average, whose eigenvalues are cos(pi a / (s + 1)), a = 1..s
    grid, lam = GridSpec(1, 1.5, 0.5), 1.5
    twist, _ = operators._twist(operators._GridOperators(grid), np.array([lam]), 1)
    s = grid.points_per_axis
    c = np.cos(np.pi * np.arange(1, s + 1) / (s + 1))
    expected = np.sort(lam * (1 - (c[:, None] + c[None, :]) / 2).ravel())
    np.testing.assert_allclose(np.linalg.eigvalsh(twist.toarray()), expected, rtol=0, atol=1e-13)


def test_cubic_weight_deviation_scales_with_inverse_sqrt_k():
    grid = GridSpec(1, 4.0, 0.25)
    weight = WeightFunction(1, (1.0,), cubic_re_perturbation(0.1))
    model = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    norm = np.abs(model.matrix).max()
    devs = {}
    for k in (100, 400):
        scaled = assemble_scaled(weight, None, k, grid, 0)
        devs[k] = np.abs(scaled.matrix - model.matrix).max() / norm
    # epsilon_k ~ k^{-1/2}: quadrupling k should roughly halve the deviation
    assert devs[400] <= devs[100] / 1.8
    c = devs[100] * np.sqrt(100)
    print(f"measured deviation constant C ~ {c:.3f} (relative max-norm)")
    assert devs[100] <= c / np.sqrt(100) + 1e-15


def test_metric_perturbation_deviation_decreases():
    grid = GridSpec(1, 4.0, 0.25)
    weight = WeightFunction(1, (1.0,))
    model = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    devs = []
    for k in (16, 64, 256):
        scaled = assemble_scaled(weight, _linear_r11(0.1), k, grid, 0)
        devs.append(np.abs(scaled.matrix - model.matrix).max())
    assert devs[0] > devs[1] > devs[2]


def test_scaled_hermiticity_across_k():
    grid = GridSpec(1, 3.0, 0.5)
    weight = WeightFunction(1, (1.0,), cubic_re_perturbation(0.1))
    for k in (1, 16, 256):
        for q in (0, 1):
            op = assemble_scaled(weight, _linear_r11(0.1), k, grid, q)
            assert (op.matrix != op.matrix.getH()).nnz == 0
        op0 = assemble_scaled(weight, _linear_r11(0.1), k, grid, 0)
        low = eigsh(op0.matrix, k=1, which="SA", return_eigenvectors=False,
                    maxiter=5000)[0]
        assert low >= -1e-10


def test_scaled_two_dim_frame_perturbation():
    # n = 2 exercises the (0,2) frame term; Hermiticity is structural and
    # the perturbation must vanish as k grows
    grid = GridSpec(2, 1.5, 0.5)
    weight = WeightFunction(2, (1.0, -0.5))

    def r(y):
        return np.array([[0.0, 0.1 * y[0]], [0.05 * y[1], 0.0]], dtype=complex)

    pert = PerturbationSpec(r=r)
    model01 = assemble_model(ModelSpec(2, (1.0, -0.5), 1), grid)
    devs = []
    for k in (4, 64):
        op = assemble_scaled(weight, pert, k, grid, 1)
        assert (op.matrix != op.matrix.getH()).nnz == 0
        devs.append(np.abs(op.matrix - model01.matrix).max())
    assert devs[1] < devs[0]


def test_frame_derivative_coefficients_hand_case():
    # r_{1,2}(y) = a*y_2 gives dual-frame derivative dbar w^2 = abar w^1 ^ w^2;
    # all other components vanish (hand computation), at every site
    from heatlab.operators import _grid_partials, _sample, _wedge_term_coefficients

    a = 0.3 + 0.1j

    def r_at(y):
        return np.array([[0.0, a * y[1]], [0.0, 0.0]], dtype=complex)

    grid = GridSpec(2, 1.0, 0.5)
    r = _sample(r_at, 0.7 * grid.site_coordinates(), (2, 2))
    w = _wedge_term_coefficients(r, _grid_partials(r, grid, 0.7 * grid.spacing))
    np.testing.assert_allclose(w[1, 0, 1], np.conj(a), rtol=1e-12)
    np.testing.assert_allclose(w[1, 1, 0], -np.conj(a), rtol=1e-12)
    np.testing.assert_allclose(w[0], 0.0, atol=1e-12)


def _real_axes(y):
    """The real coordinates (x_1, y_1, ..., x_n, y_n) of complex points."""
    return np.stack([f(y[:, j]) for j in range(y.shape[1]) for f in (np.real, np.imag)], axis=1)


def _polynomial_frame(terms, u, axis=None):
    """2 x 2 frame with entries r_ij = sum c u^p over terms (i, j, c, p) at
    the real coordinates u, or its partial along one real axis."""
    out = np.zeros((len(u), 2, 2), dtype=complex)
    for i, j, c, p in terms:
        p = np.array(p)
        if axis is None:
            out[:, i, j] += c * np.prod(u ** p, axis=1)
        elif p[axis]:
            out[:, i, j] += c * p[axis] * np.prod(u ** (p - np.eye(4, dtype=int)[axis]), axis=1)
    return out


_QUARTIC_TERMS = [
    (0, 0, 0.1, (4, 0, 0, 0)), (0, 0, -0.2j, (0, 3, 1, 0)), (0, 1, 0.05, (1, 1, 1, 1)),
    (0, 1, 0.3, (0, 0, 0, 4)), (1, 0, 0.1 + 0.2j, (0, 2, 2, 0)), (1, 1, 0.01, (3, 0, 0, 1)),
    (1, 1, 0.02j, (0, 0, 0, 1)), (1, 0, -0.4, (1, 0, 1, 0)), (0, 1, 0.2j, (0, 2, 0, 0)),
]


@pytest.mark.parametrize("radius, degree", [(1.5, 4), (0.5, 2)])
def test_grid_partials_exact_on_polynomials(radius, degree):
    # the min(5, s)-point rule differentiates polynomials of degree < min(5, s)
    # exactly at every site: quartics on 7 sites per axis (interior and both
    # outer layers), quadratics on 3
    from heatlab.operators import _grid_partials

    grid = GridSpec(2, radius, 0.5)
    assert grid.points_per_axis == (7 if degree == 4 else 3)
    terms = [t for t in _QUARTIC_TERMS if sum(t[3]) <= degree]
    u = _real_axes(0.7 * grid.site_coordinates())
    got = _grid_partials(_polynomial_frame(terms, u), grid, 0.7 * grid.spacing)
    for axis in range(4):
        want = _polynomial_frame(terms, u, axis)
        assert np.abs(got[axis] - want).max() <= 1e-12 * np.abs(want).max()


def _diagonal_frame(y):
    return np.diag(y).astype(complex)


@pytest.mark.parametrize("weight, pert, grid, q", [
    (WeightFunction(2, (1.0, -0.5)), PerturbationSpec(r=_diagonal_frame),
     GridSpec(2, 1e-12, 1.0), 1),
    (WeightFunction(1, (1.0,)), PerturbationSpec(volume_density=lambda y: 1.0 + abs(y[0]) ** 2),
     GridSpec(1, 1e-12, 1.0), 0),
], ids=["frame", "density"])
def test_grid_partials_need_three_points_per_axis(weight, pert, grid, q):
    # a grid of one point per axis has no partials of r or log m: the
    # assembly raises ArgumentError, where it raised a bare IndexError
    assert grid.points_per_axis == 1
    with pytest.raises(ArgumentError, match="at least 3 points per axis"):
        assemble_scaled(weight, pert, 4, grid, q)


def test_grid_partials_fourth_order_inside():
    # a frame that no polynomial matches: halving h / sqrt(k) cuts the
    # interior error by at least 12 (16 for a 4th-order rule)
    from heatlab.operators import _grid_partials

    def frame_and_partials(y):
        y1, y2 = y[:, 0], y[:, 1]
        c1, c2 = np.conj(y1), np.conj(y2)
        r = np.stack([0.05 * np.sin(2 * y2), 0.1 * y1 + 0.2 * (np.exp(c2) - 1),
                      0.05 * y2 * c1 + 0.1 * np.sin(c1), 0.03 * np.abs(y1) ** 2], axis=1)
        zero, one = np.zeros_like(y1), np.ones_like(y1)
        # d/dy_j and d/dybar_j of each entry, j = 1, 2
        dz = [np.stack([zero, 0.1 * one, zero, 0.03 * c1], axis=1),
              np.stack([0.1 * np.cos(2 * y2), zero, 0.05 * c1, zero], axis=1)]
        dzbar = [np.stack([zero, zero, 0.05 * y2 + 0.1 * np.cos(c1), 0.03 * y1], axis=1),
                 np.stack([zero, 0.2 * np.exp(c2), zero, zero], axis=1)]
        partials = [f(j) for j in range(2)
                    for f in (lambda j: dz[j] + dzbar[j], lambda j: 1j * (dz[j] - dzbar[j]))]
        return r, partials

    grid = GridSpec(2, 2.0, 0.5)
    s = grid.points_per_axis
    index = np.indices((s,) * 4).reshape(4, -1)
    inside = np.all((index >= 2) & (index <= s - 3), axis=0)  # the central rule's sites
    errors = []
    for k in (4, 16):
        y = grid.site_coordinates() / np.sqrt(k)
        r, want = frame_and_partials(y)
        got = _grid_partials(r, grid, grid.spacing / np.sqrt(k))
        errors.append(max(np.abs(g - w)[inside].max() for g, w in zip(got, want)))
    assert errors[1] * 12 <= errors[0]


# Per-site reference for the batched coefficient sampling of assemble_scaled:
# one call per grid site of the coefficient callables and, per site, the
# finite differences that the batched assembly takes over all sites at once.
# The batched assembly must reproduce it bit for bit.


def _ref_fd_real_partial(f, z, axis, h):
    step = np.zeros(z.shape[0], dtype=complex)
    step[axis // 2] = h if axis % 2 == 0 else 1j * h
    c = (1.0, -8.0, 8.0, -1.0)
    o = (-2.0, -1.0, 1.0, 2.0)
    return sum(ci * f(z + oi * step) for ci, oi in zip(c, o)) / (12.0 * h)


# 12 times the weights of the derivative at the c-th sample (row c) of the
# polynomial through 5 consecutive samples of unit spacing, or through 3 on
# an axis of 3 sites
_REF_WINDOW_WEIGHTS = {
    5: ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0),
        (1.0, -8.0, 0.0, 8.0, -1.0), (-1.0, 6.0, -18.0, 10.0, 3.0),
        (3.0, -16.0, 36.0, -48.0, 25.0)),
    3: ((-18.0, 24.0, -6.0), (-6.0, 0.0, 6.0), (6.0, -24.0, 18.0)),
}


def _ref_grid_partial(values, grid, site, axis, step):
    """The partial along one real axis at one site, from the per-site samples
    ``values`` at the nearest sites on that axis (``step`` apart)."""
    s = grid.points_per_axis
    m = min(5, s)
    index = list(np.unravel_index(site, (s,) * 2 * grid.n))
    first = min(max(index[axis] - m // 2, 0), s - m)
    weights = _REF_WINDOW_WEIGHTS[m][index[axis] - first]
    total = 0
    for offset, c in enumerate(weights):
        index[axis] = first + offset
        total = total + c * values[np.ravel_multi_index(index, (s,) * 2 * grid.n)]
    return total / (12 * step)


def _ref_wedge_term_coefficients(rs, grid, site, step):
    # each product sums over its inner index in order, as the assembler does
    n = grid.n

    def mul(x, y):
        out = 0
        for u in range(n):
            out = out + np.outer(x[:, u], y[u])
        return out

    w = np.zeros((n, n, n), dtype=complex)
    mbar = np.conj(np.eye(n) + rs[site])
    p = np.linalg.inv(mbar)
    u = []
    for a in range(n):
        dx = _ref_grid_partial(rs, grid, site, 2 * a, step)
        dy = _ref_grid_partial(rs, grid, site, 2 * a + 1, step)
        dm = np.conj(0.5 * (dx - 1j * dy))
        u.append(mul(-mul(mul(p, dm), p).T, mbar.T))
    for j in range(n):
        t = 0
        for a in range(n):
            t = t + np.outer(mbar[:, a], u[a][j])
        w[j] = t - t.T
    return w


def _ref_placed(op1d, grid, axis):
    """A one-axis operator acting on real axis ``axis`` of the grid."""
    s, axes = grid.points_per_axis, 2 * grid.n
    left, right = sp.identity(s**axis), sp.identity(s ** (axes - axis - 1))
    return sp.kron(sp.kron(left, op1d), right).tocsr()


def _ref_dzbar(grid, j):
    """d/dzbar_j = (d/dx_j + i d/dy_j) / 2 with centred first differences."""
    e = np.ones(grid.points_per_axis - 1)
    d1 = sp.diags([-e, e], [-1, 1]) / (2.0 * grid.spacing)
    return 0.5 * (_ref_placed(d1, grid, 2 * j) + 1j * _ref_placed(d1, grid, 2 * j + 1))


def _ref_stabilizer(grid):
    """sigma h^6 sum_a D4_a^T D4_a, D4 the squared second difference."""
    s, h = grid.points_per_axis, grid.spacing
    d2 = sp.diags([np.ones(s - 1), -2.0 * np.ones(s), np.ones(s - 1)], [-1, 0, 1]) / h**2
    d4 = (d2 @ d2).tocsr()
    unit = (defaults.GHOST_STABILIZER * h**6 * (d4.T @ d4)).tocsr()
    return sum(_ref_placed(unit, grid, a) for a in range(2 * grid.n)).tocsr()


@pytest.mark.parametrize("grid", [GridSpec(1, 5.0, 0.1), GridSpec(2, 1.5, 0.25),
                                  GridSpec(3, 1.0, 0.5)], ids=["n1", "n2", "n3"])
def test_stabilizer_kronecker_sum_is_the_placed_sum_bit_for_bit(grid):
    # the Kronecker sum over the 2n axes stores the CSR arrays of the sum
    # of one-axis terms placed by hand, value for value
    got, want = operators._GridOperators(grid).stabilizer, _ref_stabilizer(grid)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def _reference_assemble_scaled(weight, pert, k, grid, q):
    """The scaled operator from sparse sums of placed difference matrices,
    with every coefficient sampled point by point: no code of the assembler
    beyond the fiber tables."""
    from heatlab import fiber

    n = weight.n
    sqrtk = np.sqrt(float(k))
    sites = grid.sites
    z = grid.site_coordinates()
    y = z / sqrtk
    lam = np.asarray(weight.lam)
    has_r = pert.r is not None
    has_m = pert.volume_density is not None
    has_p = weight.perturbation is not None

    step = grid.spacing / sqrtk
    rs = np.zeros((sites, n, n), dtype=complex)
    if has_r:
        for i in range(sites):
            rs[i] = np.asarray(pert.r(y[i]), dtype=complex).reshape(n, n)
    rbar = np.conj(rs)
    grad_phi = (lam * y).astype(complex)
    if has_p:
        pert_p = weight.perturbation
        for i in range(sites):
            if pert_p.zbar_gradient is not None:
                grad_phi[i] += pert_p.zbar_gradient_at(y[i])
                continue
            for j in range(n):
                gx = _ref_fd_real_partial(pert_p.value, y[i], 2 * j, defaults.FD_STEP)
                gy = _ref_fd_real_partial(pert_p.value, y[i], 2 * j + 1, defaults.FD_STEP)
                grad_phi[i, j] += 0.5 * (gx + 1j * gy)
    grad_logm = np.zeros((sites, n), dtype=complex)
    if has_m:
        logm = np.array([np.log(float(pert.volume_density(y[i]))) for i in range(sites)])
        for i in range(sites):
            for j in range(n):
                gx = _ref_grid_partial(logm, grid, i, 2 * j, step)
                gy = _ref_grid_partial(logm, grid, i, 2 * j + 1, step)
                grad_logm[i, j] = 0.5 * (gx + 1j * gy)

    rows = []
    for j in range(n):
        b = _ref_dzbar(grid, j)
        g = 0.5 * lam[j] * z[:, j].astype(complex)
        if has_p:
            g = g + 0.5 * sqrtk * (grad_phi[:, j] - lam[j] * y[:, j])
        if has_m:
            g = g - 0.5 / sqrtk * grad_logm[:, j]
        if has_r:
            for s in range(n):
                coef = rbar[:, j, s]
                if np.any(coef != 0):
                    b = b + sp.diags(coef) @ _ref_dzbar(grid, s)
                    g = g + 0.5 * sqrtk * coef * grad_phi[:, s]
                    if has_m:
                        g = g - 0.5 / sqrtk * coef * grad_logm[:, s]
        rows.append((b + sp.diags(g)).tocsr())

    def dbar_matrix(degree):
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
                wcoef[i] = _ref_wedge_term_coefficients(rs, grid, i, step)
            blocks = {}
            for j in range(n):
                for b in range(n):
                    for c in range(b + 1, n):
                        vals = wcoef[:, j, b, c]
                        if not np.any(vals != 0):
                            continue
                        f = (fiber.wedge_matrix(n, degree, b)
                             @ fiber.wedge_matrix(n, degree - 1, c)
                             @ fiber.contract_matrix(n, degree, j))
                        for (rr, cc), fv in np.ndenumerate(f):
                            if fv != 0:
                                blocks[(rr, cc)] = blocks.get((rr, cc), 0) + fv * vals
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
    # A = G^H G + (R + S) in the assembler's order of sums: G stacks D_q on
    # D_{q-1}^H, R is the twist correction and S the stabilizer
    g = sp.vstack([f for f in (d_q, None if d_qm1 is None else d_qm1.getH())
                   if f is not None]).tocsr()
    twist = sp.csr_matrix((dq * sites, dq * sites))
    for j in range(n):
        pi_j = np.real(np.diag(fiber.projection_contains(n, q, j)))
        if not np.any(pi_j != 0):
            continue
        c0 = (_ref_dzbar(grid, j) + sp.diags(0.5 * lam[j] * z[:, j])).tocsr()
        comm = (c0 @ c0.getH() - c0.getH() @ c0).tocsr()
        twist = twist + sp.kron(sp.diags(pi_j), (lam[j] * sp.identity(sites) - comm).tocsr())
    a = g.getH().tocsr() @ g + (twist + sp.kron(sp.identity(dq), _ref_stabilizer(grid)))
    if pert.alpha is not None:
        alpha = np.empty((sites, n), dtype=complex)
        for i in range(sites):
            alpha[i] = np.asarray(pert.alpha(y[i]), dtype=complex).reshape(n)
        x = sp.csr_matrix((dq * sites, dq * sites), dtype=complex)
        if d_q is not None:
            aop = sp.csr_matrix((dq * sites, fiber.fiber_dim(n, q + 1) * sites), dtype=complex)
            for j in range(n):
                aop = aop + sp.kron(fiber.contract_matrix(n, q + 1, j),
                                    sp.diags(alpha[:, j] / sqrtk))
            x = x + aop @ d_q
        if d_qm1 is not None:
            aop = sp.csr_matrix((fiber.fiber_dim(n, q - 1) * sites, dq * sites), dtype=complex)
            for j in range(n):
                aop = aop + sp.kron(fiber.contract_matrix(n, q, j), sp.diags(alpha[:, j] / sqrtk))
            x = x + d_qm1 @ aop
        a = a + 0.5 * (x + x.getH())
    a = DiscreteOperator(a.tocsr(), q, grid).matrix
    a.sum_duplicates()  # canonical, as assembled matrices are
    return a


def _full_two_dim_inputs():
    def r(y):
        return np.array([[0.02 * y[1], 0.1 * y[0]], [0.05 * np.conj(y[1]), 0.0]], dtype=complex)

    def alpha(y):
        return np.array([0.2 + 0.1j * y[0], 0.05 * np.conj(y[1])], dtype=complex)

    def m(y):
        return float(np.exp(0.3 * np.abs(y[0]) ** 2 - 0.1 * np.real(y[1] ** 2)))

    weight = WeightFunction(2, (1.0, -0.5), cubic_re_perturbation(0.1))
    return weight, PerturbationSpec(r=r, alpha=alpha, volume_density=m)


def _value_only_weight():
    """A two-dimensional weight whose perturbation has no exact derivatives,
    so its zbar gradient is the finite-difference fallback."""
    def value(z):
        return 0.1 * float(np.real(z[0] ** 2 * np.conj(z[1]))) + 0.05 * float(np.abs(z[1]) ** 4)

    return WeightFunction(2, (1.0, -0.5), Perturbation(value))


@pytest.mark.parametrize("q", [1, 2])
def test_batched_sampling_matches_per_site_reference(q):
    grid = GridSpec(2, 1.5, 0.5)
    weight, pert = _full_two_dim_inputs()
    for w in (weight, _value_only_weight()):
        for k in (4, 64):
            got = assemble_scaled(w, pert, k, grid, q).matrix
            ref = _reference_assemble_scaled(w, pert, k, grid, q)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("n, q", [(3, 2), (1, 1)])
def test_frame_sampled_once_per_point_and_stencil_point(n, q):
    # r is read once per site, and the (0,2) frame term (n >= 2, q >= 1)
    # differentiates these samples, however many form degrees use it; no
    # point off the grid is evaluated
    grid = GridSpec(n, 0.5, 0.5)
    calls = []

    def r(y):
        calls.append(y)
        return 0.1 * np.outer(y, np.ones(n))

    assemble_scaled(WeightFunction(n, (1.0,) * n), PerturbationSpec(r=r), 4, grid, q)
    assert len(calls) == grid.sites + 1  # + validate_origin's call at 0
    np.testing.assert_array_equal(calls[1:], grid.site_coordinates() / 2.0)


@pytest.mark.parametrize("n, q", [(3, 2), (1, 1)])
def test_grid_forms_sampled_once_per_point_set(n, q):
    # a callable with a whole-grid form is called once, on all sites; a
    # user's exact zbar gradient without one still once per site
    grid = GridSpec(n, 0.5, 0.5)
    frame_calls, grad_calls = [], []

    @_on_grid
    def r(y):
        frame_calls.append(len(y))
        return 0.1 * y[:, :, None] * np.ones(n)

    def zbar_gradient(z):
        grad_calls.append(1)
        return np.zeros(n, dtype=complex)

    @_on_grid
    def grid_gradient(z):
        grad_calls.append(len(z))
        return np.zeros(z.shape, dtype=complex)

    weight = WeightFunction(n, (1.0,) * n, Perturbation(lambda z: 0.0, zbar_gradient))
    assemble_scaled(weight, PerturbationSpec(r=r), 4, grid, q)
    assert frame_calls == [1, grid.sites]  # validate_origin's call at 0 first
    assert len(grad_calls) == grid.sites

    grad_calls.clear()
    weight = WeightFunction(n, (1.0,) * n, Perturbation(lambda z: 0.0, grid_gradient))
    assemble_scaled(weight, None, 4, grid, q)
    assert grad_calls == [grid.sites]


def test_volume_density_checked_at_every_site():
    # m is read once per site y = z / sqrt(k) and at 0, nowhere else, and is
    # not positive at the site of largest x_1 alone
    grid = GridSpec(1, 1.0, 0.5)
    edge = grid.effective_radius / 2.0
    calls = []

    def m(y):
        calls.append(y)
        return 1.0 if np.real(y[0]) < edge else -1.0

    pert = PerturbationSpec(volume_density=m)
    with pytest.raises(DomainError, match="volume density must be positive"):
        assemble_scaled(WeightFunction(1, (1.0,)), pert, 4, grid, 0)
    assert np.real(calls[-1][0]) == edge
    calls.clear()
    assemble_scaled(WeightFunction(1, (1.0,)), pert, 5, grid, 0)
    assert len(calls) == grid.sites + 1
    np.testing.assert_array_equal(calls[1:], grid.site_coordinates() / np.sqrt(5.0))


def _bad_at_edge(value, shape=()):
    """A coefficient equal to its trivial value at 0 and to ``value`` at the
    sites y with Re y_1 > 0.5."""
    def f(y):
        return np.full(shape, value if np.real(y[0]) > 0.5 else 0.0, dtype=complex)

    return f


@pytest.mark.parametrize("bad, what", [
    (PerturbationSpec(r=_bad_at_edge(np.nan, (1, 1))), "frame r"),
    (PerturbationSpec(r=_bad_at_edge(np.inf, (1, 1))), "frame r"),
    (PerturbationSpec(alpha=_bad_at_edge(np.nan, (1,))), "alpha"),
    (PerturbationSpec(volume_density=lambda y: 1.0 + _bad_at_edge(np.nan)(y).real),
     "volume density"),
    (Perturbation(lambda z: float(_bad_at_edge(np.nan)(z).real)), "weight gradient"),
])
def test_non_finite_coefficients_are_rejected(bad, what):
    # a NaN or inf sample would leave NaN entries and a NaN "proven" floor
    grid = GridSpec(1, 2.0, 0.5)
    if isinstance(bad, Perturbation):
        weight, pert = WeightFunction(1, (1.0,), bad), None
    else:
        weight, pert = WeightFunction(1, (1.0,)), bad
    with pytest.raises(DomainError, match=what):
        assemble_scaled(weight, pert, 1, grid, 0)


def test_alpha_term_keeps_hermiticity_and_defaults_to_zero():
    grid = GridSpec(1, 3.0, 0.5)
    weight = WeightFunction(1, (1.0,))
    base = assemble_scaled(weight, PerturbationSpec(), 9, grid, 0)
    with_alpha = assemble_scaled(
        weight, PerturbationSpec(alpha=lambda y: np.array([0.2 + 0.1j])), 9, grid, 0
    )
    assert (with_alpha.matrix != with_alpha.matrix.getH()).nnz == 0
    assert np.abs(with_alpha.matrix - base.matrix).max() > 0


def test_volume_density_enters_gauge():
    grid = GridSpec(1, 3.0, 0.5)
    weight = WeightFunction(1, (1.0,))

    def m(y):
        return float(np.exp(0.3 * np.abs(y[0]) ** 2))

    op = assemble_scaled(weight, PerturbationSpec(volume_density=m), 4, grid, 0)
    base = assemble_scaled(weight, None, 4, grid, 0)
    assert np.abs(op.matrix - base.matrix).max() > 1e-6
    with pytest.raises(Exception):
        assemble_scaled(weight, PerturbationSpec(volume_density=lambda y: 2.0), 4, grid, 0)


def test_chart_violation_raises():
    grid = GridSpec(1, 6.0, 0.5)
    weight = WeightFunction(1, (1.0,), chart_radius=1.0)
    with pytest.raises(DomainError):
        assemble_scaled(weight, None, 4, grid, 0)


def test_chart_check_covers_the_value_only_gradient_stencil():
    # a weight perturbation without an exact zbar gradient samples its value
    # up to 2 FD_STEP past the corner of the scaled grid, and the chart
    # check covers that reach; an exact gradient is sampled on the grid
    grid = GridSpec(1, 1.0, 0.5)
    corner = grid.effective_radius * np.sqrt(2.0) / 2.0  # |y| at k = 4
    reached = []

    def value(z):
        reached.append(abs(z[0]))
        return 0.1 * float(np.real(z[0] ** 3))

    def zbar_gradient(z):
        return np.array([0.15 * np.conj(z[0]) ** 2])

    def weight(radius, *grad):
        return WeightFunction(1, (1.0,), Perturbation(value, *grad), chart_radius=radius)

    with pytest.raises(DomainError, match="chart radius"):
        assemble_scaled(weight(corner * (1 + 1e-5)), None, 4, grid, 0)
    assert not reached
    assemble_scaled(weight(corner * (1 + 1e-5), zbar_gradient), None, 4, grid, 0)
    radius = corner + 2 * defaults.FD_STEP * (1 + 1e-6)
    assemble_scaled(weight(radius), None, 4, grid, 0)
    assert corner < max(reached) < radius


def test_warm_scaled_assembly_peak_is_a_few_times_its_matrix():
    # with the k-invariant sum built, one n = 2, q = 1 assembly holds little
    # beside its result: one Gram product and one addition, no CSC copies
    import tracemalloc

    grid = GridSpec(2, 1.5, 0.5)
    weight = WeightFunction(2, (1.0, -0.5))
    pert = PerturbationSpec(r=lambda y: np.array([[0.0, 0.1 * y[0]], [0.05 * y[1], 0.0]],
                                                 dtype=complex))
    assemble = operators._scaled(weight, pert, grid, 1)
    assemble(16)
    tracemalloc.start()
    try:
        a = assemble(16).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


def test_shared_grid_operators_serve_only_k_invariant_terms():
    # one _scaled closure across k gives, bit for bit, the matrix and floor
    # of a fresh single call: the twist and the stencils are built once,
    # while the wedge terms and all of the floor's terms are rebuilt for
    # every k
    grid = GridSpec(2, 1.0, 0.5)
    weight, full = _full_two_dim_inputs()
    no_alpha = PerturbationSpec(r=full.r, volume_density=full.volume_density)
    for q in range(3):
        for w, pert in ((weight, full), (_value_only_weight(), no_alpha)):
            assemble = operators._scaled(w, pert, grid, q)
            for k in (1, 4, 64):
                got = assemble(k)
                fresh = assemble_scaled(w, pert, k, grid, q)
                assert repr(got._floor) == repr(fresh._floor)
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got.matrix, part), getattr(fresh.matrix, part))


def test_frame_perturbation_must_vanish_at_origin():
    grid = GridSpec(1, 3.0, 0.5)
    bad = PerturbationSpec(r=lambda y: np.array([[0.1]], dtype=complex))
    with pytest.raises(InvariantViolation):
        assemble_scaled(WeightFunction(1, (1.0,)), bad, 4, grid, 0)


# ---------------------------------------------------------------------------
# spectral floors


def _frame_n2(y):
    return np.array([[0.0, 0.5 * y[0]], [0.3 * y[1], 0.0]], dtype=complex)


def _alpha(y):
    return 0.3 * y + 0.2j


def _floor_operators():
    """(label, builder) for model and scaled operators on small grids:
    n = 1 and 2, every q, curvatures of both signs, with and without a
    frame perturbation and an adjoint zero-order term."""
    cases = {
        1: (GridSpec(1, 2.0, 0.25), [(1.0,), (-0.7,)],
            [PerturbationSpec(), _linear_r11(0.1), PerturbationSpec(alpha=_alpha),
             PerturbationSpec(r=_linear_r11(0.1).r, alpha=_alpha)]),
        2: (GridSpec(2, 1.0, 0.5), [(1.0, -0.5), (-1.0, -0.7)],
            [PerturbationSpec(), PerturbationSpec(r=_frame_n2, alpha=_alpha)]),
    }
    for n, (grid, lams, perts) in cases.items():
        for lam in lams:
            for q in range(n + 1):
                tag = f"n{n}-lam{','.join(map(str, lam))}-q{q}"
                yield f"model-{tag}", lambda n=n, lam=lam, q=q, grid=grid: \
                    assemble_model(ModelSpec(n, lam, q), grid)
                for pert in perts:
                    label = f"scaled-{tag}-r{pert.r is not None:d}-a{pert.alpha is not None:d}"
                    yield label, lambda n=n, lam=lam, q=q, grid=grid, pert=pert: \
                        assemble_scaled(WeightFunction(n, lam), pert, 4, grid, q)


_FLOOR_CASES = dict(_floor_operators())


@pytest.mark.parametrize("case", list(_FLOOR_CASES))
def test_floor_is_below_the_smallest_eigenvalue(case):
    op = _FLOOR_CASES[case]()
    lam_min = sla.eigvalsh(op.matrix.toarray(), subset_by_index=[0, 0])[0]
    assert op._floor <= lam_min


@pytest.mark.parametrize("q, floor", [(0, 0.0), (1, 1.0)])
def test_model_floor_is_min_theta0_less_rounding(q, floor):
    op = assemble_model(ModelSpec(1, (1.0,), q), GridSpec(1, 5.0, 0.1))
    assert floor - 1e-11 < op._floor < floor


def test_interval_is_the_gershgorin_ends_raised_to_the_floor():
    # the assembled operator's lower end is its floor, far above the
    # Gershgorin one; a floorless copy keeps the plain Gershgorin ends
    op = assemble_model(ModelSpec(1, (1.0,), 1), GridSpec(1, 2.0, 0.25))
    low, high, *_ = operators._gershgorin(op.matrix)
    assert low < -10.0 < op._floor and op._interval() == (max(low, op._floor), high)
    assert DiscreteOperator(op.matrix, op.q, op.grid)._interval() == (low, high)


def test_floor_is_private_to_the_assemblers():
    op = assemble_model(ModelSpec(1, (1.0,), 0), GridSpec(1, 2.0, 0.5))
    copy = DiscreteOperator(op.matrix, op.q, op.grid)
    assert op._floor is not None and copy._floor is None
    with pytest.raises(TypeError):
        DiscreteOperator(op.matrix, op.q, op.grid, op._floor)


def test_floorless_non_hermitian_matrix_is_rejected():
    grid = GridSpec(1, 0.5, 0.5)  # 9 sites
    a = sp.csr_matrix(np.triu(np.ones((9, 9))))
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        DiscreteOperator(a, 0, grid)


def test_hermiticity_scan_leaves_the_callers_matrix_as_given():
    grid = GridSpec(1, 0.5, 0.5)  # 9 sites
    dense = np.random.default_rng(3).standard_normal((9, 9))
    a = sp.csr_matrix(dense + dense.T)
    for i in range(9):  # reverse each row, leaving its indices unsorted
        row = slice(a.indptr[i], a.indptr[i + 1])
        a.indices[row], a.data[row] = a.indices[row][::-1].copy(), a.data[row][::-1].copy()
    a.has_sorted_indices = False
    indices, data = a.indices.copy(), a.data.copy()
    DiscreteOperator(a, 0, grid)
    assert np.array_equal(a.indices, indices) and np.array_equal(a.data, data)


@pytest.mark.parametrize("case", ["model-n1-lam1.0-q0", "scaled-n2-lam1.0,-0.5-q1-r1-a1"])
def test_assembled_operator_is_frozen(case):
    # the floor cannot outlive its matrix: the arrays are read-only and the
    # matrix cannot be rebound
    op = _FLOOR_CASES[case]()
    m = op.matrix
    assert not any(part.flags.writeable for part in (m.data, m.indices, m.indptr))
    with pytest.raises(ValueError):
        m.data[0] = 0.0
    with pytest.raises(AttributeError):
        op.matrix = m.copy()
    assert op.matrix is m


@pytest.mark.parametrize("built", ["assembled", "user-built"])
def test_no_operator_field_can_be_rebound(built):
    # a rebound grid once made kernel_diagonal read the wrong sites, and
    # nothing raised; every field of every operator is now fixed
    grid = GridSpec(1, 2.0, 0.25)
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    if built == "user-built":
        op = DiscreteOperator(op.matrix, op.q, op.grid)
    before = {name: getattr(op, name) for name in ("matrix", "q", "grid", "_floor")}
    others = {"matrix": op.matrix.copy(), "q": 1, "grid": GridSpec(1, 2.0, 0.5), "_floor": -1.0}
    for name, value in others.items():
        with pytest.raises(AttributeError):
            setattr(op, name, value)
        assert getattr(op, name) is before[name]


@pytest.mark.parametrize("case", list(_FLOOR_CASES))
def test_floor_probe_catches_a_changed_entry(monkeypatch, case):
    # the probe of the floor's premises passes on the assembled matrix, and
    # fails on one that differs from its pieces in one entry by 1e-6 ||A||
    seen = []
    real = operators._floor
    monkeypatch.setattr(operators, "_floor", lambda *args: seen.append(args) or real(*args))
    _FLOOR_CASES[case]()
    ops, rest, a, *pieces = seen[0]
    bad = a.copy()
    bad.data[bad.nnz // 2] += 1e-6 * abs(a).max()
    with pytest.raises(InvariantViolation, match="differs from its pieces"):
        real(ops, rest, bad, *pieces)


# ---------------------------------------------------------------------------
# export


def test_matrix_market_export_roundtrip(tmp_path):
    grid = GridSpec(1, 2.0, 0.5)
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    path = tmp_path / "op.mtx"
    to_matrix_market(op, path)
    header = path.read_text().splitlines()[0]
    assert "complex" in header and "general" in header
    back = mmread(str(path)).tocsr()
    assert np.abs(back - op.matrix).max() < 1e-15


# ---------------------------------------------------------------------------
# refactor oracle


def test_assembled_operators_match_the_committed_digests():
    """Every case of ``tests/reference/operators_digest.py`` assembles to the
    CSR arrays and floor whose SHA-256 digests ``operators.json`` holds.
    The digests hold only on the toolchain that wrote them (numpy 2.4,
    scipy 1.17 and their BLAS); a change that moves rounding on purpose
    regenerates them with that script and names the moved cases."""
    import importlib.util
    import json
    from pathlib import Path

    here = Path(__file__).with_name("reference")
    spec = importlib.util.spec_from_file_location("operators_digest",
                                                  here / "operators_digest.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    expected = json.loads((here / "operators.json").read_text(encoding="utf-8"))
    got = oracle.digests()
    assert sorted(got) == sorted(expected)
    moved = [f"{label}: {', '.join(part for part in got[label] if got[label][part] != want[part])}"
             for label, want in sorted(expected.items()) if got[label] != want]
    assert not moved, "moved cases:\n" + "\n".join(moved)
