import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmread
from scipy.sparse.linalg import eigsh

from heatlab import defaults
from heatlab.errors import ArgumentError, DomainError, ResourceLimitError
from heatlab.geometry import WeightFunction, cubic_re_perturbation
from heatlab.model_kernels import ModelSpec
from heatlab.operators import (
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
                a = op.matrix
                scale = np.abs(a).max()
                assert np.abs(a - a.getH()).max() <= 1e-12 * scale
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
    for q in (0, 1):
        scaled = assemble_scaled(WeightFunction(1, (0.5,)), None, 7, grid, q)
        target = assemble_model(ModelSpec(1, (0.5,), q), grid)
        assert np.abs(scaled.matrix - target.matrix).max() <= 1e-12


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
            assert np.abs(op.matrix - op.matrix.getH()).max() <= 1e-12 * np.abs(op.matrix).max()
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
        scale = np.abs(op.matrix).max()
        assert np.abs(op.matrix - op.matrix.getH()).max() <= 1e-12 * scale
        devs.append(np.abs(op.matrix - model01.matrix).max())
    assert devs[1] < devs[0]


def test_frame_derivative_coefficients_hand_case():
    # r_{1,2}(y) = a*y_2 gives dual-frame derivative dbar w^2 = abar w^1 ^ w^2;
    # all other components vanish (hand computation)
    from heatlab.operators import _wedge_term_coefficients

    a = 0.3 + 0.1j
    pert = PerturbationSpec(r=lambda y: np.array([[0.0, a * y[1]], [0.0, 0.0]]))
    y = np.array([0.4 - 0.2j, 0.1 + 0.5j])
    w = _wedge_term_coefficients(pert, y, 2)
    np.testing.assert_allclose(w[1, 0, 1], np.conj(a), rtol=1e-8)
    np.testing.assert_allclose(w[1, 1, 0], -np.conj(a), rtol=1e-8)
    np.testing.assert_allclose(w[0], 0.0, atol=1e-10)


def test_alpha_term_keeps_hermiticity_and_defaults_to_zero():
    grid = GridSpec(1, 3.0, 0.5)
    weight = WeightFunction(1, (1.0,))
    base = assemble_scaled(weight, PerturbationSpec(), 9, grid, 0)
    with_alpha = assemble_scaled(
        weight, PerturbationSpec(alpha=lambda y: np.array([0.2 + 0.1j])), 9, grid, 0
    )
    scale = np.abs(with_alpha.matrix).max()
    assert np.abs(with_alpha.matrix - with_alpha.matrix.getH()).max() <= 1e-12 * scale
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


def test_frame_perturbation_must_vanish_at_origin():
    from heatlab.errors import InvariantViolation

    grid = GridSpec(1, 3.0, 0.5)
    bad = PerturbationSpec(r=lambda y: np.array([[0.1]], dtype=complex))
    with pytest.raises(InvariantViolation):
        assemble_scaled(WeightFunction(1, (1.0,)), bad, 4, grid, 0)


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
