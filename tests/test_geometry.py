import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab import fiber
from heatlab.errors import ArgumentError, InvariantViolation
from heatlab.geometry import (
    CurvatureEndomorphism,
    CurvatureField,
    Perturbation,
    WeightFunction,
    asymptotic_diagonal,
    cubic_re_perturbation,
    curvature_at,
    heat_factor,
    morse_bound,
    morse_index,
    morse_index_integrals,
    quartic_abs_perturbation,
    twist_endomorphism,
)
from heatlab.geometry import _sample


# ---------------------------------------------------------------------------
# curvature_at


def test_quadratic_weight_constant_hessian():
    w = WeightFunction(2, (1.0, 2.0))
    for point in ([0, 0], [0.3 + 0.1j, -0.2j]):
        curv = curvature_at(w, point)
        np.testing.assert_allclose(curv.matrix, np.diag([1.0, 2.0]), atol=1e-14)


def test_one_dim_curvature_at_origin():
    lam = 0.7
    curv = curvature_at(WeightFunction(1, (lam,)), [0.0])
    np.testing.assert_allclose(curv.matrix, [[lam]], atol=1e-14)


def test_quartic_perturbation_matches_symbolic_hessian():
    # |z|^4 has mixed Wirtinger second derivative 4|z|^2; compare the
    # finite-difference path (value only) against the symbolic value.
    z0 = 0.7 + 0.3j
    exact = quartic_abs_perturbation(1.0)
    fd_only = Perturbation(exact.value)
    w = WeightFunction(1, (0.0,), fd_only)
    curv = curvature_at(w, [z0])
    np.testing.assert_allclose(curv.matrix[0, 0], 4.0 * abs(z0) ** 2, rtol=1e-7)
    w_exact = WeightFunction(1, (0.0,), exact)
    np.testing.assert_allclose(
        curvature_at(w_exact, [z0]).matrix[0, 0], 4.0 * abs(z0) ** 2, rtol=1e-14
    )


def test_perturbations_vanish_to_third_order_at_origin():
    for pert in (cubic_re_perturbation(0.1), quartic_abs_perturbation(0.3)):
        z0 = np.zeros(1, dtype=complex)
        assert pert.value_at(z0) == 0.0
        np.testing.assert_allclose(
            Perturbation(pert.value).zbar_gradient_at(z0), [0.0], atol=1e-10
        )
        fd_hess = Perturbation(pert.value).hessian_at(z0)
        np.testing.assert_allclose(fd_hess, np.zeros((1, 1)), atol=1e-7)


def _mixed_quartic():
    # p(z) = Re(z_1^2 zbar_2) + |z_1|^2 |z_2|^2 on C^2
    def value(z):
        return float(np.real(z[0] ** 2 * np.conj(z[1])) + abs(z[0]) ** 2 * abs(z[1]) ** 2)

    def zbar_grad(z):
        return np.array([np.conj(z[0]) * z[1] + z[0] * abs(z[1]) ** 2,
                         0.5 * z[0] ** 2 + abs(z[0]) ** 2 * z[1]])

    def hessian(z):
        return np.array([[abs(z[1]) ** 2, z[0] + np.conj(z[0]) * z[1]],
                         [np.conj(z[0]) + z[0] * np.conj(z[1]), abs(z[0]) ** 2]])

    return Perturbation(value, zbar_grad, hessian)


@pytest.mark.parametrize("pert, z0", [
    *[(make(1.0), [z]) for make in (quartic_abs_perturbation, cubic_re_perturbation)
      for z in (0.7 + 0.3j, 1.2 - 0.4j, 2.5 + 1.0j)],
    *[(_mixed_quartic(), z) for z in ([0.7 + 0.3j, -0.4 + 0.5j], [1.2 - 0.4j, 0.3 + 1.1j],
                                      [-1.0 + 0.5j, 0.8 - 1.2j])],
])
def test_fd_hessian_differentiates_the_zbar_gradient(pert, z0):
    # the fallback is d/dz_i of the zbar-gradient: from value alone its
    # error is the two stacked stencils' rounding, with an exact gradient
    # only one stencil's; the Hermitian part is taken at the source
    z0 = np.array(z0, dtype=complex)
    exact = pert.hessian(z0)
    scale = max(1.0, np.abs(exact).max())
    for fallback, bound in ((Perturbation(pert.value), 3e-8),
                            (Perturbation(pert.value, pert.zbar_gradient), 1e-10)):
        got = fallback.hessian_at(z0)
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - exact).max() <= bound * scale


def _bits(values):
    """Float64 view of an array, so that equality compares bits."""
    return np.ascontiguousarray(values).view(np.float64)


@pytest.mark.parametrize("make", [cubic_re_perturbation, quartic_abs_perturbation])
@pytest.mark.parametrize("n", [1, 3])
def test_ready_made_grid_forms_match_per_point_values_bit_for_bit(make, n):
    rng = np.random.default_rng(7)
    points = 2.0 * (rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n)))
    pert = make(0.3)
    grads = _sample(pert.zbar_gradient, points, (n,), complex)
    per_point = np.array([pert.zbar_gradient(p) for p in points], dtype=complex)
    assert np.array_equal(_bits(grads), _bits(per_point))
    # the real-arithmetic gradients round as the scalar complex formulas do
    if make is cubic_re_perturbation:
        scalar = [1.5 * 0.3 * np.conj(v) ** 2 for v in points[:, 0]]
    else:
        scalar = [2.0 * 0.3 * v ** 2 * np.conj(v) for v in points[:, 0]]
    assert np.array_equal(_bits(grads[:, 0]), _bits(np.array(scalar)))
    np.testing.assert_array_equal(grads[:, 1:], 0.0)


def test_chart_violation_raises():
    from heatlab.errors import DomainError

    w = WeightFunction(1, (1.0,), chart_radius=0.5)
    with pytest.raises(DomainError):
        curvature_at(w, [1.0])


def test_non_finite_hessian_raises():
    from heatlab.errors import DomainError

    nan_hessian = Perturbation(value=lambda z: 0.0, hessian=lambda z: np.full((1, 1), np.nan))
    with pytest.raises(DomainError, match="non-finite"):
        curvature_at(WeightFunction(1, (1.0,), nan_hessian), [0.3])


def test_non_hermitian_curvature_rejected():
    with pytest.raises(InvariantViolation):
        CurvatureEndomorphism(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# twist_endomorphism


def test_twist_q0_is_zero():
    curv = CurvatureEndomorphism(2, np.array([[1.0, 0.3], [0.3, -2.0]], dtype=complex))
    assert np.max(np.abs(twist_endomorphism(curv, 0).matrix)) == 0.0


def test_twist_one_dim():
    lam = 1.3
    theta = twist_endomorphism(CurvatureEndomorphism.diagonal([lam]), 1)
    np.testing.assert_allclose(theta.matrix, [[-lam]])


def test_twist_two_dim_diagonal():
    theta = twist_endomorphism(CurvatureEndomorphism.diagonal([1.0, 2.0]), 1)
    np.testing.assert_allclose(theta.matrix, np.diag([-1.0, -2.0]))


@given(st.integers(1, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_twist_diagonal_general(n, data):
    q = data.draw(st.integers(0, n))
    lam = [data.draw(st.floats(-3, 3)) for _ in range(n)]
    theta = twist_endomorphism(CurvatureEndomorphism.diagonal(lam), q)
    expect = np.diag([-sum(lam[j] for j in J) for J in fiber.multi_indices(n, q)])
    np.testing.assert_allclose(theta.matrix, expect, atol=1e-12)


def test_twist_q_out_of_range():
    with pytest.raises(ArgumentError):
        twist_endomorphism(CurvatureEndomorphism.diagonal([1.0]), 2)


# ---------------------------------------------------------------------------
# asymptotic_diagonal


def test_degenerate_scalar_value():
    diag = asymptotic_diagonal(CurvatureEndomorphism.diagonal([0.0]), 0, 2.0)
    np.testing.assert_allclose(diag.matrix, [[1.0 / (4.0 * np.pi)]], rtol=1e-14)


def test_one_dim_q1_value():
    lam, t = 1.5, 0.8
    diag = asymptotic_diagonal(CurvatureEndomorphism.diagonal([lam]), 1, t)
    expect = lam * np.exp(-t * lam) / (2 * np.pi * (1 - np.exp(-t * lam)))
    np.testing.assert_allclose(diag.matrix, [[expect]], rtol=1e-13)


def test_two_dim_scalar_product():
    diag = asymptotic_diagonal(CurvatureEndomorphism.diagonal([1.0, 1.0]), 0, 1.0)
    expect = (1.0 / (2 * np.pi * (1 - np.exp(-1.0)))) ** 2
    np.testing.assert_allclose(diag.matrix, [[expect]], rtol=1e-13)


def test_continuity_across_zero_eigenvalue():
    # |f(eps, t) - 1/(2 pi t)| <= C eps with C ~ 1/(4 pi) on the sampled band
    for t in (0.1, 0.5, 1.0, 10.0):
        for eps in (-1e-6, -1e-9, 1e-9, 1e-6):
            got = heat_factor(eps, t)
            assert abs(got - 1.0 / (2 * np.pi * t)) <= 0.1 * abs(eps)


def test_twisted_negative_curvature_is_finite_at_large_t():
    # heat_factor(-1, 720) is subnormal and exp(720 Theta) overflows; the
    # diagonal is heat_factor(1, 720) = 1 / (2 pi)
    got = asymptotic_diagonal(CurvatureEndomorphism.diagonal((-1.0,)), 1, 720.0).scalar
    assert abs(got - 1.0 / (2 * np.pi)) <= 1e-12 / (2 * np.pi)


def test_t_nonpositive_rejected():
    with pytest.raises(ArgumentError):
        asymptotic_diagonal(CurvatureEndomorphism.diagonal([1.0]), 0, 0.0)


@given(st.integers(1, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_unitary_frame_covariance(n, data):
    q = data.draw(st.integers(0, n))
    t = data.draw(st.floats(0.2, 3.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = m + m.conj().T
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    base = asymptotic_diagonal(CurvatureEndomorphism(n, m), q, t)
    conj = asymptotic_diagonal(CurvatureEndomorphism(n, u @ m @ u.conj().T), q, t)
    uq = fiber.exterior_power_matrix(u, q)
    expect = uq @ base.matrix @ uq.conj().T
    scale = max(np.abs(expect).max(), 1e-300)
    np.testing.assert_allclose(conj.matrix, expect, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# morse_index / morse_bound


def test_morse_index_examples():
    assert morse_index(CurvatureEndomorphism.diagonal([1.0, 2.0])) == 0
    assert morse_index(CurvatureEndomorphism.diagonal([-3.0, 5.0])) == 1
    assert morse_index(CurvatureEndomorphism.diagonal([1e-12, 1.0])) is None


@given(st.integers(1, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_morse_index_unitary_invariance(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    lam = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    curv = CurvatureEndomorphism.diagonal(lam)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    conj = CurvatureEndomorphism(n, u @ curv.matrix @ u.conj().T)
    idx = morse_index(curv)
    assert morse_index(conj) == idx


def test_morse_bound_constant_positive():
    lam, area = 1.7, 3.0
    curv = CurvatureEndomorphism.diagonal([lam])
    for cells in (4, 64):
        field = CurvatureField.constant(curv, area, cells)
        res = morse_bound(field, 0)
        np.testing.assert_allclose(res.value, lam / (2 * np.pi) * area, rtol=1e-13)
        assert res.degenerate_volume == 0.0


def test_morse_bound_negative_constant_empty_set():
    field = CurvatureField.constant(CurvatureEndomorphism.diagonal([-2.0]), 1.0, 8)
    assert morse_bound(field, 0).value == 0.0


def test_morse_bound_elliptic_curve_degree():
    # constant curvature 2 pi d / A integrates to d; matches the k=1
    # Riemann-Roch dimension from the torus oracle
    from heatlab.torus import riemann_roch_dims

    d, area = 3, 2.0
    lam = 2 * np.pi * d / area
    field = CurvatureField.constant(CurvatureEndomorphism.diagonal([lam]), area, 16)
    res = morse_bound(field, 1)
    np.testing.assert_allclose(res.value, float(d), rtol=1e-13)
    assert riemann_roch_dims(1, d)[0] == d


def test_morse_bound_reports_degenerate_volume():
    cells = (
        CurvatureEndomorphism.diagonal([1.0]),
        CurvatureEndomorphism.diagonal([0.0]),
        CurvatureEndomorphism.diagonal([-1.0]),
    )
    field = CurvatureField(cells, np.array([1.0, 2.0, 3.0]))
    res = morse_bound(field, 1)
    assert res.degenerate_volume == 2.0
    np.testing.assert_allclose(res.value, 1.0 / (2 * np.pi) * 1.0 + 1.0 / (2 * np.pi) * 3.0)


def test_morse_alternating_sum_telescopes():
    # McKean-Singer-style consistency: sum_q (-1)^q I_q equals the plain
    # signed integral over non-degenerate cells, by direct summation.
    rng = np.random.default_rng(7)
    mats, vols = [], []
    for _ in range(40):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mats.append(CurvatureEndomorphism(2, m + m.conj().T))
        vols.append(rng.uniform(0.1, 1.0))
    field = CurvatureField(tuple(mats), np.array(vols))
    integrals, degenerate = morse_index_integrals(field)
    alternating = sum((-1) ** q * integrals[q] for q in range(3))
    direct = sum(
        np.real(np.linalg.det(c.matrix)) / (2 * np.pi) ** 2 * v
        for c, v in zip(field.matrices, field.volumes)
        if morse_index(c) is not None
    )
    np.testing.assert_allclose(alternating, direct, rtol=1e-12)
    # cumulative bound at q = n is the unsigned total
    res = morse_bound(field, 2)
    np.testing.assert_allclose(res.value, np.sum(integrals), rtol=1e-12)
    assert res.degenerate_volume == degenerate


def test_empty_field_rejected():
    with pytest.raises(ArgumentError):
        CurvatureField((), np.array([]))
    curv = CurvatureEndomorphism.diagonal([1.0])
    with pytest.raises(ArgumentError, match="one volume per cell"):
        CurvatureField((curv, curv), np.array([1.0]))
    for vol in (0.0, -1.0):
        with pytest.raises(ArgumentError, match="volumes must be positive"):
            CurvatureField((curv,), np.array([vol]))
