import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtools import heat_residual_mehler, heat_residual_model
from heatlab import fiber
from heatlab.errors import ArgumentError, InvariantViolation
from heatlab.fiber import FiberEndomorphism
from heatlab.geometry import CurvatureEndomorphism, asymptotic_diagonal
from heatlab.model_kernels import (
    ModelSpec,
    heat_factor,
    mehler_scalar,
    model_diagonal,
    model_kernel,
    weighted_kernel,
)


# ---------------------------------------------------------------------------
# mehler_scalar


def test_mehler_origin_product_form():
    # Lebesgue-normalized origin value: prod_j lam_j / (pi (1 - e^{-2 t lam_j}))
    lam, t = (0.8, 2.0), 0.7
    spec = ModelSpec(2, lam, 0)
    got = mehler_scalar(spec, t, [0, 0], [0, 0])
    expect = np.prod([l / (np.pi * (1 - np.exp(-2 * t * l))) for l in lam])
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_mehler_free_kernel():
    spec = ModelSpec(2, (0.0, 0.0), 0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = rng.uniform(0.2, 3.0)
        got = mehler_scalar(spec, t, z, w)
        expect = np.exp(-np.sum(np.abs(z - w) ** 2) / (2 * t)) / (2 * np.pi * t) ** 2
        np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_mehler_matches_discretized_semigroup_column():
    # finite-difference semigroup oracle: propagate a Lebesgue delta under
    # the discretized oscillator H = 2 * box_{q=0} and read the column
    from heatlab.operators import GridSpec, assemble_model, DiscreteOperator
    from heatlab.semigroup import heat_apply

    lam, t = 1.0, 1.0
    spec = ModelSpec(1, (lam,), 0)
    grid = GridSpec(1, 5.0, 0.2)
    box = assemble_model(spec, grid)
    osc = DiscreteOperator(2.0 * box.matrix, 0, grid)
    i0 = grid.flat_index(grid.origin_site())
    delta = np.zeros(osc.dim, dtype=complex)
    delta[i0] = 1.0 / grid.lebesgue_cell
    col = heat_apply(osc, delta, t)
    # read off at z = 1 (grid offset +5 in x from the origin)
    m = grid.half_points
    site_z1 = grid.flat_index((m + 5, m))
    got = col[site_z1].real
    expect = mehler_scalar(spec, t, [1.0], [0.0]).real
    assert abs(got - expect) / abs(expect) < 0.02


def test_mehler_rejects_bad_time_and_reading():
    spec = ModelSpec(1, (1.0,), 0)
    with pytest.raises(ArgumentError):
        mehler_scalar(spec, -1.0, [0.0], [0.0])
    with pytest.raises(ArgumentError):
        mehler_scalar(spec, 1.0, [0.0], [0.0], quadratic_reading="bogus")
    for z, w in (([0.0, 0.0], [0.0]), ([0.0], [[0.0]])):
        with pytest.raises(ArgumentError, match="points must have shape"):
            mehler_scalar(spec, 1.0, z, w)


def test_mehler_is_the_product_of_one_dimensional_kernels():
    # one exp of the summed exponents against the product of n = 1 kernels
    lam = tuple(0.3 + 0.1 * j for j in range(9))
    spec = ModelSpec(9, lam, 0)
    z = np.full(9, 0.2 + 0.1j)
    w = np.zeros(9, dtype=complex)
    got = mehler_scalar(spec, 0.9, z, w)
    expect = 1.0
    for j in range(9):
        expect *= mehler_scalar(ModelSpec(1, (lam[j],), 0), 0.9, z[j : j + 1], w[j : j + 1])
    np.testing.assert_allclose(got, expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# heat-equation residual and the quadratic-term reading


def test_full_reading_satisfies_heat_equation():
    for lam in ((1.0,), (-0.7,)):
        spec = ModelSpec(1, lam, 0)
        res = heat_residual_mehler(spec, 0.8, np.array([0.4 + 0.3j]), np.array([-0.2 + 0.5j]), "full")
        assert res < 1e-6


def test_half_reading_fails_heat_equation():
    spec = ModelSpec(1, (1.0,), 0)
    res = heat_residual_mehler(spec, 0.8, np.array([0.4 + 0.3j]), np.array([-0.2 + 0.5j]), "half")
    assert res > 1e-2


def test_model_kernel_heat_residual():
    # residual of dK/dt + box K over sampled times within 1e-4 relative
    cases = [
        (ModelSpec(1, (1.0,), 0), [0.3 + 0.2j], [-0.4 + 0.1j]),
        (ModelSpec(1, (-0.8,), 1), [0.5], [0.2 - 0.3j]),
        (ModelSpec(2, (1.0, 0.0), 1), [0.3, -0.2 + 0.2j], [0.1j, 0.4]),
    ]
    for spec, z, w in cases:
        for t in (0.25, 1.0, 4.0):
            res = heat_residual_model(spec, t, np.array(z, dtype=complex),
                                      np.array(w, dtype=complex))
            assert res < 1e-4, (spec, t, res)


# ---------------------------------------------------------------------------
# model_kernel / weighted_kernel


def test_model_kernel_q0_is_scaled_mehler():
    spec = ModelSpec(1, (1.2,), 0)
    z, w = np.array([0.3 + 1j * 0.2]), np.array([-0.1 + 0.4j])
    val = model_kernel(spec, 0.9, z, w).scalar
    expect = 0.5 * mehler_scalar(spec, 0.45, z, w)
    np.testing.assert_allclose(val, expect, rtol=1e-14)


def test_model_kernel_q1_twist_factor():
    lam, t = 0.9, 1.3
    z, w = np.array([0.4]), np.array([0.1 - 0.2j])
    v0 = model_kernel(ModelSpec(1, (lam,), 0), t, z, w).scalar
    v1 = model_kernel(ModelSpec(1, (lam,), 1), t, z, w).scalar
    np.testing.assert_allclose(v1, np.exp(-t * lam) * v0, rtol=1e-14)


@pytest.mark.parametrize("z", [40 + 30j, 48 + 14j, 35 + 35j])
@pytest.mark.parametrize("t", [0.002, 0.003, 0.005])
def test_model_kernel_far_coincident_points_match_model_diagonal(z, t):
    # the diagonal is translation invariant; an exponent written as
    # -alpha (|z|^2 + |w|^2) + beta+ z wbar + beta- zbar w cancels terms of
    # size |z|^2 / t here, which broke Hermiticity or drifted by 3.5e-10
    spec = ModelSpec(1, (0.5,), 0)
    got = model_kernel(spec, t, [z], [z]).scalar
    expect = model_diagonal(spec, t).scalar
    assert abs(got - expect) <= 1e-14 * abs(expect)


def test_model_kernel_origin_matches_model_diagonal():
    # both read the same paired factors; the exponent at z = w = 0 is 0
    for spec in (ModelSpec(1, (1.0,), 0), ModelSpec(1, (-1.0,), 1), ModelSpec(2, (0.5, -1.5), 1),
                 ModelSpec(2, (0.0, 2.0), 2), ModelSpec(3, (0.7, -0.3, 1e-9), 2)):
        z = np.zeros(spec.n)
        for t in (0.01, 0.8, 800.0):
            got, expect = model_kernel(spec, t, z, z).matrix, model_diagonal(spec, t).matrix
            assert np.array_equal(got, expect), (spec, t)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_model_kernel_hermitian_symmetry(data):
    n = data.draw(st.integers(1, 2))
    q = data.draw(st.integers(0, n))
    lam = tuple(data.draw(st.floats(-2, 2)) for _ in range(n))
    t = data.draw(st.floats(0.3, 3.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    z = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
    w = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
    spec = ModelSpec(n, lam, q)
    a = model_kernel(spec, t, z, w).matrix
    b = model_kernel(spec, t, w, z).matrix
    scale = max(np.abs(a).max(), 1e-300)
    np.testing.assert_allclose(a, b.conj().T, atol=1e-12 * scale)


def test_weighted_kernel_examples():
    spec = ModelSpec(1, (1.0,), 0)
    z = np.array([1.0 + 1.0j])
    w = np.array([0.0j])
    # diagonal: weights cancel
    kz = weighted_kernel(spec, 0.7, z, z).scalar
    mz = model_kernel(spec, 0.7, z, z).scalar
    np.testing.assert_allclose(kz, mz, rtol=1e-14)
    # zero weight: identical to the unweighted kernel
    free = ModelSpec(1, (0.0,), 0)
    np.testing.assert_allclose(
        weighted_kernel(free, 1.1, z, w).scalar, model_kernel(free, 1.1, z, w).scalar,
        rtol=1e-14,
    )
    # explicit gauge factor e^{phi0(z)/2}
    np.testing.assert_allclose(
        weighted_kernel(spec, 1.0, z, w).scalar,
        np.exp(0.5 * abs(z[0]) ** 2) * model_kernel(spec, 1.0, z, w).scalar,
        rtol=1e-14,
    )


@pytest.mark.parametrize("lam", [5e-324, -5e-324, 1e-320, 1e-12])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_tiny_curvature_takes_the_flat_branch(lam, t):
    # below the degeneracy threshold 0.5 * t * lam may underflow to 0, so
    # the closed forms would divide by zero or lose every digit
    z, w = np.array([0.3 - 0.2j]), np.array([-0.1 + 0.4j])
    for q in (0, 1):
        tiny, flat = ModelSpec(1, (lam,), q), ModelSpec(1, (0.0,), q)
        for got, ref in ((model_kernel(tiny, t, z, w).matrix, model_kernel(flat, t, z, w).matrix),
                         (model_diagonal(tiny, t).matrix, model_diagonal(flat, t).matrix)):
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=0)


@pytest.mark.parametrize("lam", [5e-9, -5e-9])
@pytest.mark.parametrize("z, w", [(1000.0, 1000.0 + 1j), (0.3 - 0.2j, -0.1 + 0.4j)])
def test_degenerate_branch_matches_closed_form(lam, z, w):
    # the branch keeps the terms linear in lam; the dropped phase
    # lam Im(z wbar) alone was a 5e-6 relative error at |z| = 1000
    import mpmath as mp

    t = 0.5
    with mp.workdps(60):
        lm, zm, wm = mp.mpf(lam), mp.mpc(z), mp.mpc(w)
        x = t * lm
        ref = lm / (mp.pi * (1 - mp.exp(-2 * x))) * mp.exp(
            -(lm / 2) * mp.coth(x) * (abs(zm) ** 2 + abs(wm) ** 2)
            + lm * (mp.exp(x) * zm * mp.conj(wm) + mp.exp(-x) * mp.conj(zm) * wm)
            / (2 * mp.sinh(x)))
        got = mehler_scalar(ModelSpec(1, (lam,), 0), t, [z], [w])
        assert abs(mp.mpc(got) - ref) / abs(ref) < 1e-15


def test_half_reading_is_continuous_at_the_degeneracy_threshold():
    # both coefficients of the "half" reading tend to 1/(2t), so its value
    # may not jump where the degenerate limit takes over
    got = [mehler_scalar(ModelSpec(1, (lam,), 0), 1.0, [1.0], [1.0], "half")
           for lam in (1e-9, 2e-8)]
    assert abs(got[0] - got[1]) <= 1e-7 * abs(got[1])


def test_half_reading_does_not_overflow_at_large_t():
    # s = lam / (2 sinh(t lam)) -> 0 at t |lam| > 710, where sinh overflows
    got = mehler_scalar(ModelSpec(1, (1.0,), 0), 800.0, [0.1], [0.2], "half")
    assert abs(got - 0.31672230900327414) <= 1e-15 * 0.31672230900327414


# ---------------------------------------------------------------------------
# model_diagonal


def test_twisted_negative_curvature_is_finite_at_large_t():
    # heat_factor(-1, 800) e^{800} is heat_factor(1, 800) = 1 / (2 pi);
    # apart, the first factor underflows and the second overflows
    got = model_diagonal(ModelSpec(1, (-1.0,), 1), 800.0).scalar
    assert got == heat_factor(1.0, 800.0) == 0.15915494309189535


def test_model_diagonal_matches_the_product_formula_in_high_precision():
    # prod_j lam_j / (2 pi (1 - e^{-t lam_j})) * e^{-t sum_{j in J} lam_j}
    # at 50 digits.  lam on a 1/64 lattice and t in single precision make
    # every t lam_j exact, so the bound measures the formula and not the
    # rounding of e^x's argument (condition number |x|, up to 2400 here);
    # entries below the smallest normal float are compared absolutely
    import mpmath as mp

    rng = np.random.default_rng(30)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        lam = tuple(float(v) / 64 for v in rng.choice([-1, 1], n) * rng.integers(3, 193, n))
        t = float(np.float32(np.exp(rng.uniform(np.log(0.1), np.log(800.0)))))
        for q in range(n + 1):
            got = np.diag(model_diagonal(ModelSpec(n, lam, q), t).matrix)
            assert np.all(got.imag == 0.0)
            with mp.workdps(50):
                for g, J in zip(got.real, fiber.multi_indices(n, q)):
                    ref = mp.exp(-t * mp.fsum(lam[j] for j in J))
                    for lj in lam:
                        ref *= lj / (2 * mp.pi * (1 - mp.exp(-t * mp.mpf(lj))))
                    assert abs(g - ref) <= 1e-14 * ref + np.finfo(float).tiny, (lam, q, t)


def test_model_diagonal_scalar_cases():
    lam, t = 1.4, 0.6
    d = model_diagonal(ModelSpec(1, (lam,), 0), t).matrix[0, 0]
    np.testing.assert_allclose(d, lam / (2 * np.pi * (1 - np.exp(-t * lam))), rtol=1e-14)
    d0 = model_diagonal(ModelSpec(1, (0.0,), 0), t).matrix[0, 0]
    np.testing.assert_allclose(d0, 1.0 / (2 * np.pi * t), rtol=1e-14)


def test_model_diagonal_two_dim_q1():
    a, b, t = 0.9, 1.7, 0.8
    got = model_diagonal(ModelSpec(2, (a, b), 1), t).matrix
    fa = a / (2 * np.pi * (1 - np.exp(-t * a)))
    fb = b / (2 * np.pi * (1 - np.exp(-t * b)))
    expect = np.diag([fa * np.exp(-t * a) * fb, fa * fb * np.exp(-t * b)])
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_model_diagonal_matches_asymptotic_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = rng.integers(1, 4)
        q = int(rng.integers(0, n + 1))
        lam = tuple(rng.uniform(-3, 3, size=n))
        t = rng.uniform(0.1, 5.0)
        md = model_diagonal(ModelSpec(n, lam, q), t).matrix
        ad = asymptotic_diagonal(CurvatureEndomorphism.diagonal(lam), q, t).matrix
        scale = np.abs(md).max()
        np.testing.assert_allclose(ad, md, atol=1e-12 * scale)


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_closed_forms_are_finite_at_extreme_t(data):
    # e^{+-t lam} leaves the float range at t |lam| > 709: every closed form
    # must stay finite and quiet (warnings are errors), and the two routes to
    # the diagonal must agree wherever its entries are normal floats
    n = data.draw(st.integers(1, 2))
    q = data.draw(st.integers(0, n))
    lam = tuple(data.draw(st.one_of(st.floats(-2, 2), st.sampled_from((0.0, 5e-9, -5e-9))))
                for _ in range(n))
    t = 10.0 ** data.draw(st.floats(-3, 3))
    z = np.array([complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
                  for _ in range(n)])
    zero = np.zeros(n)
    spec = ModelSpec(n, lam, q)
    md = np.diag(model_diagonal(spec, t).matrix)
    ad = asymptotic_diagonal(CurvatureEndomorphism.diagonal(lam), q, t).matrix
    for value in (md, ad, model_kernel(spec, t, zero, zero).matrix,
                  model_kernel(spec, t, z, z).matrix,
                  *(mehler_scalar(ModelSpec(n, lam, 0), t, z, zero, reading)
                    for reading in ("full", "half"))):
        assert np.all(np.isfinite(value))
    normal = np.abs(md) >= np.finfo(float).tiny
    assert np.all(np.abs(np.diag(ad) - md)[normal] <= 1e-12 * np.abs(md)[normal])


# ---------------------------------------------------------------------------
# semigroup property and initial condition (quadrature oracles)


def _quadrature_semigroup_error(lam, t, s, z, w):
    spec = ModelSpec(1, (lam,), 0)
    radius, h = 4.5, 0.15
    ax = np.arange(-radius, radius + h / 2, h)
    xs, ys = np.meshgrid(ax, ax, indexing="ij")
    total = 0.0 + 0.0j
    for ur, ui in zip(xs.ravel(), ys.ravel()):
        u = np.array([ur + 1j * ui])
        total += model_kernel(spec, t, z, u).scalar * model_kernel(spec, s, u, w).scalar
    total *= 2.0 * h * h  # Hermitian volume element
    expect = model_kernel(spec, t + s, z, w).scalar
    return abs(total - expect) / abs(expect)


@pytest.mark.parametrize("lam", [-1.0, 0.0, 2.0])
def test_semigroup_property_quadrature(lam):
    z = np.array([0.4 + 0.2j])
    w = np.array([-0.3 + 0.1j])
    assert _quadrature_semigroup_error(lam, 0.6, 0.9, z, w) < 1e-6


def test_initial_condition_delta_limit():
    # smooth compactly supported bump; quadrature of K(t,0,w)u(w) dv -> u(0)
    spec = ModelSpec(1, (1.0,), 0)
    t = 1e-3
    radius_u = 0.5

    def bump(w):
        r2 = np.abs(w) ** 2 / radius_u**2
        return np.exp(1.0 - 1.0 / (1.0 - r2)) if r2 < 1.0 else 0.0

    h = 0.005
    ax = np.arange(-0.3, 0.3 + h / 2, h)
    z = np.zeros(1, dtype=complex)
    total = 0.0
    for ur in ax:
        for ui in ax:
            u = np.array([ur + 1j * ui])
            total += (model_kernel(spec, t, z, u).scalar * bump(u[0])).real
    total *= 2.0 * h * h
    assert abs(total - bump(0.0)) / bump(0.0) < 1e-2


def test_kernel_value_invariants():
    spec = ModelSpec(1, (1.0,), 0)
    kv = model_kernel(spec, 1.0, [0.2], [0.2])
    assert isinstance(kv, FiberEndomorphism)
    # finite values whose separate factors overflow: e^{-t Theta_0} at
    # lambda < 0, and the gauge at z = 50, where the kernel is about e^{-1455}
    assert np.isfinite(model_kernel(ModelSpec(1, (-1.0,), 1), 800.0, [0.1], [0.2]).scalar)
    assert weighted_kernel(spec, 1.0, [50.0], [0.0]).scalar == 0.0
    # a value that really overflows (about e^{998}) is an error, not an inf
    with np.errstate(all="ignore"):
        with pytest.raises(InvariantViolation, match="non-finite"):
            weighted_kernel(spec, 1.0, [1000.0], [999.0])
    with pytest.raises(ArgumentError):
        ModelSpec(1, (1.0,), 2)
    with pytest.raises(InvariantViolation):
        ModelSpec(2, (1.0,), 0)


def test_model_kernels_does_not_load_geometry():
    # geometry imports model_kernels, so the reverse import, even one
    # deferred to call time, would be a cycle
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys\n"
             "from heatlab.model_kernels import ModelSpec, model_diagonal, model_kernel\n"
             "model_diagonal(ModelSpec(1, (1.0,), 1), 1.0)\n"
             "model_kernel(ModelSpec(1, (1.0,), 1), 1.0, [0.0], [0.5])\n"
             "print('heatlab.geometry' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
