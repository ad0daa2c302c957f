import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from heatlab import defaults
from heatlab.errors import ArgumentError, InvariantViolation, ResourceLimitError
from heatlab.geometry import WeightFunction
from heatlab.model_kernels import ModelSpec, model_diagonal
from heatlab.operators import DiscreteOperator, GridSpec, assemble_model
from heatlab.semigroup import (
    ConvergenceReport,
    ConvergenceRow,
    SemigroupMethod,
    converge_in_k,
    heat_apply,
    heat_trace,
    kernel_diagonal,
    model_baseline_errors,
    spectral_bound_check,
)


def _synthetic_op(diag_values, grid=None):
    grid = grid or GridSpec(1, 1.0, 1.0)
    vals = np.asarray(diag_values, dtype=float)
    assert vals.size == grid.sites
    return DiscreteOperator(sp.diags(vals).tocsr().astype(complex), "symmetric", 0, 0,
                            grid, grid.lebesgue_cell)


def _random_hermitian_op(dim_grid_radius=3.0):
    grid = GridSpec(1, dim_grid_radius, 1.0)
    rng = np.random.default_rng(42)
    b = rng.normal(size=(grid.sites, grid.sites)) + 1j * rng.normal(size=(grid.sites, grid.sites))
    h = 0.5 * (b + b.conj().T)
    return DiscreteOperator(sp.csr_matrix(h), "symmetric", 0, 0, grid, grid.lebesgue_cell)


# ---------------------------------------------------------------------------
# heat_apply


def test_identity_at_tiny_time():
    op = _random_hermitian_op()
    v = np.random.default_rng(0).normal(size=op.dim) + 0j
    for variant in ("dense-eigen", "krylov"):
        out = heat_apply(op, v, 1e-9, SemigroupMethod(variant))
        assert np.linalg.norm(out - v) / np.linalg.norm(v) < 1e-6


def test_diagonal_operator_exact():
    vals = np.linspace(0.0, 4.0, 9)
    op = _synthetic_op(vals)
    v = np.arange(1.0, 10.0) + 0j
    for variant in ("dense-eigen", "krylov", "crank-nicolson"):
        method = SemigroupMethod(variant, dt=1e-4)
        out = heat_apply(op, v, 0.7, method)
        tol = 1e-10 if variant != "crank-nicolson" else 1e-6
        np.testing.assert_allclose(out, np.exp(-0.7 * vals) * v, rtol=tol, atol=tol)


def test_dense_vs_crank_nicolson_random_hermitian():
    rng = np.random.default_rng(1)
    grid = GridSpec(1, 3.0, 1.0)  # 49 sites
    b = rng.normal(size=(49, 49)) + 1j * rng.normal(size=(49, 49))
    h = 0.5 * (b + b.conj().T)
    h *= 4.0 / np.linalg.norm(h, 2)  # unit-scale spectrum; CN error is O(dt^2 ||A||^3)
    op = DiscreteOperator(sp.csr_matrix(h), "symmetric", 0, 0, grid, 1.0)
    v = rng.normal(size=49) + 1j * rng.normal(size=49)
    t = 1.0
    exact = heat_apply(op, v, t, SemigroupMethod("dense-eigen"))
    cn = heat_apply(op, v, t, SemigroupMethod("crank-nicolson", dt=t / 4096))
    assert np.linalg.norm(cn - exact) / np.linalg.norm(exact) < 1e-6


def test_dense_vs_krylov_on_model_operator():
    grid = GridSpec(1, 4.0, 0.4)
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    rng = np.random.default_rng(2)
    v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    a = heat_apply(op, v, 0.8, SemigroupMethod("dense-eigen"))
    b = heat_apply(op, v, 0.8, SemigroupMethod("krylov"))
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-7


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.3, 1.7)])
def test_semigroup_law(pair):
    s, t = pair
    grid = GridSpec(1, 4.0, 0.4)
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    rng = np.random.default_rng(3)
    v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    for variant, tol in (("dense-eigen", 1e-10), ("krylov", 1e-6)):
        method = SemigroupMethod(variant)
        two_step = heat_apply(op, heat_apply(op, v, s, method), t, method)
        one_step = heat_apply(op, v, s + t, method)
        assert np.linalg.norm(two_step - one_step) / np.linalg.norm(one_step) < tol


def test_dense_cap_enforced():
    grid = GridSpec(1, 5.0, 0.1)  # 10201 sites
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    v = np.zeros(op.dim, dtype=complex)
    with pytest.raises(ResourceLimitError):
        heat_apply(op, v + 1.0, 1.0, SemigroupMethod("dense-eigen"))


def test_krylov_nonconvergence_reports_residual():
    from heatlab.errors import NumericalError

    op = _random_hermitian_op()
    v = np.random.default_rng(5).normal(size=op.dim) + 0j
    starved = SemigroupMethod("krylov", krylov_dim=3, krylov_tol=1e-14)
    with pytest.raises(NumericalError) as err:
        heat_apply(op, v, 50.0, starved)
    assert err.value.residual is not None


# ---------------------------------------------------------------------------
# kernel_diagonal


def test_kernel_diagonal_model_values():
    spec = ModelSpec(1, (1.0,), 0)
    grid = GridSpec(1, 5.0, 0.2)
    op = assemble_model(spec, grid)
    got = kernel_diagonal(op, grid.origin_site(), 1.0).matrix[0, 0].real
    target = model_diagonal(spec, 1.0).matrix[0, 0].real
    assert abs(got - target) / target < 0.1  # coarse grid; acceptance tightens this


def test_kernel_diagonal_free_case():
    spec = ModelSpec(1, (0.0,), 0)
    grid = GridSpec(1, 5.0, 0.08)
    op = assemble_model(spec, grid)
    got = kernel_diagonal(op, grid.origin_site(), 1.0, SemigroupMethod("krylov")).matrix[0, 0].real
    target = 1.0 / (2 * np.pi)
    assert abs(got - target) / target < 0.02


def test_kernel_diagonal_q1_value():
    spec = ModelSpec(1, (1.0,), 1)
    grid = GridSpec(1, 5.0, 0.2)
    op = assemble_model(spec, grid)
    got = kernel_diagonal(op, grid.origin_site(), 1.0).matrix[0, 0].real
    lam = 1.0
    target = lam * np.exp(-lam) / (2 * np.pi * (1 - np.exp(-lam)))
    assert abs(got - target) / target < 0.1


def test_full_kernel_matrix_hermitian():
    grid = GridSpec(1, 2.0, 0.5)
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    w, vecs = op.eigensystem()
    kernel = (vecs * np.exp(-0.7 * w)) @ vecs.conj().T / grid.dv_cell
    scale = np.abs(kernel).max()
    assert np.abs(kernel - kernel.conj().T).max() <= 1e-8 * scale


def test_kernel_diagonal_dense_and_krylov_agree():
    grid = GridSpec(1, 4.0, 0.4)
    op = assemble_model(ModelSpec(1, (1.0,), 1), grid)
    a = kernel_diagonal(op, grid.origin_site(), 0.9, SemigroupMethod("dense-eigen")).matrix
    b = kernel_diagonal(op, grid.origin_site(), 0.9, SemigroupMethod("krylov")).matrix
    np.testing.assert_allclose(a, b, atol=1e-7 * np.abs(a).max())


# ---------------------------------------------------------------------------
# heat_trace


def test_trace_direct_sum():
    vals = np.array([0.0, 1.0, 2.0] + [50.0] * 6)
    op = _synthetic_op(vals)
    est = heat_trace(op, 1.0, SemigroupMethod("dense-eigen"))
    np.testing.assert_allclose(est.value, np.sum(np.exp(-vals)), rtol=1e-12)
    assert est.stderr == 0.0


def test_trace_refinement_is_cauchy():
    # same Dirichlet domain at every h (radius divisible by each spacing);
    # the box is small so every thermally relevant mode is resolved at the
    # coarsest spacing
    spec = ModelSpec(1, (1.0,), 0)
    traces = []
    for h in (0.28, 0.14, 0.07):
        grid = GridSpec(1, 1.4, h)
        op = assemble_model(spec, grid)
        traces.append(heat_trace(op, 1.0, SemigroupMethod("dense-eigen")).value)
    d1, d2 = abs(traces[1] - traces[0]), abs(traces[2] - traces[1])
    assert d2 <= d1 / 2.0


def test_trace_positive():
    for lam in ((1.0,), (-1.0,), (0.0,)):
        grid = GridSpec(1, 3.0, 0.5)
        op = assemble_model(ModelSpec(1, lam, 0), grid)
        assert heat_trace(op, 0.5, SemigroupMethod("dense-eigen")).value > 0


def test_stochastic_trace_matches_dense():
    grid = GridSpec(1, 5.0, 0.22)  # 2209 sites
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    dense = heat_trace(op, 1.0, SemigroupMethod("dense-eigen")).value
    est = heat_trace(op, 1.0, SemigroupMethod("krylov"), seed=123)
    assert est.stderr > 0
    assert abs(est.value - dense) <= 3.0 * est.stderr


def test_stochastic_trace_requires_seed():
    op = _synthetic_op(np.linspace(0, 1, 9))
    with pytest.raises(ArgumentError):
        heat_trace(op, 1.0, SemigroupMethod("krylov"))


# ---------------------------------------------------------------------------
# spectral_bound_check


def test_bound_n0_is_one():
    op = _synthetic_op(np.linspace(0.0, 5.0, 9))
    rep = spectral_bound_check(op, 1.0, 0)
    assert rep.passed and rep.bound == 1.0 and rep.max_value <= 1.0


def test_bound_attained_at_unit_eigenvalue():
    op = _synthetic_op(np.array([0.2, 1.0, 3.0] + [7.0] * 6))
    rep = spectral_bound_check(op, 1.0, 1)
    np.testing.assert_allclose(rep.max_value, 1.0 / np.e, rtol=1e-12)
    np.testing.assert_allclose(rep.attaining_eigenvalue, 1.0, atol=1e-12)
    assert rep.passed


def test_bound_on_model_operators():
    grid = GridSpec(1, 4.0, 0.4)
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    for n_power in (1, 2, 3):
        for t in (0.5, 1.0, 2.0):
            assert spectral_bound_check(op, t, n_power).passed


def test_bound_rejects_indefinite():
    from heatlab.errors import InvariantViolation

    op = _synthetic_op(np.array([-1.0] + [1.0] * 8))
    with pytest.raises(InvariantViolation):
        spectral_bound_check(op, 1.0, 1)


@pytest.fixture(scope="module")
def sparse_model_op():
    """A sparse-path n=1 operator (dim 2601) and its smallest eigenvalue."""
    op = assemble_model(ModelSpec(1, (1.0,), 0), GridSpec(1, 4.0, 0.16))
    assert op.dim > defaults.DENSE_AUTO_LIMIT
    lam_min = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
    return op, lam_min


def _shifted(op, shift):
    """A new operator (with empty caches) for op + shift*I."""
    return DiscreteOperator((op.matrix + shift * sp.identity(op.dim)).tocsr(), "symmetric",
                            op.q, op.k, op.grid, op.site_weight)


def _forbid_arpack(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("ARPACK called on the n=1 sparse path")

    monkeypatch.setattr(spla, "eigsh", boom)


@pytest.mark.parametrize("target, passes", [(-2.0, False), (-0.5, True)])
def test_certificate_resolves_tolerance(sparse_model_op, monkeypatch, target, passes):
    op, lam_min = sparse_model_op
    tol = 1e-8
    shifted = _shifted(op, target * tol - lam_min)
    _forbid_arpack(monkeypatch)
    if passes:
        rep = spectral_bound_check(shifted, 1.0, 1, psd_tol=tol)
        assert rep.passed and rep.bound == pytest.approx(1.0 / np.e)
        assert np.isnan(rep.max_value) and np.isnan(rep.attaining_eigenvalue)
    else:
        with pytest.raises(InvariantViolation):
            spectral_bound_check(shifted, 1.0, 1, psd_tol=tol)


def test_certificate_factorises_once_per_operator_and_tolerance(sparse_model_op, monkeypatch):
    op = _shifted(sparse_model_op[0], 0.0)
    _forbid_arpack(monkeypatch)
    calls = []
    real = sla.cholesky_banded

    def counting(ab, **kwargs):
        calls.append(ab.shape)
        assert ab.flags.f_contiguous and kwargs["overwrite_ab"]
        return real(ab, **kwargs)

    monkeypatch.setattr(sla, "cholesky_banded", counting)
    for n_power in range(4):
        for t in (0.5, 1.0, 2.0):
            assert spectral_bound_check(op, t, n_power).passed
    # half-bandwidth of the stabilised 51 x 51 grid: 4 grid rows
    assert calls == [(4 * 51 + 1, op.dim)]
    spectral_bound_check(op, 1.0, 0, psd_tol=1e-6)
    assert len(calls) == 2


def test_band_above_cap_falls_back_to_arpack(sparse_model_op, monkeypatch):
    op = _shifted(sparse_model_op[0], 0.0)
    # one byte below the (205, 2601) complex band
    monkeypatch.setattr(defaults, "BAND_CHOLESKY_MAX_BYTES", 16 * 205 * op.dim - 1)
    rep = spectral_bound_check(op, 1.0, 0)
    assert rep.passed and rep.attaining_eigenvalue == op._smallest[0]
    assert op._psd_certificate == {1e-8: None}


def test_bound_n2_sparse_uses_arpack(monkeypatch):
    grid = GridSpec(2, 1.5, 0.5)  # 7^4 = 2401 sites
    op = assemble_model(ModelSpec(2, (1.0, 0.5), 0), grid)
    assert op.dim > defaults.DENSE_AUTO_LIMIT
    calls = []
    real = spla.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting)
    for n_power in (2, 0):
        rep = spectral_bound_check(op, 1.0, n_power)
        assert rep.passed and np.isfinite(rep.max_value)
    assert calls == [16]
    # N = 0 scans e^{-ts}, which peaks at the smallest eigenvalue
    assert 0 < rep.attaining_eigenvalue == op._smallest[0] < 0.1


# ---------------------------------------------------------------------------
# converge_in_k


def test_zero_perturbation_errors_match_baseline():
    weight = WeightFunction(1, (1.0,))
    grid = GridSpec(1, 4.0, 0.25)
    report = converge_in_k(weight, None, 0, [1.0], [4, 16], grid)
    base = model_baseline_errors(weight, 0, [1.0], grid)
    for row in report.rows:
        assert abs(row.abs_err - base[1.0]) <= 1e-10


def test_k_list_must_increase():
    weight = WeightFunction(1, (1.0,))
    with pytest.raises(ArgumentError):
        converge_in_k(weight, None, 0, [1.0], [16, 4], GridSpec(1, 3.0, 0.5))


def test_report_rows_sorted_and_nonnegative():
    rows = (
        ConvergenceRow(4, 1.0, np.ones((1, 1)), np.ones((1, 1)), 0.1, 0.2),
        ConvergenceRow(2, 1.0, np.ones((1, 1)), np.ones((1, 1)), 0.1, 0.2),
    )
    from heatlab.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        ConvergenceReport(1, 0, rows)


def test_report_csv_format(tmp_path):
    weight = WeightFunction(1, (1.0,))
    grid = GridSpec(1, 3.0, 0.5)
    report = converge_in_k(weight, None, 0, [0.5], [4, 16], grid)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,t,q,row_J,col_J,re_value,im_value,re_model,im_model,abs_err,abs_err_sqrtk"
    assert len(lines) == 3
    assert lines[1].startswith("4,0.5,0,,,")
