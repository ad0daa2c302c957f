import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from heatlab import defaults, semigroup
from heatlab.errors import ArgumentError, InvariantViolation, ResourceLimitError
from heatlab.fiber import fiber_dim
from heatlab.geometry import WeightFunction
from heatlab.model_kernels import ModelSpec, model_diagonal
from heatlab.operators import (
    DiscreteOperator,
    GridSpec,
    PerturbationSpec,
    _GridOperators,
    _scaled,
    assemble_model,
    assemble_scaled,
)
from heatlab.semigroup import (
    SemigroupMethod,
    converge_in_k,
    heat_apply,
    heat_trace,
    heat_traces,
    kernel_diagonal,
    kernel_diagonals,
    model_baseline_errors,
    spectral_bound_check,
)


def _synthetic_op(diag_values, grid=None):
    grid = grid or GridSpec(1, 1.0, 1.0)
    vals = np.asarray(diag_values, dtype=float)
    assert vals.size == grid.sites
    return DiscreteOperator(sp.diags(vals).tocsr().astype(complex), 0, grid)


def _random_hermitian_op(dim_grid_radius=3.0):
    grid = GridSpec(1, dim_grid_radius, 1.0)
    rng = np.random.default_rng(42)
    b = rng.normal(size=(grid.sites, grid.sites)) + 1j * rng.normal(size=(grid.sites, grid.sites))
    h = 0.5 * (b + b.conj().T)
    return DiscreteOperator(sp.csr_matrix(h), 0, grid)


# ---------------------------------------------------------------------------
# heat_apply


def test_identity_at_tiny_time():
    op = _random_hermitian_op()
    v = np.random.default_rng(0).normal(size=op.dim) + 0j
    for variant in ("dense-eigen", "krylov"):
        out = heat_apply(op, v, 1e-9, SemigroupMethod(variant))
        assert np.linalg.norm(out - v) / np.linalg.norm(v) < 1e-6


@pytest.mark.parametrize("bad", [
    {"variant": "crank-nicolson"}, {"variant": "Krylov"}, {"variant": ""},
    {"variant": None}, {"variant": 1}, {"variant": "lanczos"},
    {"variant": "auto"},
])
def test_method_rejects_malformed_settings(bad):
    with pytest.raises(ArgumentError):
        SemigroupMethod(**bad)


def test_method_has_no_krylov_knobs():
    assert [f.name for f in dataclasses.fields(SemigroupMethod)] == ["variant"]
    with pytest.raises(TypeError):
        SemigroupMethod("krylov", krylov_dim=60)


def test_diagonal_operator_exact():
    vals = np.linspace(0.0, 4.0, 9)
    op = _synthetic_op(vals)
    v = np.arange(1.0, 10.0) + 0j
    for variant in ("dense-eigen", "krylov"):
        out = heat_apply(op, v, 0.7, SemigroupMethod(variant))
        np.testing.assert_allclose(out, np.exp(-0.7 * vals) * v, rtol=1e-10, atol=1e-10)


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


def test_default_method_never_diagonalises(monkeypatch):
    # dense-eigen is a reference run only when asked for, at every size
    grid = GridSpec(1, 4.0, 0.4)
    op = assemble_model(ModelSpec(1, (1.0,), 1), grid)
    assert op.dim == 441

    def boom(self):
        raise AssertionError("dense eigensolve without a dense-eigen method")

    monkeypatch.setattr(DiscreteOperator, "eigensystem", boom)
    monkeypatch.setattr(DiscreteOperator, "eigenvalues", boom)
    v = np.ones(op.dim, dtype=complex)
    krylov = SemigroupMethod("krylov")
    np.testing.assert_array_equal(heat_apply(op, v, 0.8), heat_apply(op, v, 0.8, krylov))
    got = kernel_diagonals(op, grid.origin_site(), [0.5, 1.0])
    ref = kernel_diagonals(op, grid.origin_site(), [0.5, 1.0], krylov)
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_dense_cap_enforced():
    grid = GridSpec(1, 5.0, 0.1)  # 10201 sites
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    v = np.zeros(op.dim, dtype=complex)
    with pytest.raises(ResourceLimitError):
        heat_apply(op, v + 1.0, 1.0, SemigroupMethod("dense-eigen"))


_TIMED_ENTRY_POINTS = {
    "heat_apply": lambda op, t: heat_apply(op, np.ones(op.dim, dtype=complex), t),
    "kernel_diagonals": lambda op, t: kernel_diagonals(op, op.grid.origin_site(), [0.5, t]),
    "heat_traces": lambda op, t: heat_traces(op, [t]),
    "spectral_bound_check": lambda op, t: spectral_bound_check(op, t, 1),
}


@pytest.mark.parametrize("entry", list(_TIMED_ENTRY_POINTS))
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_time_must_be_finite_and_positive(entry, t):
    op = _synthetic_op(np.linspace(0.0, 5.0, 9))
    with pytest.raises(ArgumentError, match="finite and positive"):
        _TIMED_ENTRY_POINTS[entry](op, t)


def test_krylov_nonconvergence_reports_residual(monkeypatch):
    # no floor: the Gershgorin lower end (-49.9) is far below lambda_min
    # (-12.7), so t = 2 needs restarts from halvings; with none allowed the
    # propagator fails and reports its rounding estimate
    from heatlab.errors import NumericalError

    op = _random_hermitian_op()
    v = np.random.default_rng(5).normal(size=op.dim) + 0j
    expected = heat_apply(op, v, 2.0, SemigroupMethod("dense-eigen"))
    got = heat_apply(op, v, 2.0)
    assert "psd" not in op._memo
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    monkeypatch.setattr(semigroup, "_MAX_HALVINGS", 0)
    with pytest.raises(NumericalError) as err:
        heat_apply(op, v, 2.0)
    assert err.value.residual > semigroup._ROUNDING_LIMIT


@pytest.fixture(scope="module")
def trace_model_op():
    """The dim-1089 model operator of the stochastic trace config, its dense
    eigensystem, and a Rademacher and a delta start vector."""
    op = assemble_model(ModelSpec(1, (1.0,), 0), GridSpec(1, 4.0, 0.25))
    assert op.dim == 1089
    rademacher = np.random.default_rng(7).choice([-1.0, 1.0], size=op.dim).astype(complex)
    delta = np.zeros(op.dim, dtype=complex)
    delta[op.dim // 2] = 1.0
    return op, op.eigensystem(), {"rademacher": rademacher, "delta": delta}


def _dense_action(op, xi, ts):
    """e^{-tA} xi per t (first axis), from the dense eigensystem."""
    w, vecs = op.eigensystem()
    coef = vecs.conj().T @ xi
    return np.array([vecs @ (np.exp(-t * w)[:, None] * coef) for t in ts])


@pytest.mark.parametrize("start", ["rademacher", "delta"])
@pytest.mark.parametrize("ts", [
    (0.5, 1.0, 2.0),
    (8.0,),
    (2.0, 0.5, 1.0, 0.5),  # unsorted, with a duplicate
])
def test_chebyshev_block_matches_dense(trace_model_op, start, ts):
    # the propagated block is within its a-priori bound of the exact action,
    # in the order of ts, and its squares are the squared norms
    op, _, starts = trace_model_op
    xi = starts[start][:, None]
    got = semigroup._ChebyshevBlock(op).propagate(xi, ts)
    exact = _dense_action(op, xi, ts)
    assert got.ys.shape == (len(ts), op.dim, 1)
    gap = np.linalg.norm(got.ys - exact, axis=1)
    assert np.all(gap <= got.errs + 1e-13 * np.linalg.norm(exact, axis=1))
    np.testing.assert_allclose(got.squares, np.linalg.norm(got.ys, axis=1) ** 2, rtol=1e-14)


@pytest.mark.parametrize("start", ["rademacher", "delta"])
@pytest.mark.parametrize("ts", [
    (2.0,),  # no sweep is trusted at t = 2: restarts from a halving
    (0.5, 1.0, 2.0),  # restarts from the furthest trusted time
])
def test_chebyshev_block_restarts_match_dense(trace_model_op, monkeypatch, start, ts):
    # on the Gershgorin interval, whose lower end is far below the floor,
    # e^{-tau a} swamps the result by t = 1; the restarted block is still
    # within its a-priori bound of the exact action, and within 1e-8 of it
    op, _, starts = trace_model_op
    monkeypatch.setattr(semigroup, "_spectral_interval",
                        lambda o: semigroup._gershgorin(o.matrix)[:2])
    sweeps = []
    real = semigroup._ChebyshevBlock.sweep

    def recording(block, xi, taus):
        sweeps.append(list(taus))
        return real(block, xi, taus)

    monkeypatch.setattr(semigroup._ChebyshevBlock, "sweep", recording)
    block = semigroup._ChebyshevBlock(op)
    assert block.low < -10.0
    xi = starts[start][:, None]
    got = block.propagate(xi, ts)
    assert sweeps[0] == list(ts) and len(sweeps) > 1
    exact = _dense_action(op, xi, ts)
    gap = np.linalg.norm(got.ys - exact, axis=1)
    assert np.all(gap <= got.errs + 1e-13 * np.linalg.norm(exact, axis=1))
    assert np.all(gap <= 1e-8 * np.linalg.norm(exact, axis=1))


def test_krylov_zero_vector_stays_zero():
    op = _random_hermitian_op()
    out = heat_apply(op, np.zeros(op.dim, dtype=complex), 1.0, SemigroupMethod("krylov"))
    assert not out.any()


_BOUND_TS = (0.5, 2.0, 8.0)


@pytest.mark.parametrize("t", _BOUND_TS)
def test_heat_apply_within_a_priori_bound_of_dense(trace_model_op, t):
    op, _, starts = trace_model_op
    v = starts["rademacher"]
    exact = _dense_action(op, v[:, None], [t])[0, :, 0]
    (bound,) = semigroup._ChebyshevBlock(op).propagate(v[:, None], [t]).errs[0]
    gap = np.linalg.norm(heat_apply(op, v, t) - exact)
    assert gap <= bound + 1e-13 * np.linalg.norm(exact)


@pytest.fixture(scope="module")
def n2q1_op():
    """The d = 2 scaled operator of the Gram tests (dim 1250)."""
    return _GRAM_OPS["n2q1"]()


@pytest.mark.parametrize("t", _BOUND_TS)
def test_kernel_diagonals_within_a_priori_bound_of_dense(n2q1_op, t):
    # two fiber deltas with nonzero off-diagonal coupling; the Gram entry
    # b, c is off by at most E_b ||y_c|| + E_c ||y_b|| + E_b E_c
    op = n2q1_op
    assert op._floor is not None and op.fiber_dim == 2
    site = op.grid.origin_site()
    got = kernel_diagonal(op, site, t).matrix
    exact = kernel_diagonal(op, site, t, SemigroupMethod("dense-eigen")).matrix
    deltas = np.zeros((op.dim, 2), dtype=complex)
    deltas[[op.grid.flat_index(site), op.grid.sites + op.grid.flat_index(site)], [0, 1]] = 1.0
    prop = semigroup._ChebyshevBlock(op).propagate(deltas, [0.5 * t])
    e, y = prop.errs[0], np.sqrt(prop.squares[0])
    bound = (np.outer(e, y) + np.outer(y, e) + np.outer(e, e)) / op.grid.dv_cell
    assert np.all(np.abs(got - exact) <= bound + 1e-13 * np.abs(exact).max())


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


@pytest.mark.parametrize("variant", ["dense-eigen", "krylov"])
def test_empty_time_list_gives_empty_results(variant):
    grid = GridSpec(1, 2.0, 0.5)
    op = assemble_model(ModelSpec(1, (1.0,), 0), grid)
    method = SemigroupMethod(variant)
    assert kernel_diagonals(op, grid.origin_site(), [], method) == []
    assert heat_traces(op, [], method, seed=1) == []


@pytest.mark.parametrize("variant", ["dense-eigen", "krylov"])
def test_kernel_diagonals_follow_caller_order(variant):
    grid = GridSpec(1, 4.0, 0.4)
    op = assemble_model(ModelSpec(1, (1.0,), 1), grid)
    method = SemigroupMethod(variant)
    ts = (0.9, 0.3, 0.9)
    joint = kernel_diagonals(op, grid.origin_site(), ts, method)
    assert len(joint) == len(ts)
    for t, diag in zip(ts, joint):
        single = kernel_diagonal(op, grid.origin_site(), t, method).matrix
        np.testing.assert_allclose(diag.matrix, single, rtol=1e-10, atol=0)


def _frame_perturbation(y):
    return np.array([[0.0, 0.5 * y[0]], [0.3 * y[1], 0.0]], dtype=complex)


_GRAM_OPS = {
    "n1": lambda: assemble_model(ModelSpec(1, (1.0,), 0), GridSpec(1, 4.0, 0.4)),
    # d = 2 with nonzero off-diagonal fiber entries
    "n2q1": lambda: assemble_scaled(WeightFunction(2, (1.0, -0.5)),
                                    PerturbationSpec(r=_frame_perturbation), 1,
                                    GridSpec(2, 1.0, 0.5), 1),
}


@pytest.mark.parametrize("case", list(_GRAM_OPS))
def test_kernel_diagonals_are_half_time_gram_matrices(case):
    op = _GRAM_OPS[case]()
    ts = (0.5, 1.0, 2.0)
    dense = kernel_diagonals(op, op.grid.origin_site(), ts, SemigroupMethod("dense-eigen"))
    krylov = kernel_diagonals(op, op.grid.origin_site(), ts)
    for a, b in zip(dense, krylov):
        scale = np.abs(a.matrix).max()
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12 * scale
        for m in (a.matrix, b.matrix):
            assert np.array_equal(m, m.conj().T)
            assert np.linalg.eigvalsh(m).min() >= -1e-14 * np.abs(m).max()
    if case == "n2q1":
        assert np.abs(krylov[0].matrix[0, 1]) > 1e-6


def test_kernel_diagonals_reach_half_time_without_restart(monkeypatch):
    # every fiber delta advances as one block to every t/2 in one sweep,
    # on the floor of the assembled operator: no certificate, no restart
    op = assemble_model(ModelSpec(1, (1.0,), 1), GridSpec(1, 5.0, 0.1))
    site, ts = op.grid.origin_site(), [0.5, 1.0]
    sweeps = []
    real = semigroup._ChebyshevBlock.sweep

    def recording(block, xi, taus):
        sweeps.append((xi.shape[1], list(taus)))
        return real(block, xi, taus)

    monkeypatch.setattr(semigroup._ChebyshevBlock, "sweep", recording)
    calls = _count_band_factorisations(monkeypatch)
    got = kernel_diagonals(op, site, ts)
    assert sweeps == [(op.fiber_dim, [0.25, 0.5])] and calls == []
    # the semigroup law: two quarter-time steps reach the same half-time vector
    delta = np.zeros(op.dim, dtype=complex)
    delta[op.grid.flat_index(site)] = 1.0
    half = heat_apply(op, heat_apply(op, delta, 0.25), 0.25)
    value = np.linalg.norm(half) ** 2 / op.grid.dv_cell
    assert abs(got[1].matrix[0, 0] - value) <= 1e-13 * value


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


class _CountingMatrix:
    """A sparse matrix that records the column count of every product."""

    def __init__(self, matrix):
        self.matrix, self.widths = matrix, []

    def __matmul__(self, block):
        self.widths.append(block.shape[1])
        return self.matrix @ block


def test_heat_traces_share_one_block_sweep(trace_model_op, monkeypatch):
    op = trace_model_op[0]
    ts, probes = (2.0, 0.5, 1.0), 8
    method = SemigroupMethod("krylov")
    single = [heat_trace(op, t, method, seed=11, probes=probes) for t in ts]
    sweeps = []
    real = semigroup._ChebyshevBlock.sweep

    def counting(block, xi, taus):
        block.matrix = _CountingMatrix(block.matrix)
        out = real(block, xi, taus)
        sweeps.append((sorted(taus), block.matrix.widths, out.degree))
        block.matrix = block.matrix.matrix
        return out

    monkeypatch.setattr(semigroup._ChebyshevBlock, "sweep", counting)
    joint = heat_traces(op, ts, method, seed=11, probes=probes)
    # one sweep for all probes and times: one product of all probes per degree
    ((taus, widths, degree),) = sweeps
    assert taus == [0.25, 0.5, 1.0]
    assert degree > 0 and widths == [probes] * degree
    for a, b in zip(joint, single):
        assert (a.probes, a.method) == (probes, "krylov")
        assert abs(a.value - b.value) <= 1e-10 * abs(b.value)
        assert abs(a.stderr - b.stderr) <= 1e-10 * abs(b.stderr)


def _exact_half_time_samples(op, xi, ts):
    """||e^{-(t/2)A} xi||^2 per column of xi (rows) and t (columns), from
    the dense eigensystem."""
    w, vecs = op.eigensystem()
    weights = np.abs(vecs.conj().T @ xi) ** 2
    return np.array([np.exp(-t * w) @ weights for t in ts]).T


@pytest.fixture(scope="module")
def small_model_op():
    """A small q=1 model operator (dim 289) and four Rademacher probes."""
    op = assemble_model(ModelSpec(1, (1.0,), 1), GridSpec(1, 2.0, 0.25))
    assert op.dim == 289
    return op, semigroup._rademacher_block(np.random.default_rng(3), op.dim, 4)


_TS = (0.5, 2.0, 8.0)


def test_chebyshev_samples_within_a_priori_bound(small_model_op):
    op, xi = small_model_op
    block = semigroup._ChebyshevBlock(op)
    assert block.low == op._floor  # the assembler's floor, min Theta_0 = 1 less rounding
    assert 1.0 - 1e-12 < op._floor < 1.0 and "psd" not in op._memo
    prop = block.propagate(xi, [t / 2 for t in _TS])
    samples, errs = prop.squares.T, prop.errs.T
    bounds = errs * (2.0 * np.sqrt(samples) + errs)
    exact = _exact_half_time_samples(op, xi, _TS)
    assert np.all(bounds > 0)
    # the bound sits below unit roundoff of each sample; the allowance
    # covers the rounding of the sweep and of the dense eigensystem
    assert np.all(bounds <= 2**-50 * samples)
    assert np.all(np.abs(samples - exact) <= bounds + 1e-13 * exact)


def test_chebyshev_tail_bounds_truncation_error(small_model_op):
    # the partial sums are within tail[K] ||xi|| of the exact half-time
    # vector at every degree K, not only where a sweep stops
    op, xi = small_model_op
    taus = [t / 2 for t in _TS]
    block = semigroup._ChebyshevBlock(op)
    coef, tail, cap = block._expansion(np.array(taus))
    w, vecs = op.eigensystem()
    exact = [vecs @ (np.exp(-tau * w)[:, None] * (vecs.conj().T @ xi)) for tau in taus]
    xi_norm = np.linalg.norm(xi, axis=0)
    prev, cur = None, xi
    partial = [c * xi for c in coef[0]]
    for k in range(1, cap + 1):
        nxt = block.matrix @ cur
        nxt = 0.5 * nxt if prev is None else nxt - prev
        prev, cur = cur, nxt
        for i, c in enumerate(coef[k]):
            partial[i] = partial[i] + c * cur
            gap = np.linalg.norm(partial[i] - exact[i], axis=0)
            allowance = 1e-13 * np.linalg.norm(exact[i], axis=0)
            assert np.all(gap <= tail[k, i] * xi_norm + allowance), (k, taus[i])


@pytest.mark.parametrize("dim, width", [(1089, 64), (1089, 7), (13, 3), (1, 5)])
def test_rademacher_block_matches_per_column_draws(dim, width):
    # the one draw of the whole block gives the probes and the generator
    # state that drawing the columns one after another gave
    rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
    block = semigroup._rademacher_block(rng, dim, width)
    reference = np.empty((dim, width), dtype=complex)
    for j in range(width):
        reference[:, j] = reference_rng.choice([-1.0, 1.0], size=dim)
    assert block.flags.c_contiguous and np.array_equal(block, reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def _dense_traces_of_probes(op, ts, seed, probes):
    """The Hutchinson means of heat_traces' probes, from dense-eigen."""
    xi = semigroup._rademacher_block(np.random.default_rng(seed), op.dim, probes)
    return _exact_half_time_samples(op, xi, ts).mean(axis=0)


def test_chebyshev_trace_with_gershgorin_lower_end():
    # without a floor the interval is the Gershgorin one, and no
    # certificate is asked for
    op = _synthetic_op(np.linspace(-3.0, 40.0, 9))
    assert semigroup._spectral_interval(op) == (-3.0, 40.0)
    assert "psd" not in op._memo
    ests = heat_traces(op, _TS, seed=5, probes=6)
    for est, value in zip(ests, _dense_traces_of_probes(op, _TS, 5, 6)):
        assert abs(est.value - value) <= 1e-13 * value


def test_chebyshev_trace_when_the_band_exceeds_its_cap(small_model_op, monkeypatch):
    # a sweep never asks for the certificate, so a band above its cap does
    # not stop the trace of an operator without a floor
    op = _shifted(small_model_op[0], 0.0)
    monkeypatch.setattr(defaults, "BAND_CHOLESKY_MAX_BYTES", 16)
    with pytest.raises(ResourceLimitError):
        op._positive()
    ests = heat_traces(op, _TS, seed=9, probes=4)
    for est, value in zip(ests, _dense_traces_of_probes(op, _TS, 9, 4)):
        assert abs(est.value - value) <= 1e-12 * value


def test_operator_without_floor_sweeps_from_gershgorin(small_model_op, monkeypatch):
    # a copy built outside the assemblers has no floor: it sweeps from its
    # Gershgorin lower end, far below lambda_min = 1, so t = 8 cancels
    # e^{-4a} and the block restarts; no certificate is asked for
    op = _shifted(small_model_op[0], 0.0)
    low = semigroup._gershgorin(op.matrix)[0]
    assert op._floor is None and low < -10.0
    sweeps = []
    real = semigroup._ChebyshevBlock.sweep

    def recording(block, xi, taus):
        sweeps.append(list(taus))
        return real(block, xi, taus)

    monkeypatch.setattr(semigroup._ChebyshevBlock, "sweep", recording)
    assert semigroup._ChebyshevBlock(op).low == low
    ests = heat_traces(op, _TS, seed=9, probes=4)
    assert len(sweeps) > 1 and sweeps[0] == [0.25, 1.0, 4.0]
    for est, value in zip(ests, _dense_traces_of_probes(op, _TS, 9, 4)):
        assert abs(est.value - value) <= 1e-12 * value
    assert "psd" not in op._memo


def test_floor_lets_a_large_operator_sweep_once(monkeypatch):
    # dim 28 561: the positivity band is above its cap, and the Gershgorin
    # lower end (-21.9) would force restarts; the floor min Theta_0 = 0
    # gives one sweep for all probes and times, with no factorisation
    op = assemble_model(ModelSpec(2, (1.0, 0.5), 0), GridSpec(2, 1.5, 0.25))
    assert op.dim == 28561 and semigroup._gershgorin(op.matrix)[0] < -20.0
    assert -1e-12 < op._floor < 0.0
    sweeps = []
    real = semigroup._ChebyshevBlock.sweep

    def recording(block, xi, taus):
        out = real(block, xi, taus)
        sweeps.append((list(taus), bool(np.all(out.rounding <= semigroup._ROUNDING_LIMIT))))
        return out

    monkeypatch.setattr(semigroup._ChebyshevBlock, "sweep", recording)
    calls = _count_band_factorisations(monkeypatch)
    ests = heat_traces(op, (0.5, 1.0, 2.0), seed=3, probes=8)
    assert sweeps == [([0.25, 0.5, 1.0], True)] and calls == []
    assert all(est.value > 0 for est in ests)


def test_trace_probes_advance_in_slabs(trace_model_op, monkeypatch):
    op = trace_model_op[0]
    ts = (0.5, 2.0)
    whole = heat_traces(op, ts, seed=4, probes=5)
    widths = []
    real = semigroup._ChebyshevBlock.sweep

    def recording(block, xi, taus):
        widths.append(xi.shape[1])
        return real(block, xi, taus)

    monkeypatch.setattr(semigroup._ChebyshevBlock, "sweep", recording)
    monkeypatch.setattr(defaults, "TRACE_BLOCK_BYTES", 16 * (3 + len(ts)) * op.dim * 2)
    slabbed = heat_traces(op, ts, seed=4, probes=5)
    assert widths == [2, 2, 1]
    for a, b in zip(slabbed, whole):
        assert abs(a.value - b.value) <= 1e-13 * b.value
        assert abs(a.stderr - b.stderr) <= 1e-11 * b.stderr


@pytest.mark.parametrize("seed", range(8))
def test_trace_samples_are_nonnegative(trace_model_op, seed):
    # with two probes the samples are value -+ stderr; each one is the
    # squared norm of e^{-(t/2)A} xi
    for est in heat_traces(trace_model_op[0], (0.5, 2.0, 8.0), seed=seed, probes=2):
        assert est.value - est.stderr >= 0


@pytest.mark.parametrize("probes", [1, 0])
def test_stochastic_trace_requires_two_probes(probes):
    op = _synthetic_op(np.linspace(0, 1, 9))
    method = SemigroupMethod("krylov")
    with pytest.raises(ArgumentError):
        heat_trace(op, 1.0, method, seed=1, probes=probes)
    with pytest.raises(ArgumentError):
        heat_traces(op, [0.5, 1.0], method, seed=1, probes=probes)


def test_stochastic_trace_requires_seed():
    op = _synthetic_op(np.linspace(0, 1, 9))
    with pytest.raises(ArgumentError):
        heat_trace(op, 1.0, SemigroupMethod("krylov"))


# ---------------------------------------------------------------------------
# spectral_bound_check


def test_bound_n0_is_one():
    op = _synthetic_op(np.linspace(0.0, 5.0, 9))
    rep = spectral_bound_check(op, 1.0, 0)
    assert rep.passed and rep.bound == 1.0
    assert np.isnan(rep.max_value)


def test_bound_on_zero_operator():
    # no stored entry at all: the band is the diagonal of tol*I
    op = _synthetic_op(np.zeros(9))
    assert op.matrix.nnz == 0 and spectral_bound_check(op, 1.0, 2).passed


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
    for n_power in (-1, 5):
        with pytest.raises(ArgumentError, match="N must be between 0 and 4"):
            spectral_bound_check(_synthetic_op(np.ones(9)), 1.0, n_power)


def test_heat_apply_copies_at_zero_and_checks_shape():
    op = _synthetic_op(np.linspace(0.0, 4.0, 9))
    v = np.arange(9, dtype=complex)
    out = heat_apply(op, v, 0.0)
    assert np.array_equal(out, v) and out is not v and not np.shares_memory(out, v)
    for bad in (np.ones(8), np.ones((9, 1))):
        with pytest.raises(ArgumentError, match=r"shape \(9,\)"):
            heat_apply(op, bad, 1.0)


@pytest.fixture(scope="module")
def sparse_model_op():
    """An n=1 operator (dim 2601) and its smallest eigenvalue."""
    op = assemble_model(ModelSpec(1, (1.0,), 0), GridSpec(1, 4.0, 0.16))
    assert op.dim == 2601
    lam_min = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
    return op, lam_min


@pytest.fixture(scope="module")
def dense_model_op():
    """A small n=1 operator (dim 441) and its smallest eigenvalue."""
    op = assemble_model(ModelSpec(1, (1.0,), 0), GridSpec(1, 4.0, 0.4))
    assert op.dim == 441
    return op, float(np.linalg.eigvalsh(op.matrix.toarray())[0])


@pytest.fixture(scope="module")
def sparse_model_op_n2():
    """An n=2 operator (dim 2401) and its smallest eigenvalue.

    The q=0 model is the Kronecker sum of the two n=1 models on 7 x 7
    grids, so its smallest eigenvalue is the sum of theirs.
    """
    lam = (1.0, 0.5)
    op = assemble_model(ModelSpec(2, lam, 0), GridSpec(2, 1.5, 0.5))
    assert op.dim == 2401
    f1, f2 = (assemble_model(ModelSpec(1, (lj,), 0), GridSpec(1, 1.5, 0.5)).matrix
              for lj in lam)
    kron_sum = sp.kron(f1, sp.identity(f2.shape[0])) + sp.kron(sp.identity(f1.shape[0]), f2)
    assert abs(op.matrix - kron_sum).max() <= 1e-13 * abs(op.matrix).max()
    lam_min = sum(float(np.linalg.eigvalsh(f.toarray())[0]) for f in (f1, f2))
    return op, lam_min


def _shifted(op, shift):
    """A new operator (with empty caches) for op + shift*I."""
    return DiscreteOperator((op.matrix + shift * sp.identity(op.dim)).tocsr(), op.q, op.grid)


def _forbid_arpack(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("ARPACK called by the positivity check")

    monkeypatch.setattr(spla, "eigsh", boom)


def _count_band_factorisations(monkeypatch):
    """Spy on the banded Cholesky: the list of band shapes it factorises."""
    calls = []
    real = sla.cholesky_banded

    def counting(ab, **kwargs):
        calls.append(ab.shape)
        assert ab.flags.f_contiguous and kwargs["overwrite_ab"]
        return real(ab, **kwargs)

    monkeypatch.setattr(sla, "cholesky_banded", counting)
    return calls


_CERTIFIED_OPS = {1: "sparse_model_op", 2: "sparse_model_op_n2", "dense": "dense_model_op"}


@pytest.mark.parametrize("case", list(_CERTIFIED_OPS))
@pytest.mark.parametrize("target, passes", [(-2.0, False), (-0.5, True)])
def test_certificate_resolves_tolerance(request, monkeypatch, case, target, passes):
    op, lam_min = request.getfixturevalue(_CERTIFIED_OPS[case])
    tol = 1e-8
    shifted = _shifted(op, target * tol - lam_min)
    _forbid_arpack(monkeypatch)
    if passes:
        rep = spectral_bound_check(shifted, 1.0, 1)
        assert rep.passed and rep.bound == pytest.approx(1.0 / np.e)
        assert np.isnan(rep.max_value)
    else:
        with pytest.raises(InvariantViolation):
            spectral_bound_check(shifted, 1.0, 1)


def test_verdict_ignores_cached_eigensystem(monkeypatch):
    # dim 441 with max|w| ~ 64, so a spectrum scan scaled by max(1, max|w|)
    # would accept lambda_min = -10 tol once the dense eigensystem is
    # cached; the certificate rejects it either way
    op = assemble_model(ModelSpec(1, (1.0,), 0), GridSpec(1, 2.0, 0.2))
    assert op.dim == 441
    tol = 1e-8
    lam_min = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
    calls = _count_band_factorisations(monkeypatch)
    fresh, cached = (_shifted(op, -10 * tol - lam_min) for _ in range(2))
    cached.eigensystem()
    for shifted in (fresh, cached):
        with pytest.raises(InvariantViolation):
            spectral_bound_check(shifted, 1.0, 1)
    assert len(calls) == 2


def test_certificate_factorises_once_per_operator(sparse_model_op, monkeypatch):
    op = _shifted(sparse_model_op[0], 0.0)
    _forbid_arpack(monkeypatch)
    calls = _count_band_factorisations(monkeypatch)
    for n_power in range(4):
        for t in (0.5, 1.0, 2.0):
            assert spectral_bound_check(op, t, n_power).passed
    # half-bandwidth of the stabilised 51 x 51 grid: 4 grid rows
    assert calls == [(4 * 51 + 1, op.dim)]


def test_band_above_cap_raises_resource_limit(sparse_model_op, monkeypatch):
    op = _shifted(sparse_model_op[0], 0.0)
    _forbid_arpack(monkeypatch)
    band_bytes = 16 * 205 * op.dim  # the (205, 2601) complex band
    monkeypatch.setattr(defaults, "BAND_CHOLESKY_MAX_BYTES", band_bytes - 1)
    with pytest.raises(ResourceLimitError, match=f"{band_bytes} bytes.*cap {band_bytes - 1}"):
        spectral_bound_check(op, 1.0, 0)
    assert "psd" not in op._memo
    monkeypatch.setattr(defaults, "BAND_CHOLESKY_MAX_BYTES", band_bytes)
    assert spectral_bound_check(op, 1.0, 0).passed


@pytest.mark.parametrize("q", [0, 1])
def test_bound_n2_is_decided_by_its_floor(monkeypatch, q):
    grid = GridSpec(2, 1.5, 0.5)  # 7^4 = 2401 sites
    op = assemble_model(ModelSpec(2, (1.0, 0.5), q), grid)
    assert op.dim == fiber_dim(2, q) * grid.sites == (2401, 4802)[q]
    _forbid_arpack(monkeypatch)
    calls = _count_band_factorisations(monkeypatch)
    for n_power in (2, 0):
        rep = spectral_bound_check(op, 1.0, n_power)
        assert rep.passed and np.isnan(rep.max_value)
    # the floor, min Theta_0 less rounding, decides: no band is factorised
    assert op._floor > -1e-8 and calls == []


def _bench_n2_frame(y):
    return np.array([[0.0, 0.1 * y[0]], [0.05 * y[1], 0.0]], dtype=complex)


@pytest.mark.parametrize("lam, q, passes", [((-1.0, -0.7), 2, False), ((1.0, -0.5), 1, True)])
def test_inconclusive_floor_still_factorises(monkeypatch, lam, q, passes):
    # floors of -3.4 and -1.0 decide nothing; one band each rejects
    # lambda_min = -0.246 (dim 625) and passes lambda_min = 0.052 (dim 1250)
    op = assemble_scaled(WeightFunction(2, lam), PerturbationSpec(r=_bench_n2_frame), 4,
                         GridSpec(2, 1.0, 0.5), q)
    assert op._floor <= -1.0 and op.dim == (625, 1250)[passes]
    calls = _count_band_factorisations(monkeypatch)
    if passes:
        assert spectral_bound_check(op, 1.0, 1).passed
    else:
        with pytest.raises(InvariantViolation):
            spectral_bound_check(op, 1.0, 1)
    assert len(calls) == 1


# The operators, kernel diagonals and 24 spectral bound checks of
# perfbench's model pass, as a script.
_MODEL_PASS = """
from heatlab.model_kernels import ModelSpec
from heatlab.operators import GridSpec, assemble_model
from heatlab.semigroup import kernel_diagonal, spectral_bound_check
grid = GridSpec(1, 5.0, 0.1)
for q in (0, 1):
    op = assemble_model(ModelSpec(1, (1.0,), q), grid)
    kernel_diagonal(op, grid.origin_site(), 1.0)
    for n_power in range(4):
        for t in (0.5, 1.0, 2.0):
            assert spectral_bound_check(op, t, n_power).passed
"""


def test_model_pass_never_factorises(monkeypatch):
    # the floors decide every check
    calls = _count_band_factorisations(monkeypatch)
    exec(_MODEL_PASS, {})
    assert calls == []


# ---------------------------------------------------------------------------
# converge_in_k


def test_zero_perturbation_errors_match_baseline():
    weight = WeightFunction(1, (1.0,))
    grid = GridSpec(1, 4.0, 0.25)
    report = converge_in_k(weight, None, 0, [1.0], [4, 16], grid)
    base = model_baseline_errors(weight, 0, [1.0], grid)
    for row in report.rows:
        assert abs(row.abs_err - base[1.0]) <= 1e-10


def test_converge_builds_the_grid_parts_once(monkeypatch):
    weight = WeightFunction(1, (1.0,))
    grid = GridSpec(1, 3.0, 0.5)
    built = []
    real = _GridOperators.__init__

    def counting(self, grid):
        built.append(grid)
        real(self, grid)

    monkeypatch.setattr(_GridOperators, "__init__", counting)
    report = converge_in_k(weight, None, 1, [0.5], [4, 16, 64, 256], grid)
    assert built == [grid] and len(report.rows) == 4
    monkeypatch.setattr(_GridOperators, "__init__", real)
    # each k gets the operator a fresh assembly gives, floor included
    fresh = assemble_scaled(weight, None, 16, grid, 1)
    assemble = _scaled(weight, None, grid, 1)
    assemble(4)
    shared = assemble(16)
    assert (fresh.matrix != shared.matrix).nnz == 0 and fresh._floor == shared._floor


def _loaded_after(code):
    """The modules among scipy.linalg and scipy.io that a fresh interpreter
    has loaded after running code."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    probe = code + ("\nimport sys; print(sorted(m for m in ('scipy.linalg', 'scipy.io') "
                    "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120, check=True)
    return proc.stdout.strip()


def test_semigroup_import_leaves_scipy_linalg_unloaded():
    assert _loaded_after("import heatlab.semigroup, heatlab.operators") == "[]"


def test_model_pass_leaves_scipy_linalg_unloaded():
    # the checks never reach the banded Cholesky, whose module is then
    # never imported
    assert _loaded_after(_MODEL_PASS) == "[]"


def test_k_list_must_increase():
    weight = WeightFunction(1, (1.0,))
    with pytest.raises(ArgumentError):
        converge_in_k(weight, None, 0, [1.0], [16, 4], GridSpec(1, 3.0, 0.5))
