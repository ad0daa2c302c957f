import itertools

import numpy as np
import pytest

import heatlab.torus as torus
from heatlab.errors import AccuracyError, ArgumentError
from heatlab.geometry import CurvatureEndomorphism, asymptotic_diagonal, heat_factor
from heatlab.torus import (
    EllipticCurveBundle,
    heat_trace_exact,
    heat_trace_truncated,
    landau_spectrum,
    magnetic_torus_operator,
    morse_trace_inequality,
    product_torus_morse,
    riemann_roch_dims,
    validate_landau_levels,
)


def test_bundle_identity_lambda_area():
    b = EllipticCurveBundle(0.3 + 1.7j, 4)
    assert abs(b.lambda_scalar * b.area - 2 * np.pi * b.degree) < 1e-12
    with pytest.raises(ArgumentError):
        EllipticCurveBundle(1.0 - 0.5j, 1)
    with pytest.raises(ArgumentError):
        EllipticCurveBundle(1j, 0)


_B1, _B2 = EllipticCurveBundle(1j, 2), EllipticCurveBundle(1j, -3)
_CLOSED_FORMS = {
    "heat_factor": lambda t: heat_factor(1.0, t),
    "asymptotic_diagonal": lambda t: asymptotic_diagonal(CurvatureEndomorphism.diagonal([1.0]),
                                                         0, t),
    "heat_trace_exact": lambda t: heat_trace_exact(_B1, 1, 0, t),
    "heat_trace_truncated": lambda t: heat_trace_truncated(_B1, 1, 0, t, 40),
    "morse_trace_inequality": lambda t: morse_trace_inequality(_B1, 1, 0, t),
    "product_torus_morse": lambda t: product_torus_morse(_B1, _B2, 1, 0, t),
}


@pytest.mark.parametrize("entry", list(_CLOSED_FORMS))
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_closed_forms_reject_bad_time(entry, t):
    with pytest.raises(ArgumentError, match="finite and positive"):
        _CLOSED_FORMS[entry](t)


@pytest.mark.parametrize("k, q, cutoff, message", [
    (0, 0, 2, "k must be"), (1, 2, 2, "q must be 0 or 1"), (1, -1, 2, "q must be 0 or 1"),
    (1, 0, -1, "cutoff must be nonnegative"),
])
def test_landau_spectrum_rejects_bad_arguments(k, q, cutoff, message):
    with pytest.raises(ArgumentError, match=message):
        landau_spectrum(_B1, k, q, cutoff)


# ---------------------------------------------------------------------------
# landau_spectrum


def test_ground_multiplicity_is_riemann_roch():
    b = EllipticCurveBundle(1j, 1)
    table = landau_spectrum(b, 1, 0, 3)
    assert table.rows[0] == (0.0, 1)
    assert riemann_roch_dims(1, 1) == (1, 0)
    # k = 3, d = 2 -> ground multiplicity 6
    b2 = EllipticCurveBundle(1j, 2)
    assert landau_spectrum(b2, 3, 0, 2).rows[0][1] == 6 == riemann_roch_dims(3, 2)[0]


def test_q1_spectrum_starts_at_first_level():
    b = EllipticCurveBundle(1j, 1)
    k = 2
    table = landau_spectrum(b, k, 1, 4)
    np.testing.assert_allclose(table.rows[0][0], k * b.lambda_scalar)
    assert riemann_roch_dims(k, 1)[1] == 0  # no harmonic (0,1) classes


def test_negative_degree_uses_duality():
    b = EllipticCurveBundle(1j, -2)
    dual = EllipticCurveBundle(1j, 2)
    t0 = landau_spectrum(b, 3, 0, 4)
    t1 = landau_spectrum(dual, 3, 1, 4)
    np.testing.assert_allclose(t0.eigenvalues(), t1.eigenvalues())
    np.testing.assert_allclose(t0.multiplicities(), t1.multiplicities())


# ---------------------------------------------------------------------------
# heat traces


def test_trace_closed_forms():
    b = EllipticCurveBundle(1j, 2)
    k, t = 3, 0.8
    lam = b.lambda_scalar
    np.testing.assert_allclose(
        heat_trace_exact(b, k, 0, t), k * 2 / (1 - np.exp(-t * lam)), rtol=1e-14
    )
    np.testing.assert_allclose(
        heat_trace_exact(b, k, 1, t), k * 2 * np.exp(-t * lam) / (1 - np.exp(-t * lam)),
        rtol=1e-14,
    )


def test_trace_equals_area_times_limit_diagonal():
    # constant curvature: the normalized trace equals area times the
    # asymptotic diagonal at every k, in both form degrees
    b = EllipticCurveBundle(2j, 3)
    for k in (1, 2, 7):
        for t in (0.3, 1.0):
            for q in (0, 1):
                diag = asymptotic_diagonal(
                    CurvatureEndomorphism.diagonal([b.lambda_scalar]), q, t
                ).matrix[0, 0].real
                np.testing.assert_allclose(
                    heat_trace_exact(b, k, q, t) / k, b.area * diag, rtol=1e-13
                )


def test_trace_q1_vanishes_at_large_time():
    b = EllipticCurveBundle(1j, 1)
    assert heat_trace_exact(b, 1, 1, 100.0) < 1e-40


def test_alternating_trace_is_index():
    b = EllipticCurveBundle(1j, 2)
    for k in (1, 4):
        for t in (0.1, 1.0, 10.0):
            alt = heat_trace_exact(b, k, 0, t) - heat_trace_exact(b, k, 1, t)
            np.testing.assert_allclose(alt, k * b.degree, rtol=1e-12)


def test_truncated_trace_agrees_and_errors_when_short():
    b = EllipticCurveBundle(1j, 1)
    k, t = 2, 0.5
    cutoff = int(np.ceil(50.0 / (t * b.lambda_scalar)))
    got = heat_trace_truncated(b, k, 0, t, cutoff)
    np.testing.assert_allclose(got, heat_trace_exact(b, k, 0, t), rtol=1e-12)
    with pytest.raises(AccuracyError) as err:
        heat_trace_truncated(b, k, 0, t, 2)
    assert err.value.bound is not None


# ---------------------------------------------------------------------------
# Morse trace inequalities


def test_equality_at_top_degree():
    b = EllipticCurveBundle(1j, 1)
    for k in range(1, 6):
        for t in (0.25, 1.0, 4.0):
            rec = morse_trace_inequality(b, k, 1, t)
            assert rec.holds and rec.equality
            np.testing.assert_allclose(rec.rhs, rec.lhs, atol=1e-10 * max(1, abs(rec.lhs)))


def test_strict_inequality_at_q0():
    b = EllipticCurveBundle(1j, 2)
    rec = morse_trace_inequality(b, 3, 0, 1.0)
    assert rec.holds and not rec.equality
    assert rec.lhs == 6
    assert rec.rhs > rec.lhs


def test_dual_degree_bound():
    b = EllipticCurveBundle(1j, -1)
    k = 4
    assert riemann_roch_dims(k, -1) == (0, k)
    rec = morse_trace_inequality(b, k, 0, 1.0)
    lam = 2 * np.pi  # dual-model eigenvalue
    expect = k * np.exp(-lam) / (1 - np.exp(-lam))
    assert rec.lhs == 0
    np.testing.assert_allclose(rec.rhs, expect, rtol=1e-12)
    assert rec.holds


# ---------------------------------------------------------------------------
# product torus


def test_product_q1_slope_matches_morse_integral():
    b1 = EllipticCurveBundle(1j, 2)
    b2 = EllipticCurveBundle(1.5j, -3)
    for k in (1, 3):
        rec = product_torus_morse(b1, b2, k, 1, 0.7)
        assert rec.lhs == (k**2) * 2 * 3  # -h0 + h1 with only h1 nonzero
        np.testing.assert_allclose(rec.morse_integral, 6.0, rtol=1e-12)
        np.testing.assert_allclose(rec.normalized_lhs, rec.morse_integral, rtol=1e-12)
        assert rec.holds


def test_product_q0_empty_index_set():
    from heatlab.geometry import CurvatureField, morse_bound

    b1 = EllipticCurveBundle(1j, 1)
    b2 = EllipticCurveBundle(1j, -1)
    rec = product_torus_morse(b1, b2, 2, 0, 1.0)
    assert rec.lhs == 0 and rec.holds
    curv = CurvatureEndomorphism.diagonal([b1.lambda_scalar, b2.lambda_scalar])
    field = CurvatureField.constant(curv, b1.area * b2.area, 4)
    assert morse_bound(field, 0).value == 0.0


def test_product_q2_equality_for_all_t():
    b1 = EllipticCurveBundle(1j, 1)
    b2 = EllipticCurveBundle(1j, -2)
    for t in (0.25, 1.0, 4.0):
        rec = product_torus_morse(b1, b2, 2, 2, t)
        assert rec.equality
        assert rec.lhs == -(2**2) * 2
        np.testing.assert_allclose(rec.normalized_lhs, -rec.morse_integral, rtol=1e-12)


def test_product_rejects_wrong_sign_pattern():
    b1 = EllipticCurveBundle(1j, 1)
    with pytest.raises(ArgumentError):
        product_torus_morse(b1, b1, 1, 1, 1.0)
    b2 = EllipticCurveBundle(1j, -1)
    for q in (-1, 3):
        with pytest.raises(ArgumentError, match="q must be in"):
            product_torus_morse(b1, b2, 1, q, 1.0)
    with pytest.raises(ArgumentError, match="k must be"):
        product_torus_morse(b1, b2, 0, 1, 1.0)


@pytest.mark.parametrize("d1, d2", [(1, -1), (2, -3), (3, -2)])
def test_product_sums_are_kunneth_products_of_the_curves(d1, d2):
    # lhs and rhs are, to the bit, the alternating sums over j <= q of
    # sum_{a+b=j} of the products of the curves' dimensions and traces
    b1, b2 = EllipticCurveBundle(1j, d1), EllipticCurveBundle(0.2 + 1.5j, d2)

    def kunneth(pair, j):
        return sum(pair[0][a] * pair[1][j - a] for a in range(2) if 0 <= j - a <= 1)

    for k, q, t in itertools.product((1, 2, 5), (0, 1, 2), (0.05, 1.0, 4.0)):
        dims = [riemann_roch_dims(k, b.degree) for b in (b1, b2)]
        traces = [[heat_trace_exact(b, k, j, t) for j in (0, 1)] for b in (b1, b2)]
        rec = product_torus_morse(b1, b2, k, q, t)
        assert rec.lhs == sum((-1) ** (q - j) * kunneth(dims, j) for j in range(q + 1))
        assert rec.rhs == sum((-1) ** (q - j) * kunneth(traces, j) for j in range(q + 1))


def test_curve_and_product_read_equality_to_one_tolerance():
    # both rhs are about 9 e^{-8 pi} = 1.09e-10 against lhs = 0, just above
    # the tolerance 1e-10 max(1, |rhs|)
    b1, b2 = EllipticCurveBundle(1j, 1), EllipticCurveBundle(1j, -1)
    for rec in (morse_trace_inequality(b2, 9, 0, 4.0), product_torus_morse(b1, b2, 3, 0, 4.0)):
        assert rec.lhs == 0 and 1e-10 < rec.rhs < 1.1e-10
        assert rec.holds and not rec.equality


# ---------------------------------------------------------------------------
# discretized magnetic oracle


def test_magnetic_operator_is_hermitian_with_uniform_flux():
    h = magnetic_torus_operator(3, 12, 1.0)
    assert np.abs(h - h.getH()).max() < 1e-12 * np.abs(h).max()


def test_magnetic_operator_entries_in_landau_gauge():
    # N = 4, Q = 1, side 1 (h^2 = 1/16); site (i, j) is row 4 i + j.  The
    # spectrum is gauge invariant, so the links are pinned one by one.
    n, q, h2 = 4, 1, 1.0 / 16
    m = magnetic_torus_operator(q, n, 1.0)
    assert m.nnz == 5 * n * n
    for i, j in itertools.product(range(n), range(n)):
        a = i * n + j
        x_link = np.exp(-2j * np.pi * q * j / n) if i == n - 1 else 1.0  # twisted wrap
        y_link = np.exp(2j * np.pi * q * i / n**2)
        assert m[a, a] == 4.0 / h2
        np.testing.assert_allclose(m[a, (i + 1) % n * n + j], -x_link / h2, rtol=1e-15)
        np.testing.assert_allclose(m[a, i * n + (j + 1) % n], -y_link / h2, rtol=1e-15)


def _peierls_reference(flux_quanta, n_points, side):
    """The Peierls matrix link by link, as a site loop."""
    import scipy.sparse as sp

    N, Q, h = n_points, flux_quanta, side / n_points
    rows, cols, vals = [], [], []
    for i, j in itertools.product(range(N), range(N)):
        a = i * N + j
        rows.append(a), cols.append(a), vals.append(4.0 / h**2)
        for b, ph in (((i + 1) % N * N + j, -2.0 * np.pi * Q * j / N if i == N - 1 else 0.0),
                      (i * N + (j + 1) % N, 2.0 * np.pi * (Q / N**2) * i)):
            rows += [a, b]
            cols += [b, a]
            vals += [-np.exp(1j * ph) / h**2, -np.exp(-1j * ph) / h**2]
    return sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()


@pytest.mark.parametrize("n_points, flux_quanta", [(4, 1), (12, 3), (6, 8), (5, 25)])
def test_magnetic_operator_matches_the_site_loop_to_the_bit(n_points, flux_quanta):
    got = magnetic_torus_operator(flux_quanta, n_points, 0.7)
    ref = _peierls_reference(flux_quanta, n_points, 0.7)
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).tobytes() == getattr(ref, part).tobytes()


def test_landau_validation_small():
    b = EllipticCurveBundle(1j, 1)
    val = validate_landau_levels(b, 1, eigen_count=6, resolutions=(16, 32))
    assert val.all_match
    assert val.expected_multiplicity == 1
    np.testing.assert_allclose(val.expected[1], b.lambda_scalar)


def _dense_rings(diag, hop):
    """The Harper rings as a dense matrix: site ring * L + p is linked by
    hop to p -+ 1 mod L of its own ring."""
    g, L = diag.shape
    site = np.arange(g * L)
    ring, p = np.divmod(site, L)
    h = np.diag(diag.ravel())
    h[site, ring * L + (p + 1) % L] = hop
    h[site, ring * L + (p - 1) % L] = hop
    return h


def _dense_paths(diag, hop):
    """The dense rings without their closing sites p = L - 1."""
    g, L = diag.shape
    closing = np.arange(g) * L + L - 1
    return np.delete(np.delete(_dense_rings(diag, hop), closing, 0), closing, 1)


# gcd(N, Q) = 1, > 1 and Q > N; (5, 25) has odd rings of 5 sites, on which
# the sign of the hop is not a gauge choice.  The g = gcd(N, Q) rings fall
# into s = gcd(Q / g, g) shift classes: s = 1 at (16, 4) and (12, 3), where
# all rings are copies of one, s = 2 at (6, 8), (6, 4) and (12, 8), and
# s = g = 5 at (5, 25)
_RING_CASES = [(16, 1), (16, 4), (12, 3), (6, 8), (5, 25), (6, 4), (12, 8)]


@pytest.mark.parametrize("n_points, flux_quanta", _RING_CASES)
@pytest.mark.parametrize("side", [1.0, np.sqrt(0.5)])
def test_harper_rings_have_the_peierls_spectrum(n_points, flux_quanta, side):
    from heatlab.defaults import harper_copies
    from heatlab.torus import _harper_rings

    diag, hop = _harper_rings(flux_quanta, n_points, side)
    g = np.gcd(n_points, flux_quanta)
    assert diag.dtype == np.float64 and diag.shape == (g, n_points**2 // g)
    assert hop == pytest.approx(-(n_points / side) ** 2, rel=1e-15)
    w = np.linalg.eigvalsh(_dense_rings(diag, hop))
    ref = np.linalg.eigvalsh(magnetic_torus_operator(flux_quanta, n_points, side).toarray())
    np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # the class representatives, each eigenvalue repeated once per copy
    copies = harper_copies(flux_quanta, n_points)
    w = np.linalg.eigvalsh(_dense_rings(diag[:g // copies], hop))
    np.testing.assert_allclose(np.repeat(w, copies), ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("n_points, flux_quanta", _RING_CASES)
@pytest.mark.parametrize("side", [1.0, np.sqrt(0.5)])
def test_bordered_solve_matches_dense(n_points, flux_quanta, side):
    from heatlab.torus import _harper_rings, _ring_apply, _ring_inverse

    diag, hop = _harper_rings(flux_quanta, n_points, side)
    # shifted by |hop|: at (5, 25) the flux per plaquette is 1, so the
    # unshifted rings have the zero-field kernel
    dense = _dense_rings(diag, hop) + abs(hop) * np.eye(diag.size)
    x = np.random.default_rng(3).standard_normal(diag.size)
    np.testing.assert_allclose(_ring_apply(diag + abs(hop), hop, x), dense @ x,
                               rtol=0, atol=1e-14 * np.abs(dense @ x).max())
    ref = np.linalg.solve(dense, x)
    np.testing.assert_allclose(_ring_inverse(diag + abs(hop), hop)(x), ref,
                               rtol=0, atol=1e-12 * np.abs(ref).max())


def test_bordered_solve_rejects_rings_that_are_not_positive_definite():
    from heatlab.torus import _harper_rings, _ring_inverse

    diag, hop = _harper_rings(4, 16, 1.0)
    with pytest.raises(AccuracyError, match="dpttrf info"):
        _ring_inverse(diag - diag.max(), hop)
    # one flux quantum per plaquette: the rings are singular, T is not
    diag, hop = _harper_rings(25, 5, 1.0)
    with pytest.raises(AccuracyError, match="closing pivot"):
        _ring_inverse(diag, hop)


@pytest.mark.parametrize("n_points, flux_quanta", _RING_CASES + [(10, 4), (34, 4)])
def test_every_ring_is_a_shift_of_its_class_representative(n_points, flux_quanta):
    from heatlab.defaults import harper_copies
    from heatlab.torus import _harper_rings

    diag, hop = _harper_rings(flux_quanta, n_points, 1.0)
    classes = diag.shape[0] // harper_copies(flux_quanta, n_points)
    for r, ring in enumerate(diag):
        rep = diag[r % classes]
        assert any(np.array_equal(ring, np.roll(rep, t)) for t in range(diag.shape[1])), r


@pytest.mark.parametrize("k, n_points, count, rows, values", [(4, 16, 12, 64, 3),
                                                               (8, 12, 10, 72, 5)])
def test_arpack_solves_one_ring_per_shift_class(monkeypatch, k, n_points, count, rows, values):
    import scipy.sparse.linalg as spla

    real = spla.eigsh
    calls = []

    def spy(h, k, **kwargs):
        calls.append((h.shape[0], k))
        return real(h, k=k, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    torus._discrete_landau_levels(EllipticCurveBundle(1j, 1), k, n_points, count)
    assert calls == [(rows, values)]


def test_shift_inverted_levels_match_dense():
    from heatlab.torus import _discrete_landau_levels, _harper_rings

    # k d = 4 flux quanta on N = 16: g = 4 rings of 64 sites in one class;
    # k d = 8 on N = 12: g = 4 rings of 36 sites in two classes; k d = 6 on
    # N = 12: 6 copies of one ring, where ARPACK on all rings missed a copy
    b = EllipticCurveBundle(1j, 1)
    side = np.sqrt(b.area / 2.0)
    for k, n_points, count, sizes in [(4, 16, 12, [4, 4, 4]), (8, 12, 10, [8]),
                                      (6, 12, 12, [6, 6])]:
        levels = _discrete_landau_levels(b, k, n_points, count)
        assert [lv.size for lv in levels] == sizes
        w = np.linalg.eigvalsh(_dense_rings(*_harper_rings(k, n_points, side)))[:sum(sizes)]
        ref = (w - 2.0 * np.pi * k / side**2) / 4.0
        np.testing.assert_allclose(np.concatenate(levels), ref, rtol=0, atol=1e-12 * w.max())


_DENSE_REFERENCES = {
    "magnetic_torus_operator": lambda q, n, side: magnetic_torus_operator(q, n, side).toarray(),
    "_harper_rings": lambda q, n, side: _dense_rings(*torus._harper_rings(q, n, side)),
}


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("builder", ["magnetic_torus_operator", "_harper_rings"])
def test_inertia_count_matches_dense_at_every_mid_gap(builder, k):
    # the count runs on the rings; the builder names the dense reference
    b = EllipticCurveBundle(1j, 1)
    side = np.sqrt(b.area / 2.0)
    field = 2.0 * np.pi * k / side**2
    w = np.linalg.eigvalsh(_DENSE_REFERENCES[builder](k, 16, side))
    # raw mid-gaps field + 4 k lambda (m + 1/2), up to past half the spectrum
    gaps = field + 4.0 * k * b.lambda_scalar * (np.arange(40) + 0.5)
    gaps = gaps[gaps < np.median(w)]
    assert gaps.size >= 5
    diag, hop = torus._harper_rings(k, 16, side)
    counts = [torus._count_below(diag, hop, s) for s in gaps]
    assert counts == [int(np.count_nonzero(w < s)) for s in gaps]
    assert counts[:3] == [k, 2 * k, 3 * k]


@pytest.mark.parametrize("n_points, flux_quanta", [(16, 1), (16, 4), (12, 3)])
def test_count_at_an_eigenvalue_of_the_paths_is_right_or_raises(n_points, flux_quanta):
    # The shifts are the eigenvalues of T, computed densely.  Where T and
    # H share an eigenvalue (a degenerate level of H, or an eigenvector
    # that vanishes on the closing sites) the shift lies within rounding
    # of H's spectrum, and a count on either side of that eigenvalue is
    # right; so the count must lie between the dense counts at shift -+
    # delta, or raise.
    diag, hop = torus._harper_rings(flux_quanta, n_points, np.sqrt(0.5))
    w = np.linalg.eigvalsh(_dense_rings(diag, hop))
    delta = 1e-12 * np.abs(w).max()
    raised = 0
    for s in np.linalg.eigvalsh(_dense_paths(diag, hop)):
        try:
            count = torus._count_below(diag, hop, s)
        except AccuracyError:
            raised += 1
            continue
        assert np.count_nonzero(w < s - delta) <= count <= np.count_nonzero(w < s + delta)
    assert raised > 0


def test_missed_ring_eigenvalue_raises(monkeypatch):
    import scipy.sparse.linalg as spla

    real = spla.eigsh

    def drop_ground(h, k, **kwargs):
        # the k smallest eigenvalues of the one representative ring, except
        # its ground eigenvalue, which stands for both copies of the doubly
        # degenerate ground level, replaced by the next eigenvalue
        w = np.sort(real(h, k=k + 1, **kwargs))
        return np.delete(w, 0)

    monkeypatch.setattr(spla, "eigsh", drop_ground)
    with pytest.raises(AccuracyError, match="below the top mid-gap"):
        validate_landau_levels(EllipticCurveBundle(1j, 1), 2, eigen_count=6,
                               resolutions=(16, 32))


def test_multiplicity_checked_at_both_resolutions(monkeypatch):
    import scipy.sparse.linalg as spla

    real = spla.eigsh

    def move_one_ring_eigenvalue(h, k, **kwargs):
        # at the coarse resolution only, where one representative of
        # 16^2 / 2 sites stands for both rings, the ground eigenvalue is
        # read as a first-level one: coarse multiplicities [0, 4, 2], and
        # the count below the top mid-gap is intact
        w = np.sort(real(h, k=k, **kwargs))
        if h.shape[0] == 16**2 // 2:
            w[0] = w[1]
        return w

    monkeypatch.setattr(spla, "eigsh", move_one_ring_eigenvalue)
    val = validate_landau_levels(EllipticCurveBundle(1j, 1), 2, eigen_count=6,
                                 resolutions=(16, 32))
    assert val.multiplicities.tolist() == [2, 2, 2]
    assert val.matches.tolist() == [False, False, True]


# at k = 4 on N = 16 the 4 rings are copies of one ring of 64 sites, and
# ARPACK cannot be asked for ceil(254 / 4) = 64 of its 64 eigenvalues
@pytest.mark.parametrize("k, eigen_count", [(2, 1), (1, 16**2 - 1), (4, 16**2 - 2)])
def test_eigen_count_out_of_range_rejected(k, eigen_count):
    with pytest.raises(ArgumentError, match="eigen_count"):
        validate_landau_levels(EllipticCurveBundle(1j, 1), k, eigen_count=eigen_count,
                               resolutions=(16, 32))


def test_too_coarse_resolution_rejected():
    # eigen_count lies in [k d, N^2 - 2], so only the N >= 4 check can fire
    with pytest.raises(ArgumentError, match="n_points >= 4"):
        validate_landau_levels(EllipticCurveBundle(1j, 1), 1, eigen_count=2,
                               resolutions=(3, 6))
    with pytest.raises(ArgumentError, match="factor of 2"):
        validate_landau_levels(EllipticCurveBundle(1j, 1), 1, eigen_count=2,
                               resolutions=(16, 24))
    with pytest.raises(ArgumentError, match="positive degree"):
        validate_landau_levels(EllipticCurveBundle(1j, -1), 1, eigen_count=2,
                               resolutions=(16, 32))


def test_nonpositive_k_and_non_integer_resolutions_rejected():
    with pytest.raises(ArgumentError, match="k must be a positive integer"):
        validate_landau_levels(EllipticCurveBundle(1j, 1), 0, eigen_count=2,
                               resolutions=(16, 32))
    with pytest.raises(ArgumentError, match="resolutions must be integers"):
        validate_landau_levels(EllipticCurveBundle(1j, 1), 1, eigen_count=2,
                               resolutions=(32.0, 64.0))
