import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab import fiber
from heatlab.errors import ArgumentError


def test_multi_indices_lexicographic():
    assert fiber.multi_indices(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert fiber.multi_indices(4, 0) == ((),)


@given(st.integers(1, 6), st.data())
def test_index_position_roundtrip(n, data):
    q = data.draw(st.integers(0, n))
    idx = fiber.multi_indices(n, q)
    pos = fiber.index_position(n, q)
    assert len(idx) == fiber.fiber_dim(n, q)
    for a, J in enumerate(idx):
        assert pos[J] == a


def test_q_out_of_range():
    with pytest.raises(ArgumentError):
        fiber.multi_indices(3, 4)


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_contract_anticommutator(n, data):
    q = data.draw(st.integers(0, n))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    d = fiber.fiber_dim(n, q)
    # {iota_i, e^j wedge} = delta_ij on Lambda^q
    a = fiber.contract_matrix(n, q + 1, i) @ fiber.wedge_matrix(n, q, j) if q < n else np.zeros((d, d))
    b = (
        fiber.wedge_matrix(n, q - 1, j) @ fiber.contract_matrix(n, q, i)
        if q > 0
        else np.zeros((d, d))
    )
    expect = np.eye(d) if i == j else np.zeros((d, d))
    np.testing.assert_allclose(a + b, expect, atol=1e-15)


def test_wedge_squares_to_zero():
    for n in (2, 3):
        for q in range(n - 1):
            for i in range(n):
                w2 = fiber.wedge_matrix(n, q + 1, i) @ fiber.wedge_matrix(n, q, i)
                assert np.max(np.abs(w2)) == 0.0


def test_twist_eigenvalues_sums_over_index():
    lam = [0.5, -1.0, 2.0]
    vals = fiber.twist_eigenvalues(lam, 2)
    # basis order (0,1), (0,2), (1,2)
    np.testing.assert_allclose(vals, [-0.5, 2.5, 1.0])


def test_projection_contains_is_indicator():
    p = fiber.projection_contains(3, 2, 1)
    np.testing.assert_allclose(np.diag(p), [1.0, 0.0, 1.0])
    assert np.max(np.abs(p - np.diag(np.diag(p)))) == 0.0


@given(st.integers(1, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_exterior_power_multiplicative(n, data):
    q = data.draw(st.integers(0, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    left = fiber.exterior_power_matrix(a @ b, q)
    right = fiber.exterior_power_matrix(a, q) @ fiber.exterior_power_matrix(b, q)
    np.testing.assert_allclose(left, right, atol=1e-10 * max(1.0, np.abs(left).max()))


def test_index_label():
    assert fiber.index_label(()) == ""
    assert fiber.index_label((0, 2)) == "1-3"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contract_matrix_is_the_interior_product(n):
    # iota_j e^J = (-1)^(position of j in J) e^{J \ j}, zero when j is not in J
    for q in range(n + 1):
        for j in range(n):
            c = fiber.contract_matrix(n, q, j)
            expect = np.zeros((fiber.fiber_dim(n, q - 1) if q else 0, fiber.fiber_dim(n, q)))
            for a, J in enumerate(fiber.multi_indices(n, q)):
                if j in J:
                    rest = tuple(x for x in J if x != j)
                    expect[fiber.index_position(n, q - 1)[rest], a] = (-1) ** J.index(j)
            assert c.shape == expect.shape and np.array_equal(c, expect)


def test_cached_fiber_matrices_reject_writes():
    for m in (fiber.wedge_matrix(2, 0, 0), fiber.contract_matrix(2, 1, 0),
              fiber.wedge_contract(2, 1, 0, 0), fiber.wedge_contract(2, 0, 0, 1)):
        with pytest.raises(ValueError):
            m[0, 0] = 5
    assert fiber.wedge_matrix(2, 0, 0)[0, 0] == 1


def test_cached_index_position_rejects_writes():
    # a write once moved e^1 wedge e^0 to row 2 of every later wedge matrix
    expected = fiber.wedge_matrix(3, 1, 1).copy()
    with pytest.raises(TypeError):
        fiber.index_position(3, 2)[(0, 1)] = 2
    fiber.wedge_matrix.cache_clear()
    assert np.array_equal(fiber.wedge_matrix(3, 1, 1), expected)
