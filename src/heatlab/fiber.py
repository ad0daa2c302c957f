"""Exterior algebra of the (0,q) fiber.

Basis forms are indexed by strictly increasing multi-indices J of
{0, ..., n-1} (0-based internally, 1-based in labels), ordered
lexicographically.  All operators are dense complex matrices acting on
coefficient vectors in that basis.  The basis is orthonormal, so iota_j is
the adjoint of e^j wedge (one sign rule); every cached result is read-only.
``FiberEndomorphism`` is a matrix on that basis.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType

import numpy as np

from .errors import ArgumentError, InvariantViolation


@lru_cache(maxsize=None)
def multi_indices(n: int, q: int) -> tuple:
    """Strictly increasing q-element multi-indices of {0..n-1}, lexicographic."""
    if not 0 <= q <= n:
        raise ArgumentError(f"q={q} outside [0, {n}]")
    return tuple(combinations(range(n), q))


@lru_cache(maxsize=None)
def index_position(n: int, q: int) -> MappingProxyType:
    """Inverse of multi_indices: multi-index tuple -> basis position (read-only)."""
    return MappingProxyType({J: a for a, J in enumerate(multi_indices(n, q))})


def fiber_dim(n: int, q: int) -> int:
    return comb(n, q)


def index_label(J) -> str:
    """1-based label for CSV output, e.g. () -> '', (0, 2) -> '1-3'."""
    return "-".join(str(j + 1) for j in J)


def wedge_sign(i: int, J: tuple):
    """Sign and resulting index of e^i wedge e^J, or (0, None) if i in J."""
    if i in J:
        return 0, None
    k = sum(1 for j in J if j < i)
    return (-1) ** k, tuple(sorted(J + (i,)))


@lru_cache(maxsize=None)
def wedge_matrix(n: int, q: int, i: int) -> np.ndarray:
    """Matrix of e^i wedge . : Lambda^q -> Lambda^{q+1} (read-only)."""
    rows, cols = multi_indices(n, q + 1), multi_indices(n, q)
    pos = index_position(n, q + 1)
    W = np.zeros((len(rows), len(cols)), dtype=complex)
    for a, J in enumerate(cols):
        s, K = wedge_sign(i, J)
        if s:
            W[pos[K], a] = s
    W.flags.writeable = False
    return W


def contract_matrix(n: int, q: int, j: int) -> np.ndarray:
    """Matrix of the interior product iota_j : Lambda^q -> Lambda^{q-1}: the
    transpose (adjoint) of e^j wedge, a read-only view."""
    return wedge_matrix(n, q - 1, j).T if q else np.zeros((0, 1), dtype=complex)


@lru_cache(maxsize=None)
def wedge_contract(n: int, q: int, i: int, j: int) -> np.ndarray:
    """Matrix of e^i wedge iota_j on Lambda^q (the curvature action building block)."""
    m = wedge_matrix(n, q - 1, i) @ contract_matrix(n, q, j) if q else np.zeros((1, 1), complex)
    m.flags.writeable = False
    return m


def projection_contains(n: int, q: int, j: int) -> np.ndarray:
    """Diagonal projection onto basis forms whose multi-index contains j."""
    return wedge_contract(n, q, j, j)


def twist_eigenvalues(lambdas, q: int) -> np.ndarray:
    """Diagonal of sum_j lambda_j e^j wedge iota_j: entry sum_{j in J} lambda_j per J."""
    lam = np.asarray(lambdas, dtype=float)
    return np.array([sum(lam[list(J)]) for J in multi_indices(len(lam), q)])


def exterior_power_matrix(V: np.ndarray, q: int) -> np.ndarray:
    """Induced action of a matrix V on Lambda^q: entries are q x q minors of V."""
    n = V.shape[0]
    idx = multi_indices(n, q)
    M = np.empty((len(idx), len(idx)), dtype=complex)
    for a, J in enumerate(idx):
        for b, K in enumerate(idx):
            M[a, b] = np.linalg.det(V[np.ix_(J, K)]) if q > 0 else 1.0
    return M


@dataclass(frozen=True)
class FiberEndomorphism:
    """Complex matrix on the (0,q) fiber, indexed by increasing multi-indices."""

    n: int
    q: int
    matrix: np.ndarray

    def __post_init__(self):
        if not 0 <= self.q <= self.n:
            raise ArgumentError(f"q={self.q} outside [0, {self.n}]")
        d = fiber_dim(self.n, self.q)
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (d, d):
            raise InvariantViolation(f"expected {d}x{d} fiber matrix, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def scalar(self) -> complex:
        if self.matrix.shape != (1, 1):
            raise ArgumentError("scalar access on a fiber of dimension > 1")
        return complex(self.matrix[0, 0])
