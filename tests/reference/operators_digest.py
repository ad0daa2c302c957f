"""Regenerate ``operators.json``: SHA-256 digests of assembled operators.

Each case is one ``assemble_model`` or ``assemble_scaled`` call on a small
grid (49 sites at n = 1, 625 at n = 2, 729 at n = 3).  The grid runs over
n in {1, 2, 3} and every q; weights none, cubic (exact gradient) and
value-only (finite-difference gradient); perturbations none, ``r``,
``r + alpha + m`` and ``m``; and k = 9.  k = 1 is kept only for the
``r + alpha + m`` cases at n <= 2, where every k-dependent branch is
taken: k = 9 covers the same branches elsewhere.  The two k of such a case
come from one ``operators._scaled`` closure, as the k of ``converge_in_k``
do; every other scaled case is one ``assemble_scaled`` call.

A digest records the CSR ``data``, ``indices`` and ``indptr`` bytes and
``repr(_floor)``, so it holds only on one toolchain (numpy, scipy and the
BLAS they load).  A change that moves rounding on purpose regenerates the
file and lists the moved cases.

Usage:
    PYTHONPATH=src python tests/reference/operators_digest.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from heatlab.geometry import Perturbation, WeightFunction, cubic_re_perturbation
from heatlab.model_kernels import ModelSpec
from heatlab.operators import (
    GridSpec,
    PerturbationSpec,
    _scaled,
    assemble_model,
    assemble_scaled,
)

PATH = Path(__file__).with_name("operators.json")

GRIDS = {1: GridSpec(1, 1.5, 0.5), 2: GridSpec(2, 1.0, 0.5), 3: GridSpec(3, 0.5, 0.5)}
LAMBDAS = {1: (1.0,), 2: (1.0, -0.5), 3: (1.0, -0.5, 0.7)}


def _r(y):
    # holomorphic in y, so d/dzbar of its conjugate is not zero
    n = y.shape[0]
    return np.array([[0.1 * (j + 1) / (s + 2) * y[(j + s) % n] for s in range(n)]
                     for j in range(n)], dtype=complex)


def _alpha(y):
    return 0.3 * y + 0.2j


def _m(y):
    return float(np.exp(0.3 * np.abs(y[0]) ** 2 - 0.1 * np.real(y[-1] ** 2)))


def _value_only(y):
    return 0.1 * float(np.real(y[0] ** 2 * np.conj(y[-1]))) + 0.05 * float(np.abs(y[-1]) ** 4)


WEIGHTS = {"none": None, "cubic": cubic_re_perturbation(0.1), "value": Perturbation(_value_only)}
PERTURBATIONS = {"none": PerturbationSpec(), "r": PerturbationSpec(r=_r),
                 "ram": PerturbationSpec(r=_r, alpha=_alpha, volume_density=_m),
                 "m": PerturbationSpec(volume_density=_m)}


def cases():
    """(label, operator) for every case, each operator assembled when the
    caller reaches it."""
    for n, grid in GRIDS.items():
        lam = LAMBDAS[n]
        for q in range(n + 1):
            yield f"model-n{n}-q{q}", assemble_model(ModelSpec(n, lam, q), grid)
            for wname, perturbation in WEIGHTS.items():
                weight = WeightFunction(n, lam, perturbation)
                for pname, pert in PERTURBATIONS.items():
                    label = f"scaled-n{n}-q{q}-{wname}-{pname}-k"
                    if pname == "ram" and n <= 2:
                        assemble = _scaled(weight, pert, grid, q)
                        for k in (1, 9):
                            yield f"{label}{k}", assemble(k)
                    else:
                        yield f"{label}9", assemble_scaled(weight, pert, 9, grid, q)


def digest(op) -> dict:
    m = op.matrix
    sha = lambda b: hashlib.sha256(b).hexdigest()  # noqa: E731
    return {"data": sha(m.data.tobytes()), "indices": sha(m.indices.tobytes()),
            "indptr": sha(m.indptr.tobytes()), "floor": sha(repr(op._floor).encode())}


def digests() -> dict:
    return {label: digest(op) for label, op in cases()}


def main() -> int:
    PATH.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
