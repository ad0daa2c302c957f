"""Every shipped config reproduces its reference CSV.

The files under tests/reference/ were written by ``heatlab run <config>
--threads 1``.  Numeric cells may differ from them by 1e-12 * max(1, |ref|),
so that another BLAS or summation order still passes; every other cell
(labels, booleans, method names) must match exactly.
"""

import csv
from pathlib import Path

import pytest

from heatlab.cli import load_config, run_experiment

HERE = Path(__file__).resolve().parent
CONFIGS = sorted((HERE.parent / "configs").glob("*.json"))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_every_config_has_a_reference():
    outputs = {load_config(path)["output"] for path in CONFIGS}
    assert outputs == {p.name for p in (HERE / "reference").glob("*.csv")}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_matches_reference(tmp_path, config):
    out = run_experiment(load_config(config), tmp_path)
    got, ref = _read(out), _read(HERE / "reference" / out.name)
    assert got[0] == ref[0]
    assert len(got) == len(ref)
    for i, (row, ref_row) in enumerate(zip(got[1:], ref[1:]), start=1):
        assert len(row) == len(ref_row), f"row {i}"
        for col, cell, ref_cell in zip(ref[0], row, ref_row):
            if cell == ref_cell:
                continue
            g, r = _number(cell), _number(ref_cell)
            assert g is not None and r is not None, f"row {i}, {col}: {cell!r} != {ref_cell!r}"
            assert abs(g - r) <= 1e-12 * max(1.0, abs(r)), f"row {i}, {col}: {g!r} vs {r!r}"
