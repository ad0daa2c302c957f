"""The benchmark's workloads: generated configs, one timed pass, and the
checks on every output.

Each workload stresses other layers, so that every optimisation has one
workload that exercises it and one that bypasses it:

- ``converge``: scaled-operator convergence in k.  The time goes to
  ``operators.assemble_scaled`` (mostly the per-site n=2 frame sampling)
  and to Krylov propagation from delta start vectors
  (``semigroup.kernel_diagonal``).  It never touches ARPACK, traces or
  ``torus``.
- ``model``: the unperturbed model operator.  The time goes to ARPACK
  shift-invert in ``spectral_bound_check``, Krylov on random trace probes
  and Krylov from deltas; there is no scaled assembly.
- ``oracle``: the torus oracles (Peierls assembly, dense ``eigvalsh`` and
  shift-invert ``eigsh``) and the closed forms.  It never enters
  ``operators`` or ``semigroup``.

The seed sets the probe seed of the stochastic trace and the ``seed`` field
of every generated config.  Grid sizes, k and t lists stay fixed: they set
the work measured, so changing them would change what two runs compare.

This module imports no numpy at import time, because run.py loads it to
write the configs before any worker starts.
"""

import csv
from pathlib import Path
from typing import Callable, NamedTuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class OutputError(Exception):
    """An output of the program failed its check."""


def _expect(ok, message):
    if not ok:
        raise OutputError(message)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# converge


def _converge_configs(seed):
    return {
        "converge": {
            "experiment": "converge", "n": 1, "lambda": [1.0], "q": 0,
            "weight_perturbation": {"kind": "re_z3", "amplitude": 0.1},
            "metric_perturbation": {"kind": "linear_r11", "amplitude": 0.1},
            "k_list": [4, 16, 64, 256], "t_list": [0.5, 1.0],
            "grid": {"radius": 6.0, "spacing": 0.1},
            "method": {"variant": "krylov"},
            "seed": seed, "output": "converge.csv",
        },
    }


def _two_dim_inputs(hl):
    """n=2, q=1 scaled problem with the frame perturbation of the operator
    tests.  It goes through the library: the CLI accepts only n = 1."""
    import numpy as np

    def r(y):
        return np.array([[0.0, 0.1 * y[0]], [0.05 * y[1], 0.0]], dtype=complex)

    weight = hl.geometry.WeightFunction(2, (1.0, -0.5))
    return weight, hl.operators.PerturbationSpec(r=r), hl.operators.GridSpec(2, 2.0, 0.5)


def _converge_prepare(hl, cfgs):
    cfg = cfgs["converge"]
    weight = hl.geometry.WeightFunction(1, (1.0,), hl.geometry.cubic_re_perturbation(0.1))
    grid = hl.operators.GridSpec(1, cfg["grid"]["radius"], cfg["grid"]["spacing"])
    method = hl.semigroup.SemigroupMethod(cfg["method"]["variant"])
    weight2, _, grid2 = _two_dim_inputs(hl)
    return {
        "n1": hl.semigroup.model_baseline_errors(weight, cfg["q"], cfg["t_list"], grid, method),
        "n2": hl.semigroup.model_baseline_errors(weight2, 1, (1.0,), grid2),
    }


def _check_converge_csv(path, baseline, ks):
    rows = _read_csv(path)
    for t, floor in baseline.items():
        mine = sorted((r for r in rows if float(r["t"]) == t), key=lambda r: int(r["k"]))
        _expect([int(r["k"]) for r in mine] == ks, f"t={t}: k column {[r['k'] for r in mine]}")
        errs = [float(r["abs_err"]) for r in mine]
        _expect(all(b <= a for a, b in zip(errs, errs[1:])), f"t={t}: abs_err rises in k: {errs}")
        _expect(errs[-1] <= 1.5 * floor, f"t={t}: final error {errs[-1]:.4g} > 1.5 x {floor:.4g}")


def _converge_pass(step, hl, cfgs, refs, out_dir):
    cfg = cfgs["converge"]
    step("converge n=1 (cli)", lambda: hl.cli.run_experiment(cfg, out_dir),
         lambda path: _check_converge_csv(path, refs["n1"], cfg["k_list"]))
    weight, pert, grid = _two_dim_inputs(hl)

    def check_two_dim(report):
        final, floor = report.errors_for(1.0)[-1], refs["n2"][1.0]
        _expect(final <= 1.5 * floor, f"final error {final:.4g} > 1.5 x {floor:.4g}")

    step("converge n=2 (library)",
         lambda: hl.semigroup.converge_in_k(weight, pert, 1, (1.0,), (16, 64), grid),
         check_two_dim)


# ---------------------------------------------------------------------------
# model


def _model_configs(seed):
    return {
        "trace": {
            "experiment": "trace", "n": 1, "lambda": [1.0], "q": 0,
            "t_list": [0.5, 1.0, 2.0], "grid": {"radius": 4.0, "spacing": 0.25},
            "stochastic": True, "probes": 64,
            "seed": seed, "output": "trace_stochastic.csv",
        },
    }


def _model_prepare(hl, cfgs):
    """Dense references, computed before any timed pass."""
    import numpy as np

    cfg = cfgs["trace"]
    spec = hl.model_kernels.ModelSpec(cfg["n"], tuple(cfg["lambda"]), cfg["q"])
    grid = hl.operators.GridSpec(cfg["n"], cfg["grid"]["radius"], cfg["grid"]["spacing"])
    w = np.linalg.eigvalsh(hl.operators.assemble_model(spec, grid).matrix.toarray())
    return {
        "trace": {t: float(np.sum(np.exp(-t * w))) for t in cfg["t_list"]},
        "diagonal": {q: hl.model_kernels.model_diagonal(
            hl.model_kernels.ModelSpec(1, (1.0,), q), 1.0).matrix for q in (0, 1)},
    }


def _check_trace_csv(path, dense, probes):
    rows = _read_csv(path)
    _expect([float(r["t"]) for r in rows] == list(dense), f"t column {[r['t'] for r in rows]}")
    for r in rows:
        t, value, stderr = float(r["t"]), float(r["value"]), float(r["stderr"])
        _expect(int(r["probes"]) == probes, f"t={t}: {r['probes']} probes")
        _expect(abs(value - dense[t]) <= 4.0 * stderr,
                f"t={t}: trace {value:.6g} vs dense {dense[t]:.6g}, stderr {stderr:.3g}")


def _model_pass(step, hl, cfgs, refs, out_dir):
    import numpy as np

    grid = hl.operators.GridSpec(1, 5.0, 0.1)
    for q in (0, 1):
        spec = hl.model_kernels.ModelSpec(1, (1.0,), q)
        op = step(f"assemble_model q={q}", lambda: hl.operators.assemble_model(spec, grid),
                  lambda op: _expect(op.dim == grid.sites, f"dim {op.dim}"))
        target = refs["diagonal"][q]

        def check_diagonal(diag):
            dev = float(np.max(np.abs(diag.matrix - target)) / np.max(np.abs(target)))
            _expect(dev <= 0.02, f"diagonal off the model by {dev:.3%}")

        step(f"kernel_diagonal q={q}",
             lambda: hl.semigroup.kernel_diagonal(op, grid.origin_site(), 1.0), check_diagonal)
        for n_power in range(4):
            for t in (0.5, 1.0, 2.0):
                step(f"spectral_bound_check q={q} N={n_power} t={t}",
                     lambda: hl.semigroup.spectral_bound_check(op, t, n_power),
                     lambda rep: _expect(rep.passed, f"{rep.max_value:.6g} > {rep.bound:.6g}"))
    cfg = cfgs["trace"]
    step("trace (cli)", lambda: hl.cli.run_experiment(cfg, out_dir),
         lambda path: _check_trace_csv(path, refs["trace"], cfg["probes"]))


# ---------------------------------------------------------------------------
# oracle

# The shipped configs of the oracle layer, as they stood when the benchmark
# was defined, so that later edits under configs/ cannot change its inputs.
_VALIDATE_ORACLE = {
    "experiment": "validate-oracle", "tau_im": 1.0, "degree": 1, "k_list": [1, 2, 3],
    "eigen_count": 10, "resolutions": [32, 64], "output": "validate_oracle.csv",
}
_CLOSED_FORMS = {
    "spectrum_landau": {
        "experiment": "spectrum", "tau_im": 1.0, "degree": 2, "k": 3, "q": 0, "cutoff": 10,
        "output": "spectrum_landau.csv",
    },
    "morse_elliptic": {
        "experiment": "morse", "model": "elliptic", "tau_im": 1.0, "degree": 1,
        "k_list": list(range(1, 11)), "q_list": [0, 1], "t_list": [0.25, 1.0, 4.0],
        "output": "morse_elliptic.csv",
    },
    "morse_product": {
        "experiment": "morse", "model": "product", "tau_im": 1.0, "degrees": [2, -3],
        "k_list": [1, 2, 4], "q_list": [0, 1, 2], "t_list": [0.5, 1.0],
        "output": "morse_product.csv",
    },
    "model_kernel_degenerate": {
        "experiment": "model-kernel", "n": 1, "lambda": [0.0], "q": 0,
        "t_list": [0.5, 1.0, 2.0], "output": "model_kernel_degenerate.csv",
    },
}


def _oracle_configs(seed):
    validate = {
        "validate_oracle": _VALIDATE_ORACLE,
        "validate_oracle_fine": dict(_VALIDATE_ORACLE, k_list=[1, 2, 3, 4],
                                     resolutions=[48, 96], output="validate_oracle_fine.csv"),
    }
    return {name: dict(cfg, seed=seed) for name, cfg in {**validate, **_CLOSED_FORMS}.items()}


def _check_matches(path):
    rows = _read_csv(path)
    _expect(rows, "no validated level")
    bad = [(r["k"], r["level"]) for r in rows if r["match"] != "True"]
    _expect(not bad, f"(k, level) not matching: {bad}")


def _same_cell(got, want):
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _check_reference(path):
    """Equal to the seed's output within 1e-12 relative, cell by cell."""
    got, want = _read_csv(path), _read_csv(REFERENCE_DIR / path.name)
    _expect(len(got) == len(want), f"{len(got)} rows, reference has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        _expect(g.keys() == w.keys(), f"columns {list(g)} differ from {list(w)}")
        for key in w:
            _expect(_same_cell(g[key], w[key]), f"row {i}: {key}={g[key]}, reference {w[key]}")


def _oracle_prepare(hl, cfgs):
    return {}


def _oracle_pass(step, hl, cfgs, refs, out_dir):
    for name, cfg in cfgs.items():
        check = _check_reference if name in _CLOSED_FORMS else _check_matches
        step(f"{name} (cli)", lambda: hl.cli.run_experiment(cfg, out_dir), check)


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    configs: Callable    # seed -> {name: config dict}
    prepare: Callable    # (heatlab, configs) -> references, computed untimed
    run_pass: Callable   # (step, heatlab, configs, references, out_dir)


WORKLOADS = {
    "converge": Workload(_converge_configs, _converge_prepare, _converge_pass),
    "model": Workload(_model_configs, _model_prepare, _model_pass),
    "oracle": Workload(_oracle_configs, _oracle_prepare, _oracle_pass),
}
