"""Command-line interface: configuration ingestion, experiment dispatch,
and deterministic CSV emission.

Usage:
    heatlab run <config.json> [--out DIR] [--threads N]
    heatlab validate <config.json>

Configs are strict JSON, one experiment per file, checked against that
experiment's table in ``SCHEMAS`` (type, constraint and default of every
key): unknown or duplicate keys and malformed values are errors.
``run_experiment`` writes every experiment CSV.  Identical configs and
seeds produce byte-identical CSV bodies; a manifest.json records the
config hash, seed, tool version, and wall time.  Exit codes: 0 success,
2 config error, 3 numerical failure.

Loading this module loads no numpy, so ``--threads`` caps the BLAS pools
before they start.
"""

import argparse
import csv
import hashlib
import json
import math
import operator
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__, defaults
from .errors import ConfigError, HeatlabError

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


# ---------------------------------------------------------------------------
# Schema: one table per experiment, one _Field per key.  Rules that tie
# fields together follow the tables in ``_check_cross_fields``.


_REQUIRED = object()


class _Field(NamedTuple):
    """A key's type (a name in _TYPES, a tuple of the allowed values, or
    the table of a nested object), its constraint "symbol op bound" on the
    value or on each list element, and its default (None: it may be absent)."""

    type: object
    rule: str = None
    default: object = _REQUIRED


def _integer(v):
    return v if type(v) is int else None


def _number(v):
    return float(v) if type(v) in (int, float) and abs(v) <= sys.float_info.max else None


def _list_of(parse):
    def parse_list(v):
        out = [parse(x) for x in v] if type(v) is list and v else [None]
        return None if None in out else out

    return parse_list


_TYPES = {
    "an integer": _integer,
    "a number": _number,
    "a string": lambda v: v if type(v) is str else None,
    "a boolean": lambda v: v if type(v) is bool else None,
    "a nonempty list of integers": _list_of(_integer),
    "a nonempty list of numbers": _list_of(_number),
}
_OPS = {">": operator.gt, ">=": operator.ge, "!=": operator.ne}

_TAU_IM = _Field("a number", "Im(tau) > 0")
_K_LIST = _Field("a nonempty list of integers", "k >= 1")
_T_LIST = _Field("a nonempty list of numbers", "t > 0")
_MODEL = {
    "n": _Field("an integer", "n >= 1"),
    "lambda": _Field("a nonempty list of numbers"),
    "q": _Field("an integer"),
    "t_list": _T_LIST,
}
_GRID = _Field({
    "radius": _Field("a number", "radius > 0"),
    "spacing": _Field("a number", "h > 0"),
})


def _perturbation(*kinds):
    return _Field({
        "kind": _Field(("zero", *kinds), None, "zero"),
        "amplitude": _Field("a number", None, 0.0),
    }, None, {})


SCHEMAS = {
    "model-kernel": _MODEL,
    "converge": {
        **_MODEL,
        "k_list": _K_LIST,
        "grid": _GRID,
        "weight_perturbation": _perturbation("re_z3", "abs_z4"),
        "metric_perturbation": _perturbation("linear_r11"),
        "method": _Field({
            "variant": _Field(("dense-eigen", "krylov"), None, "krylov"),
        }, None, {}),
    },
    "trace": {
        **_MODEL,
        "grid": _GRID,
        "stochastic": _Field("a boolean", None, False),
        "probes": _Field("an integer", "probes >= 2", defaults.TRACE_PROBES),
    },
    "morse": {
        "model": _Field(("elliptic", "product")),
        "tau_im": _TAU_IM,
        "degree": _Field("an integer", "degree != 0", None),           # model elliptic
        "degrees": _Field("a nonempty list of integers", None, None),  # model product
        "k_list": _K_LIST,
        "q_list": _Field("a nonempty list of integers"),
        "t_list": _T_LIST,
    },
    "spectrum": {
        "tau_im": _TAU_IM,
        "degree": _Field("an integer", "degree != 0"),
        "k": _Field("an integer", "k >= 1"),
        "q": _Field((0, 1)),
        "cutoff": _Field("an integer", "cutoff >= 0"),
    },
    "validate-oracle": {
        "tau_im": _TAU_IM,
        "degree": _Field("an integer", "degree >= 1"),
        "k_list": _K_LIST,
        "eigen_count": _Field("an integer", "eigen_count >= 1", 10),
        "resolutions": _Field("a nonempty list of integers", None, [32, 64]),
    },
}
_COMMON = {
    "experiment": _Field(tuple(SCHEMAS)),
    "seed": _Field("an integer"),
    "output": _Field("a string"),
}


def _check_value(value, field: _Field, name: str):
    if isinstance(field.type, dict):
        if type(value) is not dict:
            raise ConfigError(f"field {name!r} must be an object")
        return _check_table(value, field.type, name)
    if isinstance(field.type, tuple):
        if not any(type(value) is type(c) and value == c for c in field.type):
            raise ConfigError(f"field {name!r} must be one of {field.type}")
        return value
    parsed = _TYPES[field.type](value)
    if parsed is None:
        raise ConfigError(f"field {name!r} must be {field.type}")
    if field.rule is not None:
        _, op, bound = field.rule.split()
        values = parsed if type(parsed) is list else [parsed]
        if not all(_OPS[op](v, float(bound)) for v in values):
            raise ConfigError(f"field {name!r} must satisfy {field.rule}")
    return parsed


def _check_table(raw: dict, table: dict, where: str = None) -> dict:
    unknown = sorted(set(raw) - set(table))
    if unknown:
        name = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"unknown key {unknown[0]!r} in {where or 'config'}: no field {name!r}")
    out = {}
    for key, field in table.items():
        name = f"{where}.{key}" if where else key
        if key in raw:
            value = raw[key]
        elif field.default is _REQUIRED:
            raise ConfigError(f"missing field {name!r}")
        elif field.default is None:
            continue
        else:
            value = field.default
        out[key] = _check_value(value, field, name)
    return out


def _check_cross_fields(cfg: dict) -> None:
    kind = cfg["experiment"]
    output = cfg["output"]
    if output in ("", ".", "..", "manifest.json") or "/" in output or "\\" in output:
        raise ConfigError("field 'output' must be a bare file name other than manifest.json")
    if "n" in cfg:
        if len(cfg["lambda"]) != cfg["n"]:
            raise ConfigError("field 'lambda' must list n eigenvalues")
        if not 0 <= cfg["q"] <= cfg["n"]:
            raise ConfigError("field 'q' must satisfy 0 <= q <= n")
    if kind == "converge":
        if cfg["n"] != 1:
            raise ConfigError("field 'n' must be 1 in converge experiments")
        if cfg["k_list"] != sorted(set(cfg["k_list"])):
            raise ConfigError("field 'k_list' must be strictly increasing")
    elif kind == "morse":
        elliptic = cfg["model"] == "elliptic"
        needed = "degree" if elliptic else "degrees"
        if needed not in cfg:
            raise ConfigError(f"missing field {needed!r} (model {cfg['model']!r})")
        other = "degrees" if elliptic else "degree"
        if other in cfg:
            raise ConfigError(f"field {other!r} does not belong to model {cfg['model']!r}")
        degs = cfg.get("degrees")
        if not elliptic and (len(degs) != 2 or not degs[0] > 0 > degs[1]):
            raise ConfigError("field 'degrees' must be two integers with signs (+, -)")
        qmax = 1 if elliptic else 2
        if not all(0 <= q <= qmax for q in cfg["q_list"]):
            raise ConfigError(f"field 'q_list' must contain integers in [0, {qmax}]")
    elif kind == "validate-oracle":
        res = cfg["resolutions"]
        if len(res) != 2 or res[0] < 4 or res[1] != 2 * res[0]:
            raise ConfigError("field 'resolutions' must be [N, 2N] with N >= 4")
        low = max(cfg["k_list"]) * cfg["degree"]
        high = min(defaults.max_eigen_count(k * cfg["degree"], res[0]) for k in cfg["k_list"])
        if not low <= cfg["eigen_count"] <= high:
            raise ConfigError("field 'eigen_count' must satisfy max(k_list) * degree <= "
                              "eigen_count <= N^2 - max(2, copies of a Harper ring) "
                              f"for each k in k_list, at most {high}")


def validate_config(cfg: dict) -> dict:
    """Check a loaded config against its experiment's table and the
    cross-field rules; return a new dict with every default filled in."""
    if "experiment" not in cfg:
        raise ConfigError("missing field 'experiment'")
    kind = _check_value(cfg["experiment"], _COMMON["experiment"], "experiment")
    out = _check_table(cfg, {**_COMMON, **SCHEMAS[kind]})
    _check_cross_fields(out)
    return out


# ---------------------------------------------------------------------------
# Experiment runners (import compute modules lazily so --threads can pin
# BLAS pools before numpy loads).  Each reads a config as returned by
# validate_config and returns the CSV header and rows, which
# run_experiment writes.


def _fmt(x: float) -> str:
    return format(float(x), defaults.CSV_FLOAT_FORMAT)


def _fiber_entries(n: int, q: int) -> list:
    """(a, b, label of J, label of K) for every entry (J, K) of a fiber
    matrix, row by row."""
    from . import fiber

    idx = fiber.multi_indices(n, q)
    return [(a, b, fiber.index_label(J), fiber.index_label(K))
            for a, J in enumerate(idx) for b, K in enumerate(idx)]


def _run_model_kernel(cfg: dict):
    from .model_kernels import ModelSpec, model_diagonal

    spec = ModelSpec(cfg["n"], tuple(cfg["lambda"]), cfg["q"])
    entries = _fiber_entries(spec.n, spec.q)
    rows = []
    for t in cfg["t_list"]:
        diag = model_diagonal(spec, t).matrix
        rows += [[_fmt(t), spec.q, J, K, _fmt(diag[a, b].real), _fmt(diag[a, b].imag)]
                 for a, b, J, K in entries]
    return ["t", "q", "row_J", "col_J", "re_value", "im_value"], rows


def _linear_r11(amplitude: float):
    """The frame r(y) = [[amplitude * y_1]] of the ``linear_r11`` kind, a
    whole-grid form."""
    from .geometry import _on_grid

    return _on_grid(lambda y: (amplitude * y[:, 0]).reshape(-1, 1, 1))


def _run_converge(cfg: dict):
    from .geometry import WeightFunction, cubic_re_perturbation, quartic_abs_perturbation
    from .operators import GridSpec, PerturbationSpec
    from .semigroup import SemigroupMethod, converge_in_k

    wp, mp, method = cfg["weight_perturbation"], cfg["metric_perturbation"], cfg["method"]
    weight_pert = metric = None
    if wp["kind"] != "zero" and wp["amplitude"] != 0.0:
        build = {"re_z3": cubic_re_perturbation, "abs_z4": quartic_abs_perturbation}
        weight_pert = build[wp["kind"]](wp["amplitude"])
    if mp["kind"] == "linear_r11" and mp["amplitude"] != 0.0:
        metric = PerturbationSpec(r=_linear_r11(mp["amplitude"]))
    weight = WeightFunction(cfg["n"], tuple(cfg["lambda"]), weight_pert)
    grid = GridSpec(cfg["n"], cfg["grid"]["radius"], cfg["grid"]["spacing"])
    report = converge_in_k(weight, metric, cfg["q"], cfg["t_list"], cfg["k_list"], grid,
                           SemigroupMethod(**method))
    entries = _fiber_entries(report.n, report.q)
    rows = []
    for row in report.rows:
        for a, b, J, K in entries:
            v, mv = row.value[a, b], row.model[a, b]
            err = abs(v - mv)
            rows.append([row.k, _fmt(row.t), report.q, J, K, _fmt(v.real), _fmt(v.imag),
                         _fmt(mv.real), _fmt(mv.imag), _fmt(err), _fmt(err * math.sqrt(row.k))])
    return ["k", "t", "q", "row_J", "col_J", "re_value", "im_value", "re_model", "im_model",
            "abs_err", "abs_err_sqrtk"], rows


def _run_trace(cfg: dict):
    from .model_kernels import ModelSpec
    from .operators import GridSpec, assemble_model
    from .semigroup import SemigroupMethod, heat_traces

    spec = ModelSpec(cfg["n"], tuple(cfg["lambda"]), cfg["q"])
    op = assemble_model(spec, GridSpec(cfg["n"], cfg["grid"]["radius"], cfg["grid"]["spacing"]))
    ts = cfg["t_list"]
    method = SemigroupMethod("krylov" if cfg["stochastic"] else "dense-eigen")
    ests = heat_traces(op, ts, method, seed=cfg["seed"], probes=cfg["probes"])
    rows = [[_fmt(t), _fmt(est.value), _fmt(est.stderr), est.probes, est.method]
            for t, est in zip(ts, ests)]
    return ["t", "value", "stderr", "probes", "method"], rows


def _run_morse(cfg: dict):
    from .torus import EllipticCurveBundle, morse_trace_inequality, product_torus_morse

    tau = complex(0.0, cfg["tau_im"])
    if cfg["model"] == "elliptic":
        bundles, inequality = [EllipticCurveBundle(tau, cfg["degree"])], morse_trace_inequality
    else:
        bundles = [EllipticCurveBundle(tau, d) for d in cfg["degrees"]]
        inequality = product_torus_morse
    rows = []
    for k in cfg["k_list"]:
        for q in cfg["q_list"]:
            for t in cfg["t_list"]:
                rec = inequality(*bundles, k, q, t)
                rows.append([rec.k, rec.q, _fmt(rec.t), rec.lhs, _fmt(rec.rhs),
                             _fmt(rec.gap), rec.holds])
    return ["k", "q", "t", "lhs", "rhs", "gap", "holds"], rows


def _run_spectrum(cfg: dict):
    from .torus import EllipticCurveBundle, landau_spectrum

    bundle = EllipticCurveBundle(complex(0.0, cfg["tau_im"]), cfg["degree"])
    table = landau_spectrum(bundle, cfg["k"], cfg["q"], cfg["cutoff"])
    rows = [[m, _fmt(eig), int(mult)]
            for m, (eig, mult) in enumerate(table.rows)]
    return ["level", "eigenvalue", "multiplicity"], rows


def _run_validate_oracle(cfg: dict):
    from .torus import EllipticCurveBundle, riemann_roch_dims, validate_landau_levels

    bundle = EllipticCurveBundle(complex(0.0, cfg["tau_im"]), cfg["degree"])
    rows = []
    for k in cfg["k_list"]:
        val = validate_landau_levels(bundle, k, cfg["eigen_count"], tuple(cfg["resolutions"]))
        h0, _ = riemann_roch_dims(k, bundle.degree)
        for i, level in enumerate(val.levels):
            rows.append([k, int(level), _fmt(val.expected[i]), _fmt(val.extrapolated[i]),
                         _fmt(val.error_estimate[i]), int(val.multiplicities[i]),
                         val.expected_multiplicity, h0, bool(val.matches[i])])
    return ["k", "level", "expected", "extrapolated", "error_estimate", "multiplicity",
            "expected_multiplicity", "riemann_roch_h0", "match"], rows


_RUNNERS = {
    "model-kernel": _run_model_kernel,
    "converge": _run_converge,
    "trace": _run_trace,
    "morse": _run_morse,
    "spectrum": _run_spectrum,
    "validate-oracle": _run_validate_oracle,
}


def run_experiment(cfg: dict, out_dir: Path) -> Path:
    """Validate and run a loaded config, and write its one CSV; the
    manifest hashes the config as loaded, before its defaults are filled in."""
    loaded, cfg = cfg, validate_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / cfg["output"]
    started = time.time()
    header, rows = _RUNNERS[cfg["experiment"]](cfg)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(loaded, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "seed": cfg["seed"],
        "tool_version": __version__,
        "wall_time_s": time.time() - started,
        "outputs": [cfg["output"]],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def _apply_threads(args) -> None:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="heatlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config")
    runp.add_argument("--out", default=None, help="output directory (default: config's directory)")
    runp.add_argument("--threads", type=int, default=None,
                      help="BLAS/OpenMP thread cap")
    valp = sub.add_parser("validate", help="schema-check a config, print the normalized form")
    valp.add_argument("config")
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            cfg = validate_config(load_config(args.config))
            print("OK")
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        _apply_threads(args)
        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else Path(args.config).resolve().parent
        out = run_experiment(cfg, out_dir)
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HeatlabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
