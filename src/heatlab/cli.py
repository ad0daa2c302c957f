"""Command-line interface: configuration ingestion, experiment dispatch,
and deterministic CSV emission.

Usage:
    heatlab run <config.json> [--out DIR] [--threads N]
    heatlab validate <config.json>

Configs are strict JSON: unknown or duplicate keys are errors, one
experiment per file.  Identical configs and seeds produce byte-identical
CSV bodies; a manifest.json records the config hash, seed, tool version,
and wall time.  Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .errors import ConfigError, HeatlabError

VERSION = "0.1.0"

EXPERIMENTS = ("model-kernel", "converge", "trace", "morse", "spectrum", "validate-oracle")

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
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


# ---------------------------------------------------------------------------
# Schema validation


def _require(cfg: dict, key: str, kind, what: str):
    if key not in cfg:
        raise ConfigError(f"missing field {key!r}")
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"field {key!r} must be {what}")
    return value


def _positive_list(cfg: dict, key: str, integral: bool):
    value = _require(cfg, key, list, "a list")
    if not value:
        raise ConfigError(f"field {key!r} must be nonempty")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"field {key!r} must contain numbers")
        if integral and (not isinstance(v, int) or v < 1):
            raise ConfigError(f"field {key!r} must contain positive integers")
        if not integral and v <= 0:
            raise ConfigError(f"field {key!r} must contain positive numbers")
        out.append(int(v) if integral else float(v))
    return out


def _check_keys(cfg: dict, allowed, where: str = "config"):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _grid_from(cfg: dict):
    grid = _require(cfg, "grid", dict, "an object")
    _check_keys(grid, {"radius", "spacing"}, "grid")
    radius = _require(grid, "radius", (int, float), "a number")
    spacing = _require(grid, "spacing", (int, float), "a number")
    if radius <= 0:
        raise ConfigError("grid.radius must satisfy radius > 0")
    if spacing <= 0:
        raise ConfigError("grid.spacing must satisfy h > 0")
    return float(radius), float(spacing)


def _method_from(cfg: dict):
    method = cfg.get("method", {"variant": "auto"})
    if not isinstance(method, dict):
        raise ConfigError("field 'method' must be an object")
    _check_keys(method, {"variant", "krylov_dim", "krylov_tol", "dt"}, "method")
    variant = method.get("variant", "auto")
    if variant not in ("auto", "dense-eigen", "krylov", "crank-nicolson"):
        raise ConfigError(f"method.variant {variant!r} not recognized")
    return method


_WEIGHT_PERTURBATIONS = ("zero", "re_z3", "abs_z4")
_METRIC_PERTURBATIONS = ("zero", "linear_r11")


def _perturbation_from(cfg: dict, key: str, kinds):
    spec = cfg.get(key, {"kind": "zero"})
    if not isinstance(spec, dict):
        raise ConfigError(f"field {key!r} must be an object")
    _check_keys(spec, {"kind", "amplitude"}, key)
    kind = spec.get("kind", "zero")
    if kind not in kinds:
        raise ConfigError(f"{key}.kind must be one of {kinds}")
    amplitude = spec.get("amplitude", 0.0)
    if isinstance(amplitude, bool) or not isinstance(amplitude, (int, float)):
        raise ConfigError(f"{key}.amplitude must be a number")
    return kind, float(amplitude)


def _validate_common(cfg: dict) -> str:
    kind = _require(cfg, "experiment", str, "a string")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
    _require(cfg, "seed", int, "an integer")
    _require(cfg, "output", str, "a string")
    return kind


def validate_config(cfg: dict) -> dict:
    """Schema check only; returns the normalized config."""
    kind = _validate_common(cfg)
    common = {"experiment", "seed", "output"}
    if kind == "model-kernel":
        _check_keys(cfg, common | {"n", "lambda", "q", "t_list"})
        n = _require(cfg, "n", int, "an integer")
        lam = _require(cfg, "lambda", list, "a list")
        if n < 1 or len(lam) != n:
            raise ConfigError("field 'lambda' must list n eigenvalues, n >= 1")
        q = _require(cfg, "q", int, "an integer")
        if not 0 <= q <= n:
            raise ConfigError("field 'q' must satisfy 0 <= q <= n")
        _positive_list(cfg, "t_list", integral=False)
    elif kind == "converge":
        _check_keys(cfg, common | {"n", "lambda", "q", "t_list", "k_list", "grid",
                                   "weight_perturbation", "metric_perturbation", "method"})
        n = _require(cfg, "n", int, "an integer")
        if n != 1:
            raise ConfigError("converge experiments support n = 1")
        lam = _require(cfg, "lambda", list, "a list")
        if len(lam) != n:
            raise ConfigError("field 'lambda' must list n eigenvalues")
        q = _require(cfg, "q", int, "an integer")
        if not 0 <= q <= n:
            raise ConfigError("field 'q' must satisfy 0 <= q <= n")
        _positive_list(cfg, "t_list", integral=False)
        ks = _positive_list(cfg, "k_list", integral=True)
        if ks != sorted(set(ks)):
            raise ConfigError("field 'k_list' must be strictly increasing")
        _grid_from(cfg)
        _perturbation_from(cfg, "weight_perturbation", _WEIGHT_PERTURBATIONS)
        _perturbation_from(cfg, "metric_perturbation", _METRIC_PERTURBATIONS)
        _method_from(cfg)
    elif kind == "trace":
        _check_keys(cfg, common | {"n", "lambda", "q", "t_list", "grid", "stochastic", "probes"})
        n = _require(cfg, "n", int, "an integer")
        lam = _require(cfg, "lambda", list, "a list")
        if len(lam) != n:
            raise ConfigError("field 'lambda' must list n eigenvalues")
        q = _require(cfg, "q", int, "an integer")
        if not 0 <= q <= n:
            raise ConfigError("field 'q' must satisfy 0 <= q <= n")
        _positive_list(cfg, "t_list", integral=False)
        _grid_from(cfg)
        if "stochastic" in cfg and not isinstance(cfg["stochastic"], bool):
            raise ConfigError("field 'stochastic' must be a boolean")
        if "probes" in cfg:
            p = _require(cfg, "probes", int, "an integer")
            if p < 2:
                raise ConfigError("field 'probes' must be >= 2")
    elif kind == "morse":
        _check_keys(cfg, common | {"model", "tau_im", "degree", "degrees", "k_list",
                                   "q_list", "t_list"})
        model = _require(cfg, "model", str, "a string")
        if model not in ("elliptic", "product"):
            raise ConfigError("field 'model' must be 'elliptic' or 'product'")
        tau = _require(cfg, "tau_im", (int, float), "a number")
        if tau <= 0:
            raise ConfigError("field 'tau_im' must satisfy Im(tau) > 0")
        if model == "elliptic":
            d = _require(cfg, "degree", int, "an integer")
            if d == 0:
                raise ConfigError("field 'degree' must be nonzero")
            qmax = 1
        else:
            degs = _require(cfg, "degrees", list, "a list")
            if len(degs) != 2 or not all(isinstance(d, int) for d in degs):
                raise ConfigError("field 'degrees' must be two integers")
            if not (degs[0] > 0 and degs[1] < 0):
                raise ConfigError("field 'degrees' must have signs (+, -)")
            qmax = 2
        _positive_list(cfg, "k_list", integral=True)
        qs = _require(cfg, "q_list", list, "a list")
        if not qs or any(
            isinstance(q, bool) or not isinstance(q, int) or not 0 <= q <= qmax for q in qs
        ):
            raise ConfigError(f"field 'q_list' must contain integers in [0, {qmax}]")
        _positive_list(cfg, "t_list", integral=False)
    elif kind == "spectrum":
        _check_keys(cfg, common | {"tau_im", "degree", "k", "q", "cutoff"})
        tau = _require(cfg, "tau_im", (int, float), "a number")
        if tau <= 0:
            raise ConfigError("field 'tau_im' must satisfy Im(tau) > 0")
        d = _require(cfg, "degree", int, "an integer")
        if d == 0:
            raise ConfigError("field 'degree' must be nonzero")
        k = _require(cfg, "k", int, "an integer")
        if k < 1:
            raise ConfigError("field 'k' must be >= 1")
        q = _require(cfg, "q", int, "an integer")
        if q not in (0, 1):
            raise ConfigError("field 'q' must be 0 or 1")
        c = _require(cfg, "cutoff", int, "an integer")
        if c < 0:
            raise ConfigError("field 'cutoff' must be >= 0")
    elif kind == "validate-oracle":
        _check_keys(cfg, common | {"tau_im", "degree", "k_list", "eigen_count", "resolutions"})
        tau = _require(cfg, "tau_im", (int, float), "a number")
        if tau <= 0:
            raise ConfigError("field 'tau_im' must satisfy Im(tau) > 0")
        d = _require(cfg, "degree", int, "an integer")
        if d < 1:
            raise ConfigError("field 'degree' must be >= 1")
        _positive_list(cfg, "k_list", integral=True)
        if "eigen_count" in cfg:
            c = _require(cfg, "eigen_count", int, "an integer")
            if c < 1:
                raise ConfigError("field 'eigen_count' must be >= 1")
        if "resolutions" in cfg:
            res = _require(cfg, "resolutions", list, "a list")
            if len(res) != 2 or not all(isinstance(r, int) and r >= 4 for r in res) \
                    or res[1] != 2 * res[0]:
                raise ConfigError("field 'resolutions' must be [N, 2N] with N >= 4")
    return cfg


# ---------------------------------------------------------------------------
# Experiment runners (import compute modules lazily so --threads can pin
# BLAS pools before numpy loads)


def _fmt(x: float) -> str:
    from . import defaults

    return format(float(x), defaults.CSV_FLOAT_FORMAT)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _run_model_kernel(cfg: dict, out: Path):
    from . import fiber
    from .model_kernels import ModelSpec, model_diagonal

    spec = ModelSpec(cfg["n"], tuple(float(v) for v in cfg["lambda"]), cfg["q"])
    idx = fiber.multi_indices(spec.n, spec.q)
    rows = []
    for t in cfg["t_list"]:
        diag = model_diagonal(spec, float(t)).matrix
        for a, J in enumerate(idx):
            for b, K in enumerate(idx):
                rows.append([_fmt(t), spec.q, fiber.index_label(J), fiber.index_label(K),
                             _fmt(diag[a, b].real), _fmt(diag[a, b].imag)])
    _write_csv(out, ["t", "q", "row_J", "col_J", "re_value", "im_value"], rows)


def _build_perturbations(cfg: dict):
    import numpy as np

    from .geometry import cubic_re_perturbation, quartic_abs_perturbation
    from .operators import PerturbationSpec

    wkind, wamp = cfg.get("weight_perturbation", {"kind": "zero"}).get("kind", "zero"), \
        float(cfg.get("weight_perturbation", {}).get("amplitude", 0.0))
    weight_pert = None
    if wkind == "re_z3" and wamp != 0.0:
        weight_pert = cubic_re_perturbation(wamp)
    elif wkind == "abs_z4" and wamp != 0.0:
        weight_pert = quartic_abs_perturbation(wamp)
    mkind, mamp = cfg.get("metric_perturbation", {"kind": "zero"}).get("kind", "zero"), \
        float(cfg.get("metric_perturbation", {}).get("amplitude", 0.0))
    metric = None
    if mkind == "linear_r11" and mamp != 0.0:
        amp = mamp
        metric = PerturbationSpec(r=lambda y: np.array([[amp * y[0]]], dtype=complex))
    return weight_pert, metric


def _method_obj(cfg: dict):
    from .semigroup import SemigroupMethod

    m = cfg.get("method", {"variant": "auto"})
    variant = m.get("variant", "auto")
    if variant == "auto":
        return None
    kwargs = {"variant": variant}
    if "krylov_dim" in m:
        kwargs["krylov_dim"] = int(m["krylov_dim"])
    if "krylov_tol" in m:
        kwargs["krylov_tol"] = float(m["krylov_tol"])
    if "dt" in m:
        kwargs["dt"] = float(m["dt"])
    return SemigroupMethod(**kwargs)


def _run_converge(cfg: dict, out: Path):
    from .geometry import WeightFunction
    from .operators import GridSpec
    from .semigroup import converge_in_k

    weight_pert, metric = _build_perturbations(cfg)
    weight = WeightFunction(cfg["n"], tuple(float(v) for v in cfg["lambda"]), weight_pert)
    radius, spacing = float(cfg["grid"]["radius"]), float(cfg["grid"]["spacing"])
    grid = GridSpec(cfg["n"], radius, spacing)
    report = converge_in_k(weight, metric, cfg["q"], [float(t) for t in cfg["t_list"]],
                           [int(k) for k in cfg["k_list"]], grid, _method_obj(cfg))
    report.to_csv(out)


def _run_trace(cfg: dict, out: Path):
    from .model_kernels import ModelSpec
    from .operators import GridSpec, assemble_model
    from .semigroup import SemigroupMethod, heat_traces

    spec = ModelSpec(cfg["n"], tuple(float(v) for v in cfg["lambda"]), cfg["q"])
    radius, spacing = float(cfg["grid"]["radius"]), float(cfg["grid"]["spacing"])
    op = assemble_model(spec, GridSpec(cfg["n"], radius, spacing))
    ts = [float(t) for t in cfg["t_list"]]
    if cfg.get("stochastic", False):
        ests = heat_traces(op, ts, SemigroupMethod("krylov"), seed=cfg["seed"],
                           probes=int(cfg.get("probes", 64)))
    else:
        ests = heat_traces(op, ts, SemigroupMethod("dense-eigen"))
    rows = [[_fmt(t), _fmt(est.value), _fmt(est.stderr), est.probes, est.method]
            for t, est in zip(ts, ests)]
    _write_csv(out, ["t", "value", "stderr", "probes", "method"], rows)


def _run_morse(cfg: dict, out: Path):
    from .torus import EllipticCurveBundle, morse_trace_inequality, product_torus_morse

    tau = complex(0.0, float(cfg["tau_im"]))
    rows = []
    if cfg["model"] == "elliptic":
        bundle = EllipticCurveBundle(tau, cfg["degree"])
        for k in cfg["k_list"]:
            for q in cfg["q_list"]:
                for t in cfg["t_list"]:
                    rec = morse_trace_inequality(bundle, int(k), int(q), float(t))
                    rows.append([rec.k, rec.q, _fmt(rec.t), rec.lhs, _fmt(rec.rhs),
                                 _fmt(rec.gap), rec.holds])
    else:
        b1 = EllipticCurveBundle(tau, cfg["degrees"][0])
        b2 = EllipticCurveBundle(tau, cfg["degrees"][1])
        for k in cfg["k_list"]:
            for q in cfg["q_list"]:
                for t in cfg["t_list"]:
                    rec = product_torus_morse(b1, b2, int(k), int(q), float(t))
                    rows.append([rec.k, rec.q, _fmt(rec.t), rec.lhs, _fmt(rec.rhs),
                                 _fmt(rec.gap), rec.holds])
    _write_csv(out, ["k", "q", "t", "lhs", "rhs", "gap", "holds"], rows)


def _run_spectrum(cfg: dict, out: Path):
    from .torus import EllipticCurveBundle, landau_spectrum

    bundle = EllipticCurveBundle(complex(0.0, float(cfg["tau_im"])), cfg["degree"])
    table = landau_spectrum(bundle, cfg["k"], cfg["q"], cfg["cutoff"])
    rows = [[m, _fmt(eig), int(mult)]
            for m, (eig, mult) in enumerate(table.rows)]
    _write_csv(out, ["level", "eigenvalue", "multiplicity"], rows)


def _run_validate_oracle(cfg: dict, out: Path):
    from .torus import EllipticCurveBundle, riemann_roch_dims, validate_landau_levels

    bundle = EllipticCurveBundle(complex(0.0, float(cfg["tau_im"])), cfg["degree"])
    res = tuple(cfg.get("resolutions", [32, 64]))
    count = int(cfg.get("eigen_count", 10))
    rows = []
    for k in cfg["k_list"]:
        val = validate_landau_levels(bundle, int(k), count, res)
        h0, _ = riemann_roch_dims(int(k), bundle.degree)
        for i, level in enumerate(val.levels):
            rows.append([int(k), int(level), _fmt(val.expected[i]), _fmt(val.extrapolated[i]),
                         _fmt(val.error_estimate[i]), int(val.multiplicities[i]),
                         val.expected_multiplicity, h0, bool(val.matches[i])])
    _write_csv(out, ["k", "level", "expected", "extrapolated", "error_estimate",
                     "multiplicity", "expected_multiplicity", "riemann_roch_h0", "match"],
               rows)


_RUNNERS = {
    "model-kernel": _run_model_kernel,
    "converge": _run_converge,
    "trace": _run_trace,
    "morse": _run_morse,
    "spectrum": _run_spectrum,
    "validate-oracle": _run_validate_oracle,
}


def run_experiment(cfg: dict, out_dir: Path) -> Path:
    validate_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / cfg["output"]
    started = time.time()
    _RUNNERS[cfg["experiment"]](cfg, out)
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "seed": cfg["seed"],
        "tool_version": VERSION,
        "wall_time_s": time.time() - started,
        "outputs": [cfg["output"]],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def _apply_threads(args) -> None:
    threads = args.threads
    if threads is None:
        env = os.environ.get("HEATLAB_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError("HEATLAB_THREADS must be an integer") from None
    if threads is not None:
        if threads < 1:
            raise ConfigError("--threads must be >= 1")
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="heatlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config")
    runp.add_argument("--out", default=None, help="output directory (default: config's directory)")
    runp.add_argument("--threads", type=int, default=None,
                      help="BLAS/OpenMP thread cap (fallback: HEATLAB_THREADS)")
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
        detail = ""
        if getattr(exc, "residual", None) is not None:
            detail = f" (residual {exc.residual:.3e})"
        if getattr(exc, "bound", None) is not None:
            detail = f" (bound {exc.bound:.3e})"
        print(f"numerical failure: {exc}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
