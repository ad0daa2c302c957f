import json
from pathlib import Path

import numpy as np
import pytest

from heatlab.cli import load_config, main, validate_config
from heatlab.errors import ConfigError


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


MODEL_KERNEL_CFG = {
    "experiment": "model-kernel",
    "n": 1,
    "lambda": [0.0],
    "q": 0,
    "t_list": [2.0],
    "seed": 1,
    "output": "mk.csv",
}


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", MODEL_KERNEL_CFG)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert '"experiment": "model-kernel"' in out


def test_duplicate_key_rejected(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"experiment": "model-kernel", "experiment": "trace"}', encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "experiment" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (tmp_path / "absent.json", tmp_path, not_utf8):
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_field_names_it(tmp_path, capsys):
    cfg = dict(MODEL_KERNEL_CFG)
    del cfg["q"]
    path = _write(tmp_path, "noq.json", cfg)
    assert main(["run", str(path)]) == 2
    assert "'q'" in capsys.readouterr().err


def test_out_of_range_spacing_names_constraint(tmp_path, capsys):
    cfg = {
        "experiment": "trace",
        "n": 1,
        "lambda": [1.0],
        "q": 0,
        "t_list": [1.0],
        "grid": {"radius": 3.0, "spacing": -0.5},
        "seed": 1,
        "output": "t.csv",
    }
    path = _write(tmp_path, "badh.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert "h > 0" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path):
    cfg = dict(MODEL_KERNEL_CFG)
    cfg["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        validate_config(cfg)


CONVERGE_CFG = {
    "experiment": "converge",
    "n": 1,
    "lambda": [1.0],
    "q": 0,
    "k_list": [4],
    "t_list": [1.0],
    "grid": {"radius": 3.0, "spacing": 0.5},
    "seed": 5,
    "output": "conv.csv",
}

MORSE_PRODUCT_CFG = {
    "experiment": "morse",
    "model": "product",
    "tau_im": 1.0,
    "degrees": [2, -3],
    "k_list": [1],
    "q_list": [0],
    "t_list": [1.0],
    "seed": 1,
    "output": "morse.csv",
}

# eigen_count must lie in [max(k_list) * degree, N^2 - 3] = [3, 141]: at
# k = 3 the 3 Harper rings on N = 12 are copies of one
ORACLE_CFG = {
    "experiment": "validate-oracle",
    "tau_im": 1.0,
    "degree": 1,
    "k_list": [1, 3],
    "eigen_count": 6,
    "resolutions": [12, 24],
    "seed": 1,
    "output": "oracle.csv",
}


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize("base, change, field", [
    (MODEL_KERNEL_CFG, {"lambda": ["a"]}, "'lambda'"),
    (MODEL_KERNEL_CFG, {"lambda": [True]}, "'lambda'"),
    (CONVERGE_CFG, {"method": {"krylov_dim": 0}}, "'method.krylov_dim'"),
    (CONVERGE_CFG, {"method": {"krylov_dim": "x"}}, "'method.krylov_dim'"),
    (CONVERGE_CFG, {"method": {"krylov_tol": -1}}, "'method.krylov_tol'"),
    (CONVERGE_CFG, {"method": {"variant": "crank-nicolson"}}, "'method.variant'"),
    (CONVERGE_CFG, {"method": {"variant": "crank-nicolson", "dt": 0}}, "'dt'"),
    (MORSE_PRODUCT_CFG, {"degrees": [True, -3]}, "'degrees'"),
    (ORACLE_CFG, {"eigen_count": 2}, "'eigen_count'"),
    (ORACLE_CFG, {"eigen_count": 12**2 - 1}, "'eigen_count'"),
    (MODEL_KERNEL_CFG, {"output": "manifest.json"}, "'output'"),
    (MODEL_KERNEL_CFG, {"output": "../escaped.csv"}, "'output'"),
    (MODEL_KERNEL_CFG, {"output": ".."}, "'output'"),
    (CONVERGE_CFG, {"method": {"variant": "auto"}}, "'method.variant'"),
    (CONVERGE_CFG, {"grid": 1}, "'grid'"),
    (MODEL_KERNEL_CFG, {"lambda": [1.0, 2.0]}, "'lambda'"),
    (MODEL_KERNEL_CFG, {"q": 2}, "'q'"),
    (CONVERGE_CFG, {"n": 2, "lambda": [1.0, 1.0]}, "'n'"),
    (CONVERGE_CFG, {"k_list": [4, 4]}, "'k_list'"),
    (CONVERGE_CFG, {"k_list": [16, 4]}, "'k_list'"),
    (MORSE_PRODUCT_CFG, {"model": "elliptic"}, "'degree'"),
    (_without(MORSE_PRODUCT_CFG, "degrees"), {}, "'degrees'"),
    (MORSE_PRODUCT_CFG, {"degrees": [2, 3]}, "'degrees'"),
    (MORSE_PRODUCT_CFG, {"degrees": [2]}, "'degrees'"),
    (MORSE_PRODUCT_CFG, {"q_list": [3]}, "'q_list'"),
    (ORACLE_CFG, {"resolutions": [12, 25]}, "'resolutions'"),
    (ORACLE_CFG, {"resolutions": [2, 4]}, "'resolutions'"),
    (_without(MODEL_KERNEL_CFG, "experiment"), {}, "'experiment'"),
    (MORSE_PRODUCT_CFG, {"model": "elliptic", "degree": 1}, "'degrees'"),
    (MORSE_PRODUCT_CFG, {"degree": 5}, "'degree'"),
    (None, '{"experiment": ', "invalid JSON"),
    (None, "[1]", "config root"),
    (ORACLE_CFG, {"eigen_count": 12**2 - 2}, "'eigen_count'"),
])
def test_malformed_value_exits_2_naming_field(tmp_path, capsys, base, change, field):
    path = tmp_path / "bad.json"
    path.write_text(change if base is None else json.dumps({**base, **change}), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_validate_fills_defaults():
    cfg = validate_config(dict(CONVERGE_CFG))
    assert cfg["method"] == {"variant": "krylov"}
    assert cfg["weight_perturbation"] == cfg["metric_perturbation"] == {"kind": "zero",
                                                                          "amplitude": 0.0}
    assert validate_config(cfg) == cfg


def test_model_kernel_run_value(tmp_path):
    path = _write(tmp_path, "cfg.json", MODEL_KERNEL_CFG)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "mk.csv").read_text().splitlines()
    assert lines[0] == "t,q,row_J,col_J,re_value,im_value"
    assert len(lines) == 2
    value = float(lines[1].split(",")[4])
    np.testing.assert_allclose(value, 1.0 / (4 * np.pi), rtol=1e-15)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 1 and manifest["outputs"] == ["mk.csv"]


def test_one_version_string(tmp_path):
    # pyproject.toml, the package and every manifest name one version
    import heatlab

    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    path = _write(tmp_path, "cfg.json", MODEL_KERNEL_CFG)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert version == heatlab.__version__ == manifest["tool_version"]


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = {
        "experiment": "trace",
        "n": 1,
        "lambda": [1.0],
        "q": 0,
        "t_list": [1.0],
        "grid": {"radius": 8.0, "spacing": 0.01},  # exceeds the site cap
        "seed": 1,
        "output": "t.csv",
    }
    path = _write(tmp_path, "huge.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["krylov"])
def test_krylov_failure_reports_residual_once(tmp_path, capsys, monkeypatch, variant):
    # with no halving allowed and no sweep trusted, the Chebyshev propagator
    # fails on the dim-3721 operator; the CLI prints its residual once
    from heatlab import semigroup

    monkeypatch.setattr(semigroup, "_MAX_HALVINGS", 0)
    monkeypatch.setattr(semigroup, "_ROUNDING_LIMIT", 0.0)
    cfg = {
        "experiment": "converge", "n": 1, "lambda": [1.0], "q": 0,
        "k_list": [4], "t_list": [1.0], "grid": {"radius": 3.0, "spacing": 0.1},
        "method": {"variant": variant}, "seed": 1, "output": "c.csv",
    }
    path = _write(tmp_path, "starved.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.count("residual") == 1


def _byte_identical_outputs(tmp_path, cfg, name):
    p = _write(tmp_path, name, cfg)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(p), "--out", str(d1)]) == 0
    assert main(["run", str(p), "--out", str(d2)]) == 0
    f1 = (d1 / cfg["output"]).read_bytes()
    f2 = (d2 / cfg["output"]).read_bytes()
    return f1 == f2


def test_deterministic_model_kernel(tmp_path):
    assert _byte_identical_outputs(tmp_path, MODEL_KERNEL_CFG, "mk.json")


def test_model_kernel_negative_curvature_writes_finite_cells(tmp_path):
    # at t = 800 the twisted factor heat_factor(-1, t) e^{t} is 1/(2 pi)
    cfg = dict(MODEL_KERNEL_CFG, **{"lambda": [-1.0], "q": 1, "t_list": [0.5, 800.0]})
    path = _write(tmp_path, "neg.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    body = (tmp_path / cfg["output"]).read_text(encoding="utf-8")
    assert "nan" not in body and "inf" not in body
    assert body.splitlines()[2].split(",")[4] == repr(1 / (2 * np.pi))


def test_deterministic_stochastic_trace(tmp_path):
    cfg = {
        "experiment": "trace",
        "n": 1,
        "lambda": [1.0],
        "q": 0,
        "t_list": [0.5, 1.0],
        "grid": {"radius": 3.0, "spacing": 0.5},
        "stochastic": True,
        "probes": 16,
        "seed": 77,
        "output": "trace.csv",
    }
    assert _byte_identical_outputs(tmp_path, cfg, "trace.json")


def test_converge_config_runs(tmp_path):
    cfg = {
        "experiment": "converge",
        "n": 1,
        "lambda": [1.0],
        "q": 0,
        "weight_perturbation": {"kind": "re_z3", "amplitude": 0.1},
        "metric_perturbation": {"kind": "linear_r11", "amplitude": 0.1},
        "k_list": [4, 16],
        "t_list": [0.5, 1.0],
        "grid": {"radius": 3.0, "spacing": 0.5},
        "method": {"variant": "krylov"},
        "seed": 5,
        "output": "conv.csv",
    }
    path = _write(tmp_path, "conv.json", cfg)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "conv.csv").read_text().splitlines()
    assert lines[0] == "k,t,q,row_J,col_J,re_value,im_value,re_model,im_model,abs_err,abs_err_sqrtk"
    # one row per k and t, k-major, with empty q = 0 fiber labels
    assert len(lines) == 5
    assert lines[1].startswith("4,0.5,0,,,")
    # at t = 1 the error falls with k (at t = 0.5 this coarse grid's
    # h-floor dominates it)
    errs = [float(line.split(",")[9]) for line in lines[2::2]]
    assert errs[1] < errs[0]


def test_linear_r11_grid_form_matches_per_point_values_bit_for_bit():
    from heatlab.cli import _linear_r11
    from heatlab.geometry import _sample

    rng = np.random.default_rng(11)
    points = 3.0 * (rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1)))
    r = _linear_r11(0.1)
    whole = _sample(r, points, (1, 1), complex)
    per_point = np.array([r(p) for p in points], dtype=complex)
    assert np.array_equal(whole.view(np.float64), per_point.view(np.float64))
    np.testing.assert_array_equal(whole[:, 0, 0], 0.1 * points[:, 0])


def test_spectrum_and_morse_and_oracle_configs(tmp_path):
    spectrum = {
        "experiment": "spectrum",
        "tau_im": 1.0,
        "degree": 2,
        "k": 3,
        "q": 0,
        "cutoff": 4,
        "seed": 1,
        "output": "spec.csv",
    }
    path = _write(tmp_path, "spec.json", spectrum)
    assert main(["run", str(path), "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "spec.csv").read_text().splitlines()
    assert lines[1].split(",")[2] == "6"

    morse = {
        "experiment": "morse",
        "model": "elliptic",
        "tau_im": 1.0,
        "degree": 1,
        "k_list": [1, 2],
        "q_list": [0, 1],
        "t_list": [0.5],
        "seed": 1,
        "output": "morse.csv",
    }
    path = _write(tmp_path, "morse.json", morse)
    assert main(["run", str(path), "--out", str(tmp_path / "m")]) == 0
    rows = (tmp_path / "m" / "morse.csv").read_text().splitlines()
    assert rows[0] == "k,q,t,lhs,rhs,gap,holds"
    assert all(line.endswith("True") for line in rows[1:])

    oracle = {
        "experiment": "validate-oracle",
        "tau_im": 1.0,
        "degree": 1,
        "k_list": [1],
        "eigen_count": 4,
        "resolutions": [12, 24],
        "seed": 1,
        "output": "oracle.csv",
    }
    path = _write(tmp_path, "oracle.json", oracle)
    assert main(["run", str(path), "--out", str(tmp_path / "v")]) == 0
    rows = (tmp_path / "v" / "oracle.csv").read_text().splitlines()
    assert rows[0].startswith("k,level,expected")
    assert all(line.endswith("True") for line in rows[1:])


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HEATLAB_THREADS", "notanumber")
    path = _write(tmp_path, "cfg.json", MODEL_KERNEL_CFG)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("HEATLAB_THREADS", "1")
    assert main(["run", str(path), "--threads", "0", "--out", str(tmp_path / "o0")]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "o2")]) == 0


# Every name the package namespace exported when it imported its submodules
# eagerly, less the deleted curvature-field CSV reader and ``KernelValue``
# (the kernels return ``FiberEndomorphism``); the lazy namespace must still
# resolve each of them.
PACKAGE_EXPORTS = (
    "AccuracyError", "ArgumentError", "ConfigError", "DomainError", "HeatlabError",
    "InvariantViolation", "NumericalError", "ResourceLimitError",
    "CurvatureEndomorphism", "CurvatureField", "FiberEndomorphism", "Perturbation",
    "WeightFunction", "asymptotic_diagonal", "curvature_at", "morse_bound", "morse_index",
    "twist_endomorphism",
    "ModelSpec", "mehler_scalar", "model_diagonal", "model_kernel", "weighted_kernel",
    "DiscreteOperator", "GridSpec", "PerturbationSpec", "assemble_model", "assemble_scaled",
    "to_matrix_market",
    "ConvergenceReport", "SemigroupMethod", "converge_in_k", "heat_apply", "heat_trace",
    "kernel_diagonal", "spectral_bound_check",
    "EllipticCurveBundle", "SpectrumTable", "heat_trace_exact", "heat_trace_truncated",
    "landau_spectrum", "morse_trace_inequality", "product_torus_morse",
    "validate_landau_levels", "__version__",
)

_THREADS_PROBE = """
import json, os, sys
import heatlab.cli as cli

seen = []
apply_threads = cli._apply_threads

def spy(args):
    seen.append("numpy" in sys.modules)
    apply_threads(args)

cli._apply_threads = spy
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2], "--threads", "1"])
import heatlab
from heatlab import semigroup
print(json.dumps({
    "code": code,
    "numpy_at_apply": seen,
    "omp": os.environ.get("OMP_NUM_THREADS"),
    "missing": [name for name in sys.argv[3:] if not hasattr(heatlab, name)],
    "same_object": heatlab.spectral_bound_check is semigroup.spectral_bound_check,
}))
"""


def test_threads_applied_before_numpy_loads(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "HEATLAB_THREADS"):
        env.pop(var, None)
    path = _write(tmp_path, "cfg.json", MODEL_KERNEL_CFG)
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE, str(path), str(tmp_path / "o"),
         *PACKAGE_EXPORTS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "numpy_at_apply": [False], "omp": "1", "missing": [],
                      "same_object": True}


_IMPORTS_PROBE = """
import json, sys
import heatlab.cli as cli

code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "scipy.sparse": "scipy.sparse" in sys.modules}))
"""


def test_morse_run_leaves_scipy_sparse_unloaded(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_PROBE, str(root / "configs" / "morse_elliptic.json"),
         str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "scipy.sparse": False}


def test_threads_do_not_change_csv_bytes(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "HEATLAB_THREADS"):
        env.pop(var, None)
    for name in ("trace_stochastic", "converge_scaling", "validate_oracle"):
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"{name}-{threads}"
            subprocess.run(
                [sys.executable, "-m", "heatlab.cli", "run", str(root / "configs" / f"{name}.json"),
                 "--out", str(out), "--threads", str(threads)],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            outputs.append((out / f"{name}.csv").read_bytes())
        assert outputs[0] == outputs[1], name


def test_shipped_configs_validate():
    from pathlib import Path

    config_dir = Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(config_dir.glob("*.json"))
    assert paths, "no shipped configs found"
    for path in paths:
        validate_config(load_config(path))


def test_python_m_heatlab_runs_a_config(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "heatlab", "run", str(root / "configs" / "spectrum_landau.json"),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote ")
    got = (tmp_path / "spectrum_landau.csv").read_bytes()
    assert got == (root / "tests" / "reference" / "spectrum_landau.csv").read_bytes()
