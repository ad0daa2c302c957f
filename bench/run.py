"""Time heatlab layers at fixed sizes and write the medians and quartiles
to a JSON file.

Cases (each repeat is one fresh process: it runs the case's set-up and
one warm-up call, then times 3 calls of the case's work, each on a fresh
set-up, and reports their median; the warm-up call's time is reported
apart as the cold time.  A last call on a fresh set-up runs under
tracemalloc, untimed, and reports the peak of the memory traced during
the work, set-up excluded; the report holds its median over the
repeats):

- ``n1``: ``assemble_scaled`` with n = 1, lambda = 1, q = 0, k = 16 on the
  grid of radius 6 and spacing 0.1 (14 641 sites), weight perturbation
  0.1 Re(z^3) and frame perturbation r_11(y) = 0.1 y_1, the whole-grid
  form of the CLI's ``linear_r11`` frame (``cli._linear_r11``), as
  perfbench's ``converge`` workload uses it;
- ``n2``: ``assemble_scaled`` with n = 2, lambda = (1, -0.5), q = 1,
  k = 16 on the grid of radius 2 and spacing 0.5 (6 561 sites), frame
  perturbation r = [[0, 0.1 y_1], [0.05 y_2, 0]];
- ``diag_n1``: ``kernel_diagonals`` at the origin for t = 0.5 and 1 on a
  fresh model operator with n = 1, lambda = 1, q = 1 on the grid of
  radius 5 and spacing 0.1 (10 201 sites);
- ``diag_n2``: ``kernel_diagonals`` at the origin for t = 1 (both fiber
  deltas) on a fresh ``n2`` scaled operator (dimension 13 122), as the
  n = 2 step of perfbench's ``converge`` workload runs it;
- ``trace_n1``: stochastic ``heat_traces`` (the default method) with the
  probes, seed and times of ``configs/trace_stochastic.json`` on a fresh
  model operator of that config (1 089 sites, 64 probes);
- ``oracle_32_64`` and ``oracle_48_96``: ``validate_landau_levels`` for
  the degree-1 bundle on tau = i at k = 3 with 10 eigenvalues, at
  resolutions (32, 64) and (48, 96).  At (32, 64) there is g = gcd(N, 3)
  = 1 Harper ring, so a change to how the shift classes of the rings are
  solved leaves its ARPACK call as it was: it is the control.  At
  (48, 96) the g = 3 rings are copies of one, which ARPACK solves alone;
- ``converge_scaling``: ``cli.run_experiment`` on
  ``configs/converge_scaling.json`` into a fresh temporary directory
  (set-up), end to end from the loaded config to the CSV and manifest.

Usage:
    python bench/run.py --out BENCH_<n>.json [--repeats 7] [--threads 1]
                        [--baseline-root TREE]

``--baseline-root`` names another checkout (for example one of the parent
commit).  Each repeat of a case then runs once against TREE/src and once
against this tree's src, alternating which runs first, with the same
thread settings, so that drift of the host between the two sides reaches
both alike.  Its medians go under "baseline", and the report counts the
repeats this tree won.  The BLAS thread variables are set to ``--threads``
for every process.  The output records the git sha (suffixed "-dirty" for
uncommitted changes), the total line count of ``src/heatlab/*.py``
(``src_lines``), the Python, numpy and scipy versions, nproc, the thread
count OpenBLAS reports and the process's OS thread count after the
imports.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Timed calls per worker process, after the warm-up call.
_CALLS = 3


def _git_sha(root):
    """The sha of root's HEAD, suffixed "-dirty" when its working tree has changes."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_lines(root):
    """Total line count of the package sources measured."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (root / "src" / "heatlab").glob("*.py"))


def _os_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cases():
    """name -> (set-up, work): work(set-up()) is timed."""
    import numpy as np

    from heatlab import cli, geometry as geo, operators as ops, semigroup, torus
    from heatlab.model_kernels import ModelSpec

    def r_frame(y):
        return np.array([[0.0, 0.1 * y[0]], [0.05 * y[1], 0.0]], dtype=complex)

    def assemble(weight, pert, k, grid, q):
        return lambda: None, lambda _: ops.assemble_scaled(weight, pert, k, grid, q)

    def model(spec, grid):
        return lambda: ops.assemble_model(spec, grid)

    def diagonals(op, ts=(0.5, 1.0)):
        semigroup.kernel_diagonals(op, op.grid.origin_site(), ts)
        return op

    cfg = json.loads((ROOT / "configs" / "trace_stochastic.json").read_text(encoding="utf-8"))

    def traces(op):
        semigroup.heat_traces(op, cfg["t_list"], semigroup.SemigroupMethod("krylov"),
                              seed=cfg["seed"], probes=cfg["probes"])
        return op

    def oracle(resolutions):
        bundle = torus.EllipticCurveBundle(1j, 1)
        return lambda: None, lambda _: torus.validate_landau_levels(bundle, 3, 10, resolutions)

    converge_cfg = cli.load_config(ROOT / "configs" / "converge_scaling.json")

    return {
        "n1": assemble(geo.WeightFunction(1, (1.0,), geo.cubic_re_perturbation(0.1)),
                       ops.PerturbationSpec(r=cli._linear_r11(0.1)), 16,
                       ops.GridSpec(1, 6.0, 0.1), 0),
        "n2": assemble(geo.WeightFunction(2, (1.0, -0.5)), ops.PerturbationSpec(r=r_frame), 16,
                       ops.GridSpec(2, 2.0, 0.5), 1),
        "diag_n1": (model(ModelSpec(1, (1.0,), 1), ops.GridSpec(1, 5.0, 0.1)), diagonals),
        "diag_n2": (lambda: ops.assemble_scaled(geo.WeightFunction(2, (1.0, -0.5)),
                                                ops.PerturbationSpec(r=r_frame), 16,
                                                ops.GridSpec(2, 2.0, 0.5), 1),
                    lambda op: diagonals(op, (1.0,))),
        "trace_n1": (model(ModelSpec(cfg["n"], tuple(cfg["lambda"]), cfg["q"]),
                           ops.GridSpec(cfg["n"], cfg["grid"]["radius"], cfg["grid"]["spacing"])),
                     traces),
        "oracle_32_64": oracle((32, 64)),
        "oracle_48_96": oracle((48, 96)),
        "converge_scaling": (tempfile.TemporaryDirectory,
                             lambda out: cli.run_experiment(converge_cfg, Path(out.name))),
    }


def _describe(result):
    """Size fields of an operator, the level count of an oracle validation,
    or the size of a CSV file."""
    if hasattr(result, "matrix"):
        return {"sites": result.grid.sites, "dim": result.dim, "nnz": int(result.matrix.nnz)}
    if isinstance(result, Path):
        return {"csv_bytes": result.stat().st_size}
    return {"levels": len(result.levels), "all_match": result.all_match}


def _worker(src, name):
    """Time one repeat of case ``name`` against the package sources in src:
    a warm-up call, then ``_CALLS`` calls, each on a fresh set-up, then one
    traced call.  Print the median of the timed calls, the warm-up call's
    seconds, the traced call's peak and the case's size fields as one JSON
    line."""
    sys.path.insert(0, src)
    setup, work = _cases()[name]
    times = []
    for _ in range(1 + _CALLS):
        arg = setup()
        start = time.perf_counter()
        result = work(arg)
        times.append(time.perf_counter() - start)
        info = _describe(result)
        del arg, result
    arg = setup()
    tracemalloc.start()
    work(arg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"s": statistics.median(times[1:]), "cold_s": times[0],
                      "peak_mb": peak / 1e6, "info": info}))


def _repeat(root, name, env):
    """One fresh worker process timing case ``name`` against root's sources."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root / "src"), name]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"case {name} failed against {root}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _summary(info, samples, cold, peaks):
    import numpy as np

    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {**info, "median_s": med, "iqr_s": q3 - q1, "q1_s": q1, "q3_s": q3,
            "samples_s": samples, "cold_median_s": float(np.median(cold)), "cold_s": cold,
            "peak_median_mb": float(np.median(peaks)), "peak_mb": peaks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write (required)")
    parser.add_argument("--repeats", type=int, default=7,
                        help=f"worker processes per case and side, each timing {_CALLS} calls (>= 5)")
    parser.add_argument("--threads", type=int, default=1, help="BLAS thread count")
    parser.add_argument("--baseline-root", help="checkout to time alternately with this tree")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "CASE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return _worker(*args.worker)
    if not args.out:
        parser.error("--out is required")
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    trees = {"change": ROOT}
    if args.baseline_root:
        base = Path(args.baseline_root).resolve()
        if not (base / "src" / "heatlab").is_dir():
            parser.error(f"--baseline-root {base} has no src/heatlab")
        trees = {"baseline": base, "change": ROOT}
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(ROOT / "src"))  # _cases() names the cases
    import numpy as np
    import scipy

    results = {side: {} for side in trees}
    for name in _cases():
        samples = {side: [] for side in trees}
        cold = {side: [] for side in trees}
        peaks = {side: [] for side in trees}
        for i in range(args.repeats):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                rep = _repeat(trees[side], name, dict(os.environ))
                samples[side].append(rep["s"])
                cold[side].append(rep["cold_s"])
                peaks[side].append(rep["peak_mb"])
                info = rep["info"]
        for side in trees:
            results[side][name] = _summary(info, samples[side], cold[side], peaks[side])
        ours = results["change"][name]
        line = (f"{name}: median {ours['median_s']:.3f} s, IQR {ours['iqr_s']:.3f} s, "
                f"peak {ours['peak_median_mb']:.1f} MB over {args.repeats} repeats {info}")
        if "baseline" in trees:
            theirs = results["baseline"][name]
            ours["wins"] = int(np.sum(np.array(samples["change"]) < samples["baseline"]))
            line += (f"; baseline median {theirs['median_s']:.3f} s, IQR {theirs['iqr_s']:.3f} s,"
                     f" peak {theirs['peak_median_mb']:.1f} MB;"
                     f" this tree faster in {ours['wins']}/{args.repeats} pairs")
        print(line, flush=True)
    report = {
        "benchmark": "heatlab layers",
        "git_sha": _git_sha(ROOT),
        "src_lines": _src_lines(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {"requested": args.threads, "openblas": _openblas_threads(),
                    "os_threads": _os_threads()},
        "repeats": args.repeats,
        "calls_per_repeat": _CALLS,
        "cases": results["change"],
    }
    line = f"src_lines: {report['src_lines']}"
    if "baseline" in trees:
        report["baseline"] = {"git_sha": _git_sha(base),
                              "src_lines": _src_lines(base), "cases": results["baseline"]}
        line += f"; baseline {report['baseline']['src_lines']}"
    print(line)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
