"""Time ``operators.assemble_scaled`` on the two grids of the converge
benchmark and write the medians and quartiles to a JSON file.

Cases (one call of ``assemble_scaled`` per repeat, after one untimed
warm-up call):

- ``n1``: n = 1, lambda = 1, q = 0, k = 16 on the grid of radius 6 and
  spacing 0.1 (14 641 sites), weight perturbation 0.1 Re(z^3) and frame
  perturbation r_11(y) = 0.1 y_1;
- ``n2``: n = 2, lambda = (1, -0.5), q = 1, k = 16 on the grid of radius 2
  and spacing 0.5 (6 561 sites), frame perturbation
  r = [[0, 0.1 y_1], [0.05 y_2, 0]].

Usage:
    python bench/assemble_scaled.py --out BENCH_5.json [--repeats 7] [--threads 1]

The BLAS thread variables are set to ``--threads`` before numpy loads.
The output records the git sha (suffixed "-dirty" for uncommitted
changes), the Python, numpy and scipy versions, nproc, the thread count
OpenBLAS reports and the process's OS thread count after the imports.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha():
    """HEAD's sha, suffixed "-dirty" when the working tree has changes."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


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
    import numpy as np

    from heatlab import geometry as geo, operators as ops

    def r11(y):
        return np.array([[0.1 * y[0]]], dtype=complex)

    def r_frame(y):
        return np.array([[0.0, 0.1 * y[0]], [0.05 * y[1], 0.0]], dtype=complex)

    return {
        "n1": (geo.WeightFunction(1, (1.0,), geo.cubic_re_perturbation(0.1)),
               ops.PerturbationSpec(r=r11), 16, ops.GridSpec(1, 6.0, 0.1), 0),
        "n2": (geo.WeightFunction(2, (1.0, -0.5)), ops.PerturbationSpec(r=r_frame), 16,
               ops.GridSpec(2, 2.0, 0.5), 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per case (>= 5)")
    parser.add_argument("--threads", type=int, default=1, help="BLAS thread count")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    from heatlab.operators import assemble_scaled

    results = {}
    for name, (weight, pert, k, grid, q) in _cases().items():
        op = assemble_scaled(weight, pert, k, grid, q)
        samples = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            assemble_scaled(weight, pert, k, grid, q)
            samples.append(time.perf_counter() - start)
        q1, med, q3 = np.percentile(samples, [25, 50, 75])
        results[name] = {"sites": grid.sites, "dim": op.dim, "nnz": int(op.matrix.nnz),
                         "median_s": med, "iqr_s": q3 - q1, "q1_s": q1, "q3_s": q3,
                         "samples_s": samples}
        print(f"{name}: median {med:.3f} s, IQR {q3 - q1:.3f} s over {args.repeats} repeats "
              f"({grid.sites} sites, dim {op.dim})")
    report = {
        "benchmark": "operators.assemble_scaled",
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {"requested": args.threads, "openblas": _openblas_threads(),
                    "os_threads": _os_threads()},
        "repeats": args.repeats,
        "cases": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
