"""One benchmark worker process.

It imports heatlab from ``<root>/src``, validates the generated configs and
prints one "ready" line: that is where set-up ends.  Unless ``--setup-only``
is given it then computes the untimed references, runs timed passes of the
workload for ``--seconds`` (at least ``--min-passes`` of them), checks every
output, and writes its report to ``--report``.  Between operations, outside
their clocks, it samples the machine-speed reference of calibrate.py.  With
``--trace`` it first wraps heatlab's entry points in span recorders.

run.py starts it with the BLAS thread variables set to 1; it reads back the
thread count actually in effect from /proc/self/status.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace


def _os_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


class Pass:
    """One timed pass: each step is one operation, timed on its own; its
    output check runs after the clock stops.  ``before_op`` runs before each
    operation's clock starts."""

    def __init__(self, before_op):
        self.before_op = before_op
        self.ops = []
        self.failures = []

    def step(self, label, run, check):
        self.before_op()
        error = None
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result = run()
        except Exception:
            result, error = None, traceback.format_exc(limit=-2)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if error is None:
            try:
                check(result)
            except Exception:
                error = "output check: " + traceback.format_exc(limit=-1)
        self.ops.append({"label": label, "wall_s": wall, "cpu_s": cpu, "ok": error is None})
        if error is not None:
            self.failures.append(f"{label}: {error.strip()}")
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--report", type=Path)
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    try:
        import heatlab
    except ImportError as exc:
        print(f"cannot import heatlab from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    if not Path(heatlab.__file__).resolve().is_relative_to(src):
        print(f"heatlab was imported from {heatlab.__file__}, not {src}", file=sys.stderr)
        return 2
    from heatlab import cli, geometry, model_kernels, operators, semigroup, torus

    cfgs = {path.stem: cli.validate_config(cli.load_config(path))
            for path in sorted((args.run_dir / "configs").glob("*.json"))}
    threads = _os_threads()
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    import calibrate
    import spans
    import workloads

    hl = SimpleNamespace(cli=cli, geometry=geometry, model_kernels=model_kernels,
                         operators=operators, semigroup=semigroup, torus=torus)
    workload = workloads.WORKLOADS[args.workload]
    refs = workload.prepare(hl, cfgs)
    recorder = spans.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    out_dir = args.run_dir / ("out-traced" if args.trace else "out")
    reference = calibrate.Reference()

    # Passes continue while the next one, at the median pass time so far,
    # still ends within --seconds, so a run's length does not depend on
    # how fast the program is.
    passes, failures = [], []
    measuring = time.perf_counter()
    while len(passes) < args.min_passes or time.perf_counter() - measuring + statistics.median(
            p["wall_s"] for p in passes) <= args.seconds:
        first_span = len(recorder.spans) if recorder is not None else 0
        one = Pass(reference.sample_due)
        workload.run_pass(one.step, hl, cfgs, refs, out_dir)
        reference.sample_due()
        record = {"wall_s": sum(op["wall_s"] for op in one.ops),
                  "cpu_s": sum(op["cpu_s"] for op in one.ops),
                  "attempted": len(one.ops), "failed": len(one.failures), "ops": one.ops}
        if recorder is not None:
            record["layers"] = recorder.summary(first_span)
        passes.append(record)
        failures.extend(one.failures)

    report = {
        "import_s": import_s,
        "threads": {"after_import": threads, "at_end": _os_threads()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "passes": passes,
        "reference": reference.samples,
        "failures": failures,
    }
    if recorder is not None:
        spans_path = args.report.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(recorder.dump()), encoding="utf-8")
    args.report.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
