"""heatlab benchmark.

    python3 perfbench/run.py --workload {converge,model,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; heatlab is imported from ``src/``.
The benchmark writes the workload's configs, generated from the seed, under
``.perfbench/`` and hands the program only those.  All timed work runs in
one worker process at a time, as a closed loop: each operation starts when
the previous one has finished.  Workers start with the BLAS thread variables
set to 1.

``--trace 0`` measures the end-to-end metrics.  The times among them are
scaled to the nominal machine speed of calibrate.py: each is multiplied by
the reference's nominal time over the mean time of its samples in the
measuring worker.

- ``wall_s``: median wall time of one pass over the workload, set-up excluded;
- ``setup_s``: median, over several fresh worker processes, of the time from
  process start until heatlab is imported and the configs are validated;
- ``cpu_s``: median user plus system CPU time of the worker per pass;
- ``peak_rss_mb``: peak resident memory of the measuring worker;
- ``ok_frac``: operations that neither raised nor failed their output check,
  over operations attempted (1 - fail_frac).

``--trace 1`` alternates untraced and traced workers of one pass each and
reports the per-layer metrics of ``spans.LAYER_METRICS`` (medians over
traced passes), the import time, the traced pass time, the tracing overhead
(traced minus untraced median pass time) and the share of a traced pass's
time that its top-level spans cover.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(run metadata, every raw pass, set-up and reference sample, the unscaled
times, failures) is written to
``.perfbench/<workload>-seed<N>-trace<T>/results.json``.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Fresh processes whose set-up time is measured, the measuring worker
# included.  The first start in a new checkout also compiles bytecode; the
# median keeps that one sample out.
SETUP_SAMPLES = 11
# Timed passes of the measuring worker, at least; their median is reported.
MIN_PASSES = 2
# Everything, workers included, ends within this many seconds.
DEADLINE_S = 170.0

WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


class WorkerError(Exception):
    pass


class Worker:
    """A worker process; construction returns once its set-up has finished."""

    def __init__(self, root, workload, run_dir, deadline, *, seconds=0.0, min_passes=1,
                 trace=False, setup_only=False, tag="worker"):
        self.deadline = deadline
        self.report_path = run_dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
               "--workload", workload, "--run-dir", str(run_dir),
               "--seconds", str(seconds), "--min-passes", str(min_passes),
               "--report", str(self.report_path)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=WORKER_ENV, stdout=subprocess.PIPE,
                                     text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        if not line.strip():
            self.wait()
            raise WorkerError(f"{tag} did not finish set-up")

    def _left(self):
        return max(1.0, self.deadline - time.perf_counter())

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def wait(self):
        """Wait for the worker to exit; return its report, if it wrote one."""
        try:
            code = self.proc.wait(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.kill()
            raise WorkerError("worker ran past the deadline") from None
        self.proc.stdout.close()
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")
        if self.report_path.exists():
            return json.loads(self.report_path.read_text(encoding="utf-8"))
        return None


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _measure(root, args, run_dir, deadline):
    """End-to-end metrics.  Set-up probes run before and after the measuring
    worker, so that their samples span the run's machine conditions.  The
    times are scaled by the measuring worker's reference samples."""

    def probe(i):
        setup_only = Worker(root, args.workload, run_dir, deadline, setup_only=True,
                            tag=f"setup{i}")
        setup_only.wait()
        return setup_only.setup_s

    before = SETUP_SAMPLES // 2
    setup = [probe(i) for i in range(before)]
    worker = Worker(root, args.workload, run_dir, deadline, seconds=args.seconds,
                    min_passes=MIN_PASSES)
    setup.append(worker.setup_s)
    report = worker.wait()
    setup += [probe(i) for i in range(before, SETUP_SAMPLES - 1)]
    passes = report["passes"]
    raw = {
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
    }
    speed = {key: nominal / statistics.fmean([r[key] for r in report["reference"]])
             for key, nominal in (("wall_s", calibrate.NOMINAL_WALL_S),
                                  ("cpu_s", calibrate.NOMINAL_CPU_S))}
    metrics = {
        "wall_s": (raw["wall_s"] * speed["wall_s"], "s"),
        "setup_s": (raw["setup_s"] * speed["wall_s"], "s"),
        "cpu_s": (raw["cpu_s"] * speed["cpu_s"], "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return metrics, [report], {"setup_s": setup, "unscaled": raw, "speed_factor": speed}


def _trace(root, args, run_dir, deadline):
    """Per-layer metrics.  Untraced and traced workers of one pass each
    alternate, so that both sides see the same machine conditions, for as
    many pairs as fit in the run's time (at least one)."""
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        i = len(plain)
        plain.append(Worker(root, args.workload, run_dir, deadline, tag=f"untraced{i}").wait())
        traced.append(Worker(root, args.workload, run_dir, deadline, trace=True,
                             tag=f"traced{i}").wait())
        now = time.perf_counter()
        if now - started + (now - pair_started) > args.seconds:
            break
    passes = [p for r in traced for p in r["passes"]]
    untraced_wall = statistics.median([p["wall_s"] for r in plain for p in r["passes"]])
    traced_wall = statistics.median([p["wall_s"] for p in passes])
    metrics = {}
    for name, unit in spans.LAYER_METRICS.items():
        # counts stay whole numbers
        median = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (median([p["layers"][name] for p in passes]), unit)
    metrics["setup.import_s"] = (statistics.median([r["import_s"] for r in plain + traced]), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.top_busy_share"] = (
        statistics.median([p["layers"]["top_busy_s"] / p["wall_s"] for p in passes]), "frac")
    return metrics, plain + traced, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    root = HERE.parent
    run_dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    for name, cfg in workloads.WORKLOADS[args.workload].configs(args.seed).items():
        (run_dir / "configs" / f"{name}.json").write_text(json.dumps(cfg, indent=1),
                                                          encoding="utf-8")

    try:
        measure = _trace if args.trace else _measure
        metrics, reports, samples = measure(root, args, run_dir, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for r in reports for p in r["passes"])
    failed = sum(p["failed"] for r in reports for p in r["passes"])
    if not args.trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "frac")
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"git_sha": _git_sha(root), "nproc": os.cpu_count(),
                    "cpus_allowed": len(os.sched_getaffinity(0)),
                    "thread_env": {k: WORKER_ENV[k] for k in
                                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")},
                    "versions": reports[0]["versions"],
                    "threads_in_effect": [r["threads"] for r in reports]},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": samples,
        "workers": reports,
    }
    (run_dir / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    for r in reports:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{sum(len(r['passes']) for r in reports)} passes, {attempted} operations, "
          f"{failed} failed, OS threads {[r['threads']['after_import'] for r in reports]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
