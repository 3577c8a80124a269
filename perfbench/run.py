#!/usr/bin/env python3
"""acnbounds game benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs closed-loop solves of one workload (or `all` of them, one after the
other) in this process and thread for S seconds, checks every result
against its exact reference, and prints JSON lines: the run's conditions,
a report per workload, and last the result object. With --trace 0 the
result holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, whose spans go to .bench_out/. Exits 1 if a
check fails or the package cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import sysconfig
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7

# name -> unit
END_TO_END = {
    "trials_per_cal": "1/cal",
    "solve_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A fresh interpreter doing what a run does before its first solve. The
# parent times it up to the "ready" line, so interpreter exit is not counted.
_SETUP_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.BY_NAME[sys.argv[3]].build()
print("ready", flush=True)
"""


def _import_bench():
    """Import the benchmark's modules, with acnbounds from ./src only."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import acnbounds
        import calibrate
        import tracer
        import workloads
    except ImportError as exc:
        sys.exit(f"run.py: cannot import acnbounds from {SRC}: {exc}")
    if Path(acnbounds.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"run.py: acnbounds was imported from {acnbounds.__file__}, "
                 f"not from {SRC}")
    return workloads, calibrate, tracer


def conditions(seed: int, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": "disabled" if sysconfig.get_config_var("Py_GIL_DISABLED")
        else "enabled",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "trace": trace,
    }


def setup_seconds(name: str) -> float:
    """Median over fresh processes of start-up, imports and building."""
    argv = [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR),
            name]
    times = []
    # the first probe also compiles bytecode in a fresh checkout: not counted
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"setup probe for {name} failed")
    return statistics.median(times[1:])


def master_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


class Solver:
    """Runs one workload's solves one at a time, closed loop, checking each
    result and counting the failures."""

    def __init__(self, w, built, seed):
        self.w, self.built, self.seed = w, built, seed
        self.attempted = 0
        self.failed = 0
        self.first = None

    def solve(self, calibrator=None, spans=None):
        """Wall seconds of the next solve and the calibrator's (seconds,
        slices) within it; None if the solve raised."""
        i = self.attempted
        self.attempted += 1
        cal0 = (calibrator.busy, calibrator.slices) if calibrator else (0, 0)
        t0 = perf_counter()
        try:
            result = self.w.solve(self.built, master_seed(self.seed, i))
            t1 = perf_counter()
            ok = self.w.check(result)
        except Exception:
            t1 = perf_counter()
            traceback.print_exc()
            result, ok = None, False
        if spans is not None:
            spans.add_solve(t0, t1)
        if i == 0:
            self.first = result
        if not ok:
            self.failed += 1
            print(f"run.py: {self.w.name} solve {i} failed: {result!r}",
                  file=sys.stderr)
        if result is None:
            return None
        cal1 = (calibrator.busy, calibrator.slices) if calibrator else (0, 0)
        return t1 - t0, (cal1[0] - cal0[0], cal1[1] - cal0[1])


def tail(times):
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1),
            "value": sorted(times)[n - 11]}


def end_to_end(solves, work, setup):
    """Solve costs in cal units, the time of one calibration kernel."""
    net = [wall - busy for wall, (busy, _) in solves]
    run_slice = (sum(busy for _, (busy, _) in solves)
                 / sum(n for _, (_, n) in solves))
    solve_cal = [t / (busy / n if n else run_slice)
                 for t, (_, (busy, n)) in zip(net, solves)]
    values = {
        # pooled over the run: total net time against the mean kernel time
        "trials_per_cal": work * run_slice / statistics.fmean(net),
        "solve_cal": statistics.median(solve_cal),
        "setup_s": setup,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "solves": len(net),
        "slice_ms": 1000 * run_slice,
        "trials_per_s": statistics.median(work / t for t in net),
        "solve_s": statistics.median(net),
        "solve_s_tail": tail(net),
    }
    return values, report


def run_workload(bench, name, seed, seconds, trace):
    wl, cal, tr = bench
    w = wl.BY_NAME[name]
    setup = None if trace else setup_seconds(name)
    built = w.build()
    solver = Solver(w, built, seed)
    work = w.work(built)
    report = {"workload": name, "trials_per_solve": w.trials,
              "work_per_solve": work, "reference": str(w.reference())}
    stop = perf_counter() + seconds
    if trace:
        # untraced and traced solves alternate, so both see the same host
        plain, traced = [], []
        spans = tr.LayerTracer()
        while True:
            plain.append(solver.solve())
            with spans:
                traced.append(solver.solve(spans=spans))
            if perf_counter() >= stop:
                break
        overhead = (statistics.median(s[0] for s in traced if s)
                    / statistics.median(s[0] for s in plain if s))
        values = spans.metrics(overhead)
        spans.write_spans(OUT_DIR / f"spans-{name}.json")
        units = {k: unit for k, (unit, _) in tr.METRICS.items()}
        report["solve_pairs"] = len(plain)
    else:
        solves = []
        with cal.Calibrator() as calibrator:
            while True:
                solves.append(solver.solve(calibrator))
                if perf_counter() >= stop:
                    break
        values, more = end_to_end([s for s in solves if s], work, setup)
        units = END_TO_END
        report.update(more)
    report.update(attempted=solver.attempted, failed=solver.failed,
                  fail_frac=solver.failed / solver.attempted,
                  fingerprint=w.fingerprint(built, solver.first,
                                            master_seed(seed, 0)))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, solver.attempted, solver.failed, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = _import_bench()
    wl = bench[0]
    if args.workload == "all":
        names = [w.name for w in wl.WORKLOADS]
    elif args.workload in wl.BY_NAME:
        names = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload!r}")
    # every solve runs serially, as the CLI does by default
    os.environ.pop("ACNBOUNDS_WORKERS", None)
    print(json.dumps({"conditions": conditions(args.seed, args.trace)}),
          flush=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f, report = run_workload(bench, name, args.seed, args.seconds,
                                       args.trace)
        print(json.dumps({"report": report}), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
