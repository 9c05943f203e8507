"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, repeats its timed operation
for S seconds and checks every output. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). The line before it holds the details: the
environment, sample counts and percentiles, the checks, and each derived
ratio with its base.

Timings are means over the run's operations (total timed wall ÷
operations): on a shared vCPU whose speed switches between two levels for
seconds at a time, the per-run median jumps between the levels while the
mean moves with the share of slow time. A traced run alternates untraced
and traced operations, so the tracing overhead is measured in the same
run; per-layer metrics are per traced operation. All files go to a
scratch directory inside the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
PROBE_TIMEOUT_S = 60
# Checks compare repeats, so every run makes at least two operations.
MIN_OPERATIONS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="agecontrast benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", default=None,
                        help="set the workload up in this directory and exit")
    return parser.parse_args(argv)


def summary(values: list[float]) -> dict:
    """Sample count, every value, the median, and the highest percentile
    with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else None,
           "values": values}
    if len(values) >= 20:
        pct = math.floor(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def git_commit() -> str | None:
    """HEAD when the checkout is itself a git work tree, else None. Git
    is not allowed to look for a repository above the checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def timed_probe(cmd: list[str], env: dict) -> float:
    started = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - started


def mean_wall(parts: dict[str, list[float]]) -> float:
    """Mean wall time of an operation: the sum of its parts' means."""
    return sum(statistics.fmean(values) for values in parts.values())


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "agecontrast" / "__init__.py").is_file():
        print(f"error: no agecontrast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    env = dict(os.environ, PYTHONPATH=str(SRC))

    if args.setup_only:
        workload.setup(workloads.Context(args.seed, Path(args.setup_only), env))
        return 0

    # On SIGTERM, unwind so that running commands are killed and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, workload, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(args, workload, work: Path, env: dict) -> int:
    import tracing
    import workloads

    setup_s = []
    for r in range(SETUP_REPEATS):
        probe_dir = work / f"setup-{r}"
        probe_dir.mkdir()
        setup_s.append(timed_probe(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(probe_dir)], env))
        shutil.rmtree(probe_dir)
    ctx = workloads.Context(args.seed, work, env)
    workload.setup(ctx)

    missing: list[str] = []
    import_s: list[float] = []
    if args.trace:
        missing, undo = tracing.install(tracing.Tracer())
        undo()
        import_s = [timed_probe([sys.executable, "-c", "import agecontrast.cli"], env)
                    for _ in range(IMPORT_REPEATS)]

    parts: dict[str, list[float]] = {}
    traced_parts: dict[str, list[float]] = {}
    spans: list[list] = []
    samples = 0.0
    ops = op_failures = 0
    errors: list[str] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and ops % 2 == 1
        trace_dir = work / f"trace-{ops}" if traced else None
        if trace_dir:
            trace_dir.mkdir()
        ops += 1
        try:
            result = workload.run_once(ctx, trace_dir)
        except Exception as exc:  # the program failed this operation; keep measuring
            op_failures += 1
            errors.append(f"operation {ops - 1}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
        else:
            samples = result.samples
            spans.extend(result.spans)
            for key, value in result.parts.items():
                (traced_parts if traced else parts).setdefault(key, []).append(value)
        if trace_dir:
            shutil.rmtree(trace_dir)
        if time.perf_counter() - started >= args.seconds and ops >= MIN_OPERATIONS:
            break

    if not parts:
        checks = {"operations": ["no untraced operation succeeded"]}
    else:
        try:
            checks = workload.check(ctx)
        except Exception as exc:  # e.g. an output file the program did not write
            traceback.print_exc(file=sys.stderr)
            checks = {"checks": [f"checking raised {exc!r}"]}
    failed_checks = {name: f for name, f in checks.items() if f}
    for name, failures in failed_checks.items():
        for failure in failures[:5]:
            print(f"check {name} failed: {failure}", file=sys.stderr)

    wall_s = mean_wall(parts)
    if args.trace:
        traced_ops = len(next(iter(traced_parts.values()), []))
        metrics, ratios = tracing.layer_metrics(spans, traced_ops)
        metrics["cli.import_s"] = statistics.median(import_s)
        for key in ("gen_s", "eval_s"):
            metrics[f"cli.{key}"] = statistics.fmean(parts.get(key, [0.0]))
        traced_wall_s = mean_wall(traced_parts)
        metrics["trace.overhead"] = traced_wall_s / wall_s - 1 if traced_wall_s and wall_s else 0.0
        ratios["trace.overhead"] = {"traced_wall_s": traced_wall_s, "base_untraced_wall_s": wall_s}
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "samples_per_s": samples / wall_s if wall_s else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        ratios = {"samples_per_s": {"samples_per_operation": samples, "base_wall_s": wall_s}}
        units = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}

    attempted = ops + len(checks)
    failed = op_failures + len(failed_checks)
    details = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "timings": {"setup_s": summary(setup_s),
                    **{k: summary(v) for k, v in parts.items()},
                    **{f"traced.{k}": summary(v) for k, v in traced_parts.items()},
                    **({"cli.import_s": summary(import_s)} if args.trace else {})},
        "operations": {"attempted": ops, "failed": op_failures},
        "checks": {name: ("pass" if not f else f[:5]) for name, f in checks.items()},
        "check_notes": getattr(workload, "notes", {}),
        "error_rate": failed / attempted,
        "ratios": ratios,
        "wrappers_missing": missing,
        "errors": errors[:5],
    }
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
