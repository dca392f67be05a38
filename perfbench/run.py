"""Seeded performance benchmark for the shapeassoc pipeline.

    python3 perfbench/run.py --workload grid-long --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this one process from the package
source in ../src. It sets the workload up several times, each time from a
fresh import of the package, then repeats the job until --seconds have
passed. With --trace 0 it reports end-to-end metrics with tracing off. With
--trace 1 it alternates untraced and traced jobs and reports the per-layer
call counts and self/total wall time of the functions in tracing.LAYERS,
per job, as medians over the traced jobs. Every output is checked: the first job's output against
independent references, every later one against the first. The last line
of stdout is one JSON object; the exit code is 1 when any job failed and 2
when the package source is missing.

This is not `shapeassoc bench`, which measures clustering quality.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 9
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio"}


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "shapeassoc" or m.startswith("shapeassoc.")]:
        del sys.modules[name]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def benchmark(factory, seed: int, seconds: float, trace: bool) -> dict:
    """Set up `factory(seed)` and run its job for `seconds`; return the record."""
    import numpy as np

    from tracing import Tracer

    setup_times = []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        t0 = time.perf_counter()
        workload = factory(seed)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    # (wall seconds, stage times or per-layer snapshot) of each completed job
    jobs: dict[bool, list[tuple[float, dict]]] = {False: [], True: []}
    first = first_summary = None
    errors: list[str] = []
    attempted = raised = 0
    matching = 0  # jobs whose output equals the first successful one
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.reset()
        try:
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                out, stage_times = workload.job()
                elapsed = time.perf_counter() - t0
        except Exception:
            raised += 1
            errors.append(traceback.format_exc(limit=3))
            out = None
        if out is not None:
            jobs[traced].append((elapsed, tracer.snapshot() if traced else stage_times))
            summary = workload.summary(out)
            if first is None:
                first, first_summary = out, summary
                matching += 1
            elif summary == first_summary:
                matching += 1
            else:
                errors.append(f"job {attempted} output differs from the first job's")
        both = jobs[False] and jobs[True]
        if time.perf_counter() >= deadline and (not trace or both or raised):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # checked after the peak is read, so the reference computations and
    # networkx do not count in the program's memory
    problems = workload.check(first) if first is not None else ["no job completed"]
    errors.extend(problems)
    failed = attempted - (0 if problems else matching)

    threads = _thread_count()
    nproc = len(os.sched_getaffinity(0))
    if threads > nproc:
        errors.append(f"{threads} threads running on {nproc} processors")

    record = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "env": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": nproc,
            "threads": threads,
            "commit": _git_commit(),
            "setup_repeats": SETUP_REPEATS,
        },
        "job_times": [t for t, _ in jobs[False]],
        "traced_times": [t for t, _ in jobs[True]],
        "stages": _medians([stages for _, stages in jobs[False]]),
    }
    untraced = _median(record["job_times"])
    if not trace:
        record["metrics"] = {
            "job_s": untraced,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ops_ok_ratio": (attempted - failed) / attempted,
        }
        return record
    metrics = _medians([layers for _, layers in jobs[True]])
    for stage in ("matrix_s", "cluster_s"):
        metrics[stage] = record["stages"].get(stage, 0.0)
    metrics["trace.overhead_s"] = _median(record["traced_times"]) - untraced
    record["metrics"] = metrics
    return record


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _medians(samples: list[dict]) -> dict:
    """Per-key median over jobs; call counts stay whole numbers."""
    return {
        key: (statistics.median_low if key.endswith(".calls") else statistics.median)(
            [s[key] for s in samples]
        )
        for key in (samples[0] if samples else ())
    }


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "measures.calls_per_pair":
        return "calls/pair"
    return "ratio"


def report(record: dict) -> None:
    """Human-readable lines, then the result as the last line of JSON."""
    env = record["env"]
    for error in record["errors"]:
        print(f"error: {error.rstrip()}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for label, key in (("untraced", "job_times"), ("traced", "traced_times")):
        times = record[key]
        if times:
            print(
                f"{label} job wall time: samples={len(times)} min={min(times):.6f} "
                f"median={statistics.median(times):.6f} max={max(times):.6f} s; "
                f"all: {' '.join(f'{t:.6f}' for t in times)}"
            )
    if not env["trace"]:
        print(f"ops_failed_ratio {record['failed'] / record['attempted']!r} ratio")
        for stage, value in record["stages"].items():
            print(f"{stage} {value!r} s")
    for name, value in record["metrics"].items():
        print(f"{name} {value!r} {unit(name)}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit(name)} for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    # one thread per process for BLAS and OpenMP; numpy reads these on import
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "shapeassoc" / "__init__.py").is_file():
        print(f"run.py: no package source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    record = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
