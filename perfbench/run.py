"""torlen benchmark: one seeded workload per process, one client, jobs
back to back.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 40 --trace 0

Run from the repository root; torlen is imported from ./src.  With
``--trace 0`` the run repeats passes over freshly seeded inputs for
``--seconds`` and prints the end-to-end metrics: per-job medians over
the passes, at the reference machine speed (see speed.py).
With ``--trace 1`` it runs an untraced, a traced and an untraced pass
over the same inputs and prints per-layer calls, self times, counters
and the tracing overhead.
Every job's verdict is checked against the benchmark's own reference;
the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11


def import_torlen(src: str):
    """Import torlen afresh from ``src`` (dropping any loaded copy)."""
    for name in [k for k in sys.modules if k == "torlen" or k.startswith("torlen.")]:
        del sys.modules[name]
    torlen = importlib.import_module("torlen")
    for sub in ("cli", "words", "stallings", "freeprod", "torsion", "consequences"):
        importlib.import_module(f"torlen.{sub}")
    if not os.path.abspath(torlen.__file__).startswith(src + os.sep):
        raise SystemExit(f"torlen was imported from {torlen.__file__}, not from {src}")
    return torlen


def run_pass(jobs, sampler=None):
    """Run every job back to back; return (per-job seconds, per-job
    seconds at the reference machine speed, results).  An exception is
    kept as the job's result.  With a ``speed.SpeedSampler`` active the
    seconds are net of its probes and scaled by it; without one the two
    lists are the same raw latencies.

    Between jobs, outside their timing, the garbage of the jobs before
    is collected and everything still alive (the benchmark's inputs and
    references, earlier results) is frozen out of the cyclic GC.  So
    every job starts on the same clean heap, as a CLI call does in a
    fresh process, and the collections it triggers scan only what it
    allocates itself."""
    spans, results = [], []
    for job in jobs:
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        try:
            result = job.run()
        except BaseException as exc:  # noqa: BLE001 - SystemExit from argparse counts too
            if isinstance(exc, KeyboardInterrupt):
                raise
            result = exc
        spans.append((t0, time.perf_counter()))
        results.append(result)
    gc.unfreeze()
    if sampler is None:
        latencies = [t1 - t0 for t0, t1 in spans]
        return latencies, latencies, results
    return [sampler.net(*sp) for sp in spans], [sampler.scaled(*sp) for sp in spans], results


def verdicts(jobs, results):
    """(job name, verdict) per job; see workloads.py for the verdicts."""
    out = []
    for job, result in zip(jobs, results):
        if isinstance(result, BaseException):
            verdict = f"wrong: raised {type(result).__name__}: {result}"
        else:
            try:
                verdict = job.check(result)
            except Exception as exc:  # noqa: BLE001 - a malformed output is a wrong verdict
                verdict = f"wrong: check failed on output: {type(exc).__name__}: {exc}"
        out.append((job.name, verdict))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="torlen benchmark: one seeded workload per run")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--mutate",
        action="store_true",
        help="change one expected value, to show that the checks can fail",
    )
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "torlen", "__init__.py")):
        print(f"error: no torlen sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(HERE, "work", args.workload)
    # The speed sampler runs from set-up to the end of an untraced
    # run.  A traced run has none: its probes would land in
    # the self time of whatever torlen function they interrupt.
    sampler = speed.SpeedSampler() if args.trace == 0 else None
    with sampler or contextlib.nullcontext():
        return measure(args, src, work, sampler)


def measure(args, src, work, sampler) -> int:
    build = workloads.BUILDERS[args.workload]
    refs: dict = {}

    def inputs(pass_no: int):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        rng = random.Random(f"{args.workload}:{args.seed}:{pass_no}")
        return build(rng, work, M, refs, args.mutate)

    # Set-up: import torlen and write the first pass's inputs, repeated
    # from a clean module table; the median is reported.
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        M = import_torlen(src)
        jobs = inputs(0)
        setup_spans.append((t0, time.perf_counter()))

    walls, all_verdicts = [], []
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workloads.WHY[args.workload],
        "jobs_per_pass": len(jobs),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    if args.trace == 0:
        start = time.perf_counter()
        pass_no = 0
        scaled_rows, scaled_walls = [], []
        while True:
            latencies, scaled, results = run_pass(jobs, sampler)
            walls.append(sum(latencies))
            scaled_rows.append(scaled)
            scaled_walls.append(sum(scaled))
            all_verdicts += verdicts(jobs, results)
            del results  # keep the next pass's heap (and GC work) the same
            pass_no += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / pass_no > args.seconds:
                break
            jobs = inputs(pass_no)
        # each job's median over the passes (the job lists of all passes
        # have the same shape), so a slow stretch that covers a few
        # passes of one job does not move it
        job_medians = [statistics.median(col) for col in zip(*scaled_rows, strict=True)]
        metrics = {
            "wall_s": (sum(job_medians), "s"),
            "job_p50_ms": (statistics.median(job_medians) * 1000, "ms"),
            "setup_s": (statistics.median(sampler.scaled(*sp) for sp in setup_spans), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        report.update(
            passes=len(walls),
            raw_wall_s_per_pass=walls,
            scaled_wall_s_per_pass=scaled_walls,
            probe_samples=len(sampler.seconds),
            probe_ms_median=statistics.median(sampler.seconds) * 1000,
        )
    else:
        # untraced, traced, untraced over the same inputs: the overhead
        # is the traced pass minus the mean of the two untraced ones
        tr = tracer.Tracer()
        for traced in (False, True, False):
            if traced:
                tr.install()
            try:
                latencies, _, results = run_pass(jobs)
            finally:
                tr.uninstall()
            walls.append(sum(latencies))
            all_verdicts += verdicts(jobs, results)
            del results
        untraced_wall = (walls[0] + walls[2]) / 2
        metrics = tr.layer_metrics()
        metrics["trace.wall_s"] = (walls[1], "s")
        metrics["trace.overhead_s"] = (walls[1] - untraced_wall, "s")
        metrics["trace.self_share"] = (tr.total_self_s() / walls[1], "ratio")
        spans = os.path.join(HERE, "work", f"spans-{args.workload}.bin")
        tr.write(spans)
        report.update(
            untraced_wall_s=untraced_wall,
            spans=len(tr.span_name),
            spans_file=spans,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )

    shutil.rmtree(work, ignore_errors=True)
    attempted = len(all_verdicts)
    failures = sorted({f"{name}: {v}" for name, v in all_verdicts if v.startswith("wrong")})
    wrong = sum(v.startswith("wrong") for _, v in all_verdicts)
    unknown = sum(v == "unknown" for _, v in all_verdicts)
    report.update(
        wrong_share={"value": wrong / attempted, "unit": "ratio"},
        unknown_share={"value": unknown / attempted, "unit": "ratio"},
        unknown_jobs=sorted({name for name, v in all_verdicts if v == "unknown"}),
        failures=failures[:20],
    )
    print(json.dumps({"report": report}))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
