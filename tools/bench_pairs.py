"""Alternated parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload invariants --seeds 601-610 --out BENCH_6.json

Each pair runs ``perfbench/run.py`` once in each checkout on the same
seed, the parent first in even pairs and the change first in odd ones.
The output file keeps every run's result line (the last line ``run.py``
prints) under its workload, seed and side, with the number of passes the
run timed (from the report on its first line) added as ``passes``, plus
the Python version and CPU count of the machine and each checkout's
``src/torlen/*.py`` line total (as ``wc -l`` counts it) under
``src_lines``, which is printed once.  An existing file is
extended, so the workloads can be run one at a time.  When a run exits
non-zero, the tool stops with that run's side, seed and the end of its
stderr; when a run reports ``"correct": false``, it stops with that
run's side, seed and count of wrong jobs.  The pairs before it are kept.

After each metric's medians comes a gain verdict: "gain" when the change
is better in at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the parent's interquartile range,
else "no gain".  Which way is better comes from the change checkout's
``BENCHMARK.json``, lower when it names no direction.  Each end-to-end
metric then gets a no-regression verdict against its relative ``bound``
in that file: "within bound", "worse" (the change's median is worse
than the parent's by more than the bound) or "unresolved" (the runs'
spread, the wider of the two sides' interquartile ranges over the
parent's median, exceeds the bound, and not every change run beats every
parent run).

``peak_rss_mib`` is a maximum over the whole run, so a side that fits
more passes can read higher with the same memory per pass; the pass
counts, printed per pair and as medians, show when it does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(side: str, checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        raise SystemExit(f"{side} run of {workload} at seed {seed} exited with "
                         f"{done.returncode}; the end of its stderr:\n{tail}")
    lines = done.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["passes"] = json.loads(lines[0])["report"]["passes"]
    return run


def source_lines(checkout: Path) -> int:
    return sum(f.read_bytes().count(b"\n") for f in (checkout / "src" / "torlen").glob("*.py"))


def value(run: dict, metric: str) -> float:
    return run["metrics"][metric]["value"]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def gain(before: list[float], after: list[float], better: str) -> str:
    """The gain verdict on one metric from its parent and change runs,
    paired by index."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * a < sign * b for a, b in zip(after, before))
    gap = sign * (statistics.median(before) - statistics.median(after))
    return "gain" if 10 * wins >= 9 * len(before) and gap > iqr(before) else "no gain"


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    """The no-regression verdict on one metric from its parent and change
    runs, with ``bound`` relative to the parent's median."""
    sign = 1 if better == "lower" else -1
    if max(sign * a for a in after) < min(sign * b for b in before):
        return "within bound"
    base = abs(statistics.median(before))
    if max(iqr(before), iqr(after)) > bound * base:
        return "unresolved"
    worse_by = sign * (statistics.median(after) - statistics.median(before))
    return "worse" if worse_by > bound * base else "within bound"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 601-610 or 1,5,9")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    lines = {side: source_lines(getattr(args, side)) for side in ("parent", "change")}
    record.update(python=platform.python_version(), cpus=os.cpu_count(), src_lines=lines)
    print(f"src/torlen/*.py lines: {lines['parent']} -> {lines['change']}", flush=True)
    pairs = record.setdefault("pairs", [])
    for i, seed in enumerate(args.seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"workload": args.workload, "seed": seed, "first": sides[0]}
        for side in sides:
            run = run_once(side, getattr(args, side).resolve(), args.workload, seed, args.seconds)
            if not run.get("correct", True):
                raise SystemExit(f"{side} run of {args.workload} at seed {seed} reported "
                                 f"\"correct\": false with {run.get('failed')} wrong jobs")
            pair[side] = run
        pairs.append(pair)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(seed, *(f"{m} {value(pair['parent'], m):.4g} -> {value(pair['change'], m):.4g}"
                      for m in sorted(pair["parent"]["metrics"])),
              f"passes {pair['parent']['passes']} -> {pair['change']['passes']}",
              f"failed {pair['parent']['failed']} -> {pair['change']['failed']}", flush=True)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e for e in bench["end_to_end"]}
    better = {e["name"]: e["better"] for e in bench["end_to_end"] + bench.get("per_layer", [])}
    mine = [p for p in pairs if p["workload"] == args.workload]
    for m in sorted(mine[0]["parent"]["metrics"]):
        before = [value(p["parent"], m) for p in mine]
        after = [value(p["change"], m) for p in mine]
        wins = sum(a < b for a, b in zip(after, before))
        print(f"{args.workload} {m}: median {statistics.median(before):.4g} -> "
              f"{statistics.median(after):.4g}, parent IQR {iqr(before):.3g}, "
              f"change lower in {wins}/{len(mine)}")
        print(f"{args.workload} {m}: {gain(before, after, better.get(m, 'lower'))}")
        if m in bounds:
            print(f"{args.workload} {m}: "
                  f"{verdict(before, after, bounds[m]['bound'], bounds[m]['better'])} "
                  f"(bound {bounds[m]['bound']:.0%})")
    # runs recorded before pass counts were kept have none
    counted = [p for p in mine if "passes" in p["parent"] and "passes" in p["change"]]
    if counted:
        print(f"{args.workload} passes: median "
              f"{statistics.median(p['parent']['passes'] for p in counted):g} -> "
              f"{statistics.median(p['change']['passes'] for p in counted):g} "
              f"over {len(counted)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
