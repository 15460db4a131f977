#!/usr/bin/env python3
"""Run the benchmark on several commits in alternation and record every run.

    python3 scripts/bench_trajectory.py COMMIT... [--pairs K] [--seconds S]
        [--workloads W,...] --out FILE

Each commit is exported with `git archive` into a temporary directory, and
HEAD's `perfbench/` and `BENCHMARK.json` are copied over each export, so
every commit runs the same benchmark code.  Pair i runs, for each workload,
`perfbench/run.py --workload W --seed i --seconds S --trace 0` once in each
export, the order of the commits rotated by i.  FILE gets the commit
hashes, the Python version and the CPU count, and for each commit (in the
order given; one commit named twice is measured twice), workload and
end-to-end metric the median, the quartiles and the raw runs, with each
run's `correct` and `failed` fields.  It gates nothing, and it writes
nothing into the checkout but FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def export(tree: str, dest: Path, *paths: str) -> None:
    """Write `paths` of `tree` (all of it by default) under `dest`."""
    dest.mkdir(exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", tree, *paths),
                   check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):  # it crashed before its result line
        return {"seed": seed, "correct": False, "failed": None, "metrics": {},
                "error": out.stderr[-2000:]}
    return {"seed": seed, "correct": res["correct"], "failed": res["failed"],
            "attempted": res["attempted"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()}}


def summary(runs: list, units: dict) -> dict:
    """Per metric: its unit, median, quartiles and the value of each run."""
    out = {}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if not values:
            continue
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        out[name] = {"unit": unit, "median": statistics.median(values),
                     "q1": q1, "q3": q3, "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("commits", nargs="+", metavar="COMMIT")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--workloads", help="comma-separated; default every workload")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    spec = json.loads(git("show", "HEAD:BENCHMARK.json"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    commits = [git("rev-parse", "--verify", c + "^{commit}").decode().strip()
               for c in args.commits]
    runs = [{w: [] for w in workloads} for _ in commits]
    n = len(commits)
    with tempfile.TemporaryDirectory(prefix="bench_trajectory-") as tmp:
        checkouts = [Path(tmp, "%d-%s" % (i, c[:12])) for i, c in enumerate(commits)]
        for c, checkout in zip(commits, checkouts):
            export(c, checkout)
            export("HEAD", checkout, "perfbench", "BENCHMARK.json")
        for seed in range(1, args.pairs + 1):
            for w in workloads:
                for i in [(seed + j) % n for j in range(n)]:
                    run = run_once(checkouts[i], w, seed, args.seconds)
                    runs[i][w].append(run)
                    print("pair %d %s %d:%s correct=%s failed=%s %s" % (
                        seed, w, i, commits[i][:12], run["correct"], run["failed"],
                        " ".join("%s=%.4g" % kv for kv in run["metrics"].items())),
                        flush=True)
    Path(args.out).write_text(json.dumps({
        "commits": commits,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "results": [{"commit": c, "workloads": {
            w: {"runs": r[w], "metrics": summary(r[w], units)} for w in workloads}}
            for c, r in zip(commits, runs)],
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
