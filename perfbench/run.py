"""Benchmark for logicnode: ring lookups, signed replication, TCP ping-pong.

    python3 perfbench/run.py --workload chord_lookup --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src, nothing is installed.  Every run checks the program's outputs and
prints one JSON object as its last line: `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the public entry points of every layer are wrapped and the
metrics are the per-layer ones (the end-to-end figures of a traced run are
printed on the line before, for the tracing overhead).  Result and span
files go to perfbench/out/.  The exit status is 1 when a check failed or
an operation failed, after the result is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("chord_lookup", "replication", "pingpong")


def use_source_tree() -> None:
    """Put the checkout's src/ first on the import path; fail without it."""
    src = ROOT / "src"
    if not (src / "logicnode" / "__init__.py").is_file():
        raise SystemExit("error: no program sources at %s" % src)
    sys.path.insert(0, str(src))
    import logicnode
    if Path(logicnode.__file__).resolve().parent != (src / "logicnode").resolve():
        raise SystemExit("error: logicnode imported from %s" % logicnode.__file__)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    use_source_tree()
    import tracing
    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, int(traced))
    spans_path = OUT / ("spans-%s.tsv" % tag)
    if workload == "pingpong":
        # the nodes live in the server process, which traces itself
        import pingpong
        res = pingpong.run(seed, seconds, traced, spans_path)
        if traced:
            spans = pingpong.server_spans(spans_path, res["layer_basis"].pop("windows"))
            counts = {}
    else:
        import sims
        fn = sims.run_chord if workload == "chord_lookup" else sims.run_replication
        tracer = tracing.install(tracing.Tracer()) if traced else None
        try:
            res = fn(seed, seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            tracer.write_spans(spans_path)
            spans, counts = tracer.rows(), tracer.counts
    if traced:
        res["layers"] = tracing.layer_metrics(spans, counts, res["layer_basis"])
    (OUT / ("result-%s.json" % tag)).write_text(json.dumps(
        {k: v for k, v in res.items() if k != "layer_basis"}, indent=1))
    return res


def with_units(values: dict, kind: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must name
    exactly the metrics measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise SystemExit("error: measured %s, BENCHMARK.json lists %s"
                         % (sorted(values), sorted(units)))
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in res["errors"][:20]:
        print("CHECK FAILED: %s" % err)
    print("info: %s" % json.dumps(res["info"]))
    e2e = with_units(res["metrics"], "end_to_end")
    if args.trace:
        print("traced end-to-end: %s" % json.dumps(e2e))
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": with_units(res["layers"], "per_layer") if args.trace else e2e,
    }))
    return 1 if res["errors"] or res["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
