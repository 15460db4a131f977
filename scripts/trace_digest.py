#!/usr/bin/env python3
"""One sha256 per simulator run, over the run's trace lines, and the run's
total solver steps.

Runs a 16-node ring with 200 lookups (seed 3), the replicas at batch sizes
1 and 4 (40 requests each) and a spanning tree over a 60-node random graph.
The simulator is deterministic, so two trees of the code that should behave
the same print the same digests and step counts:

    PYTHONPATH=src python3 scripts/trace_digest.py
"""

import hashlib
import random

from logicnode.engine import Solver
from logicnode.protocols.chord import ChordSim
from logicnode.protocols.spanning_tree import random_connected_graph, run_spanning_tree
from logicnode.protocols.zyzzyva import ZyzzyvaSim


def chord_ring():
    sim = ChordSim(seed=3)
    sim.build(16)
    sim.quiesce()
    sim.run_lookup_batch(200)
    return sim.net


def replication(batch_size):
    sim = ZyzzyvaSim(batch_size=batch_size)
    sim.run_requests(40)
    return sim.net


def spanning_tree():
    return run_spanning_tree(random_connected_graph(60, random.Random(5)), "v0")


RUNS = (
    ("chord_16_seed3_200_lookups", chord_ring),
    ("zyzzyva_batch1_40_requests", lambda: replication(1)),
    ("zyzzyva_batch4_40_requests", lambda: replication(4)),
    ("spanning_tree_60_seed5", spanning_tree),
)


def count_steps(total: list) -> None:
    """Add the steps of every `Solver` query to total[0]."""
    for entry in ("solve_first", "solve_all"):
        def counted(solver, *args, _query=getattr(Solver, entry), **kwargs):
            before = solver.steps
            try:
                return _query(solver, *args, **kwargs)
            finally:
                total[0] += solver.steps - before
        setattr(Solver, entry, counted)


def main() -> None:
    steps = [0]
    count_steps(steps)
    for name, run in RUNS:
        steps[0] = 0
        lines = run().trace_lines()
        text = "".join(line + "\n" for line in lines)
        print("%s %s events=%d steps=%d" % (
            name, hashlib.sha256(text.encode("utf-8")).hexdigest(), len(lines), steps[0]))


if __name__ == "__main__":
    main()
