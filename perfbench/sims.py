"""Simulated workloads: ring lookups and signed replication.

Both run in the benchmark's own process through the program's public API:
`ChordSim` and `ZyzzyvaSim` build the nodes, the simulator delivers the
messages, and the benchmark reads the resulting facts back and checks them
with `checks`.  A run repeats one round of operations, made from the workload
seed, until the timed rounds have lasted the given seconds, and reports
the median round.
"""

from __future__ import annotations

import random
import resource
import time
from contextlib import nullcontext
from statistics import median

import checks
from logicnode.protocols.chord import OBSERVER, ChordSim
from logicnode.protocols.zyzzyva import CLIENT, ZyzzyvaSim
from logicnode.terms import Atom, Int, Struct, deref

CHORD_NODES = 32
CHORD_SETUPS = 2           # rings built per run; the last one takes the lookups
KEYS_PER_START = 8         # lookups per start node per round
LOOKUP_SPACING_MS = 2      # simulated time between two lookups
LOOKUP_GRACE_MS = 60_000   # simulated time after the last lookup before giving up

REPL_REQUESTS = 200        # per batch size, per round
REPL_BATCH_SIZES = (1, 4)
REQUEST_SPACING_MS = 1     # simulated time between two requests
REPL_EXTRA_SETUPS = 40     # set-ups timed before the rounds, for a steady median


def plain(t):
    """A stored ground term as Python values: atoms are str, integers int,
    compound terms (name, arg, ...)."""
    t = deref(t)
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Struct):
        return (t.name,) + tuple(plain(a) for a in t.args)
    raise ValueError("unbound variable in a stored fact")


def _phase(tracer, name):
    return tracer.in_phase(name) if tracer else nullcontext()


def stored_facts(node, name, arity) -> list:
    return [plain(t)[1:] for t in node.db.facts(name, arity)]


def _stored_clauses(net) -> int:
    return sum(len(b) for n in net.nodes.values() for b in n.db.preds.values())


def _sends(net) -> int:
    return sum(n.metrics.sends for n in net.nodes.values())


def _run_rounds(seconds, one_round) -> list:
    """Whole rounds until their timed phases add up to `seconds`.

    Peak memory is read after the first round: later rounds on the same
    ring keep adding trace records and results, and how many rounds fit in
    `seconds` depends on the program's speed.
    """
    rounds = [one_round(0)]
    rounds[0]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while sum(r["wall_s"] for r in rounds) < seconds:
        rounds.append(one_round(len(rounds)))
    return rounds


# --- chord_lookup ---


def chord_setup(tracer=None, nodes: int = CHORD_NODES) -> tuple:
    """A ring built by joins and stabilized: sim, seconds, ring errors, and
    the event count and simulated clock it ended on."""
    t0 = time.perf_counter()
    with _phase(tracer, "setup"):
        sim = ChordSim(seed=0)  # the ring does not depend on the workload seed
        sim.build(nodes)
        sim.quiesce()
    setup_s = time.perf_counter() - t0
    ids = {a: checks.ring_id(a, sim.params.ring_size) for a in sim.members}
    errors = checks.check_ring(
        ids,
        {a: stored_facts(sim.net.nodes[a], "succ", 2) for a in ids},
        {a: stored_facts(sim.net.nodes[a], "pred", 2) for a in ids})
    return sim, setup_s, errors, (len(sim.net.trace), sim.net.clock)


def chord_lookups(seed: int, members: list, ring_size: int) -> list:
    """(key, start address) of each lookup of a round, from the workload seed.

    Every node starts KEYS_PER_START lookups, one key drawn in each of as
    many equal arcs of the ring, in a shuffled order: seeds differ in the
    keys and the order, not in how far lookups travel on average.
    """
    rng = random.Random(seed)
    arc = ring_size // KEYS_PER_START
    out = [(j * arc + rng.randrange(arc), start)
           for start in members for j in range(KEYS_PER_START)]
    rng.shuffle(out)
    return out


def chord_round(sim, lookups: list, first_tag: int, tracer=None) -> dict:
    """Inject the lookups, tagged from first_tag, and step the simulator
    until the observer has every answer."""
    net = sim.net
    events0, sends0 = len(net.trace), _sends(net)
    with _phase(tracer, "timed"):
        t0, c0 = time.perf_counter(), time.process_time()
        base = net.clock
        for i, (key, start) in enumerate(lookups):
            net.inject_term(base + i * LOOKUP_SPACING_MS, start, Struct(
                "lookup", (Int(key), Atom(OBSERVER), Int(first_tag + i))))
        deadline = base + len(lookups) * LOOKUP_SPACING_MS + LOOKUP_GRACE_MS
        answered = 0
        while answered < len(lookups) and net.clock <= deadline:
            rec = net.step()
            if rec is None:
                break
            if rec.node == OBSERVER and rec.outcome == "success":
                answered += 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu,
            "events": len(net.trace) - events0, "clock": net.clock,
            "sends": _sends(net) - sends0,
            "lookups": [(first_tag + i, key, start)
                        for i, (key, start) in enumerate(lookups)]}


def run_chord(seed: int, seconds: float, tracer=None) -> dict:
    setup_s, ends, errors = [], set(), []
    for _ in range(CHORD_SETUPS):  # only the last ring is kept
        sim, took, errs, end = chord_setup(tracer)
        setup_s.append(took)
        ends.add(end)
        errors += errs
    if len(ends) != 1:  # fresh rings from the same joins must replay exactly
        errors.append("set-ups ended differently (events, clock): %s" % sorted(ends))
    setup_events = end[0]
    ids = {a: checks.ring_id(a, sim.params.ring_size) for a in sim.members}
    lookups = chord_lookups(seed, sorted(sim.members), sim.params.ring_size)
    per_round = len(lookups)
    rounds = _run_rounds(seconds, lambda k: chord_round(
        sim, lookups, k * per_round, tracer))

    answers: dict = {}
    for (_, tag), owner, oid, hops in stored_facts(sim.net.nodes[OBSERVER], "result", 4):
        answers.setdefault(tag // per_round, []).append((tag, owner, oid, hops))
    for k, r in enumerate(rounds):
        r["errors"] = checks.check_lookups(r["lookups"], answers.pop(k, []), ids)
        r["attempted"] = len(r["lookups"])
        r["failed"] = min(r["attempted"], len(r["errors"]))
        r["req_per_s"] = (r["attempted"] - r["failed"]) / r["wall_s"]
    errors += ["answer %r after the last round" % (a,) for v in answers.values() for a in v]
    res = _summary(rounds, setup_s, errors)
    res["info"]["setup_events"] = setup_events
    res["layer_basis"]["setup_events"] = setup_events * CHORD_SETUPS
    res["layer_basis"]["known"]["engine.db_clauses"] = _stored_clauses(sim.net)
    return res


# --- replication ---


def replication_requests(seed: int) -> list:
    rng = random.Random(seed)
    return ["q%08x" % v for v in rng.sample(range(1 << 32), REPL_REQUESTS)]


def replication_setup(seed: int) -> list:
    return [ZyzzyvaSim(batch_size=b, seed=seed) for b in REPL_BATCH_SIZES]


def replication_stream(sim, requests: list) -> None:
    """Kick the client once per simulated millisecond, as ZyzzyvaSim.submit
    does, and run the simulator to idle."""
    net = sim.net
    base = net.clock
    for i, req in enumerate(requests):
        net.inject_term(base + i * REQUEST_SPACING_MS, CLIENT, Struct("kick", (Atom(req),)))
    net.run_to_idle()


def replication_round(seed: int, requests: list, tracer=None) -> dict:
    """Fresh replicas; the same request stream at each batch size."""
    t0 = time.perf_counter()
    with _phase(tracer, "setup"):
        sims = replication_setup(seed)
    setup_s = time.perf_counter() - t0

    with _phase(tracer, "timed"):
        t0, c0 = time.perf_counter(), time.process_time()
        for sim in sims:
            replication_stream(sim, requests)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    errors, failed = [], 0
    for sim in sims:
        errs = checks.check_replication(requests, stored_facts(sim.net.nodes[CLIENT], "rep", 4),
                                        sim.replicas, sim.compute_calls)
        errors += ["batch %d: %s" % (sim.batch_size, e) for e in errs]
        failed += min(len(requests), len(errs))
    attempted = len(requests) * len(sims)
    return {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        "attempted": attempted, "failed": failed, "errors": errors,
        "req_per_s": (attempted - failed) / wall,
        "events": sum(len(s.net.trace) for s in sims),
        "clock": [s.net.clock for s in sims],
        "sends": sum(_sends(s.net) for s in sims),
        "db_clauses": sum(_stored_clauses(s.net) for s in sims),
    }


def run_replication(seed: int, seconds: float, tracer=None) -> dict:
    requests = replication_requests(seed)
    setups = []
    for _ in range(REPL_EXTRA_SETUPS):
        t0 = time.perf_counter()
        with _phase(tracer, "setup"):
            replication_setup(seed)
        setups.append(time.perf_counter() - t0)
    rounds = _run_rounds(seconds, lambda k: replication_round(seed, requests, tracer))
    errors = []
    # same inputs on fresh replicas: every round must replay exactly
    first = rounds[0]
    for r in rounds[1:]:
        if (r["events"], r["clock"]) != (first["events"], first["clock"]):
            errors.append("round replayed differently: %d events at clock %s, first "
                          "round %d at %s" % (r["events"], r["clock"],
                                              first["events"], first["clock"]))
    res = _summary(rounds, setups + [r["setup_s"] for r in rounds], errors)
    res["info"]["setup_events"] = 0
    res["layer_basis"]["setup_events"] = 0
    res["layer_basis"]["known"]["engine.db_clauses"] = first["db_clauses"]
    return res


# --- shared ---


def _summary(rounds: list, setups: list, errors: list) -> dict:
    first = rounds[0]
    events = sum(r["events"] for r in rounds)
    return {
        "errors": errors + [e for r in rounds for e in r["errors"]],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            "setup_s": median(setups),
            "req_per_s": median(r["req_per_s"] for r in rounds),
            "cpu_us_per_req": median(r["cpu_s"] / max(1, r["attempted"] - r["failed"])
                                     for r in rounds) * 1e6,
            "peak_rss_mb": first["peak_rss_mb"],
        },
        # the first round's event count and final simulated clock depend on
        # the seed alone, traced or not
        "info": {"rounds": len(rounds), "setups": len(setups),
                 "first_round_events": first["events"],
                 "first_round_clock": first["clock"],
                 "round_s": [round(r["wall_s"], 3) for r in rounds],
                 "setup_s": [round(s, 4) for s in setups]},
        "layer_basis": {
            "events": events,
            "setups": len(setups), "rounds": len(rounds),
            "known": {
                "runtime.sends_per_event": sum(r["sends"] for r in rounds) / events,
                "sim.events": first["events"],
                "tcp.loop.busy_s": 0.0,
            },
        },
    }
