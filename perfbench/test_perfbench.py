"""The benchmark's own tests: tiny workloads pass, doctored results fail.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import socket

import checks
import run

run.use_source_tree()

import pingpong  # noqa: E402
import sims  # noqa: E402
import tracing  # noqa: E402
from logicnode.protocols.chord import ChordParams  # noqa: E402

RING = ChordParams().ring_size


# --- tiny workloads pass their checks ---


def _chord_once(tracer=None):
    sim, _, errors, end = sims.chord_setup(tracer, nodes=8)
    lookups = sims.chord_lookups(3, sorted(sim.members), RING)[:30]
    r = sims.chord_round(sim, lookups, 0, tracer)
    ids = {a: checks.ring_id(a, RING) for a in sim.members}
    answers = [(tag, owner, oid, hops) for (_, tag), owner, oid, hops
               in sims.stored_facts(sim.net.nodes["obs"], "result", 4)]
    return errors + checks.check_lookups(r["lookups"], answers, ids), end, r


def test_chord_tiny_ring_passes():
    errors, _, r = _chord_once()
    assert errors == []
    assert len(r["lookups"]) == 30


def test_replication_tiny_stream_passes():
    requests = sims.replication_requests(5)[:8]
    r = sims.replication_round(5, requests)
    assert r["errors"] == [] and r["failed"] == 0
    assert r["attempted"] == 16


def _listener():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    s.listen(8)
    return s, "127.0.0.1:%d" % s.getsockname()[1]


def test_pingpong_tiny_exchange_passes(tmp_path):
    listener, client = _listener()
    server = pingpong.Server(listener, False, tmp_path / "server.log")
    try:
        assert server.start(client) > 0
        pads = pingpong.make_pads(random.Random(1), 300)
        got, wall = pingpong.closed_loop(server, pingpong.ping_frames(client, pads))
        assert checks.check_pongs(pads, got) == [] and wall > 0
        pads = pingpong.make_pads(random.Random(2), 40)
        got, rtts, late = pingpong.open_loop(server, pingpong.ping_frames(client, pads))
        assert checks.check_pongs(pads, got) == []
        assert len(rtts) == 40 and min(rtts) > 0
    finally:
        server.stop()
        listener.close()
    assert server.proc.returncode is not None


# --- tracing changes nothing the program does ---


def test_traced_run_replays_the_untraced_one():
    plain_errors, plain_end, plain_round = _chord_once()
    tracer = tracing.install(tracing.Tracer())
    try:
        traced_errors, traced_end, traced_round = _chord_once(tracer)
    finally:
        tracer.uninstall()
    assert plain_errors == traced_errors == []
    assert plain_end == traced_end
    assert ((plain_round["events"], plain_round["clock"])
            == (traced_round["events"], traced_round["clock"]))
    names = {s[tracing.NAME] for s in tracer.rows()}
    assert {"sim.step", "runtime.dispatch", "engine.solve", "reader.deserialize",
            "protocols.chord.build", "protocols.chord.quiesce"} <= names
    basis = {"events": traced_round["events"], "setup_events": traced_end[0],
             "setups": 1, "rounds": 1,
             "known": {"runtime.sends_per_event": 1.0}}
    layers = tracing.layer_metrics(tracer.rows(), tracer.counts, basis)
    assert run.with_units(layers, "per_layer")  # every listed metric, no other
    assert layers["engine.steps_per_event"] > 0


def test_clauses_tried_counts_only_clauses_past_the_key_filter():
    from logicnode.engine import Database, Solver
    from logicnode.reader import parse_program, parse_term
    db = Database()
    db.load_program(parse_program("p(a). p(b). p(c). p(d).\n"))
    tracer = tracing.install(tracing.Tracer())
    try:
        with tracer.in_phase("timed"):
            assert Solver(db).solve_first(parse_term("p(c)")) is not None
    finally:
        tracer.uninstall()
    basis = {"events": 1, "setup_events": 0, "setups": 1, "rounds": 1, "known": {}}
    layers = tracing.layer_metrics([], tracer.counts, basis)
    assert layers["engine.pred_calls_per_event"] == 1
    assert layers["engine.clauses_tried_per_call"] == 1  # not the 4 stored


def test_uninstall_restores_every_entry_point():
    from logicnode import engine, reader, runtime
    originals = (runtime.Node.__dict__["dispatch"], runtime.deserialize,
                 reader.term_text, engine._rename)
    tracing.install(tracing.Tracer()).uninstall()
    assert originals == (runtime.Node.__dict__["dispatch"], runtime.deserialize,
                         reader.term_text, engine._rename)


def _fake_result(errors, failed):
    metrics = {"setup_s": 1.5, "req_per_s": 2.5, "cpu_us_per_req": 3.5, "peak_rss_mb": 4.5}
    return {"errors": errors, "attempted": 4, "failed": failed, "info": {},
            "metrics": metrics}


def test_exit_status_is_1_after_a_failed_check(monkeypatch, capsys):
    argv = ["--workload", "replication", "--seed", "1", "--seconds", "1"]
    monkeypatch.setattr(run, "run", lambda *a: _fake_result([], 0))
    assert run.main(argv) == 0
    monkeypatch.setattr(run, "run", lambda *a: _fake_result(["doctored"], 1))
    assert run.main(argv) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_traced_server_writes_its_spans(tmp_path):
    listener, client = _listener()
    spans = tmp_path / "spans.tsv"
    server = pingpong.Server(listener, True, tmp_path / "server.log", spans)
    try:
        server.start(client)
        pads = pingpong.make_pads(random.Random(1), 50)
        got, _ = pingpong.closed_loop(server, pingpong.ping_frames(client, pads))
        assert checks.check_pongs(pads, got) == []
    finally:
        server.stop()
        listener.close()
    rows = list(pingpong.server_spans(spans, []))
    assert sum(1 for s in rows if s[tracing.NAME] == "runtime.dispatch") == 51


# --- each checker rejects a doctored result ---

IDS = {"a": 10, "b": 20, "c": 30, "d": 40}


def test_ring_check_rejects_a_wrong_neighbour():
    succ = {"a": [("b", 20)], "b": [("c", 30)], "c": [("d", 40)], "d": [("a", 10)]}
    pred = {"a": [("d", 40)], "b": [("a", 10)], "c": [("b", 20)], "d": [("c", 30)]}
    assert checks.check_ring(IDS, succ, pred) == []
    succ["b"] = [("d", 40)]
    assert checks.check_ring(IDS, succ, pred)


def test_lookup_check():
    lookups = [(0, 15, "a"), (1, 45, "c")]
    good = [(0, "b", 20, 1), (1, "a", 10, 2)]
    assert checks.check_lookups(lookups, good, IDS) == []
    wrong_owner = [(0, "c", 30, 1), good[1]]
    too_many_hops = [good[0], (1, "a", 10, 3)]  # ceil(log2 4) = 2
    missing = [good[0]]
    twice = good + [good[1]]
    for doctored in (wrong_owner, too_many_hops, missing, twice):
        assert checks.check_lookups(lookups, doctored, IDS)


def test_replication_check():
    reps = ["r1", "r2", "r3", "r4"]
    good = [(r, ("-", s, 1), q, q) for s, q in ((1, "q1"), (2, "q2")) for r in reps]
    assert checks.check_replication(["q1", "q2"], good, reps, 8) == []
    missing_reply = good[:-1]
    wrong_output = good[:-1] + [("r4", ("-", 2, 1), "q2", "q9")]
    duplicate_seq = [(r, ("-", 1, 1), q, o) for r, _, q, o in good]
    split_seq = good[:-1] + [("r4", ("-", 3, 1), "q2", "q2")]
    for doctored in (missing_reply, wrong_output, duplicate_seq, split_seq):
        assert checks.check_replication(["q1", "q2"], doctored, reps, 8)
    assert checks.check_replication(["q1", "q2"], good, reps, 9)


def test_pong_check():
    sent = ["p1", "p2", "p3"]
    assert checks.check_pongs(sent, ["p1", "p2", "p3"]) == []
    assert checks.check_pongs(sent, ["p1", "p9", "p3"])  # wrong pad
    assert checks.check_pongs(sent, ["p1", "p2"])  # missing pong


def test_ring_id_matches_the_canonical_atom_text():
    assert checks.atom_text("c0001") == "c0001"
    assert checks.atom_text("127.0.0.1:9") == "'127.0.0.1:9'"
    from logicnode.protocols.chord import node_id
    for addr in ("c0001", "c0042", "Node-7"):
        assert checks.ring_id(addr, RING) == node_id(addr, RING)
