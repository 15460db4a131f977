import random

import pytest

from logicnode import engine
from logicnode.cli import main as cli_main
from logicnode.protocols.chord import (
    ChordParams, ChordSim, make_addresses, node_id, static_experiment)
from logicnode.protocols.spanning_tree import (
    check_tree, extract_tree, random_connected_graph, reachable_from,
    run_spanning_tree)
from logicnode.protocols.zyzzyva import CLIENT, ZyzzyvaSim, tamper_mac_hook


# --- spanning tree ---

DIAMOND = {
    "a": ["b", "c"],
    "b": ["a", "d"],
    "c": ["a", "d"],
    "d": ["b", "c"],
}


def test_tree_on_fixed_graph():
    net = run_spanning_tree(DIAMOND, "a")
    parents = extract_tree(net, "a")
    assert check_tree(DIAMOND, "a", parents) == []
    assert parents["a"] == "a"
    # with unit latency both b and c hang off the root
    assert parents["b"] == "a" and parents["c"] == "a"
    assert parents["d"] in ("b", "c")


def test_tree_ignores_unreachable_component():
    adj = dict(DIAMOND)
    adj["x"] = ["y"]
    adj["y"] = ["x"]
    net = run_spanning_tree(adj, "a")
    parents = extract_tree(net, "a")
    assert check_tree(adj, "a", parents) == []
    assert parents["x"] is None and parents["y"] is None


def test_duplicate_kickoffs_keep_one_parent():
    net = run_spanning_tree(DIAMOND, "a", kickoffs=3)
    parents = extract_tree(net, "a")  # raises on multiple parent facts
    assert check_tree(DIAMOND, "a", parents) == []


def test_tree_on_random_graphs():
    rng = random.Random(11)
    for trial in range(10):
        adj = random_connected_graph(rng.randrange(5, 25), rng)
        root = sorted(adj)[rng.randrange(len(adj))]
        net = run_spanning_tree(adj, root, seed=trial)
        parents = extract_tree(net, root)
        assert check_tree(adj, root, parents) == []
        assert reachable_from(adj, root) == set(adj)


# --- ring lookups ---


def test_make_addresses_have_distinct_ids():
    addrs = make_addresses(50, 1 << 16)
    ids = [node_id(a, 1 << 16) for a in addrs]
    assert len(set(ids)) == 50


def small_ring(n=8, seed=0):
    sim = ChordSim(seed=seed)
    sim.build(n)
    sim.quiesce()
    return sim


def test_ring_integrity_after_quiesce():
    sim = small_ring()
    by_addr = dict(sim.members)
    start = sorted(by_addr)[0]
    seen = []
    cur = start
    for _ in range(len(by_addr)):
        seen.append(cur)
        rows = sim.net.query_all(cur, "succ(A, _)")
        assert len(rows) == 1
        cur = rows[0]["A"].name
    assert cur == start  # one cycle through every member
    assert sorted(seen) == sorted(by_addr)
    # successor ids must follow ring order
    ids = sorted(by_addr.values())
    for addr in by_addr:
        succ_id = sim.net.query_all(addr, "succ(_, I)")[0]["I"].value
        me = by_addr[addr]
        expect = ids[(ids.index(me) + 1) % len(ids)]
        assert succ_id == expect


def test_predecessors_settle():
    sim = small_ring()
    ids = sorted(sim.members.values())
    for addr, me in sim.members.items():
        rows = sim.net.query_all(addr, "pred(_, I)")
        assert len(rows) == 1
        assert rows[0]["I"].value == ids[(ids.index(me) - 1) % len(ids)]


def test_lookup_matches_oracle():
    sim = small_ring()
    results = sim.run_lookup_batch(60)
    assert all(r.answered for r in results)
    assert all(r.consistent for r in results)
    assert all(r.hops <= 4 for r in results)  # ceil(log2(8)) + 1


def test_own_key_resolves_in_zero_hops():
    sim = small_ring()
    addr = sorted(sim.members)[3]
    tag = sim.start_lookup(sim.members[addr], addr)
    sim.net.run_until(sim.net.clock + 1000)
    (r,) = sim.collect_results()
    assert r.tag == tag and r.consistent
    assert r.owner_addr == addr and r.hops == 0


def test_identifier_collision_is_refused():
    ring = 1 << 16
    seen = {}
    pair = None
    i = 0
    while pair is None:
        addr = "x%05d" % i
        ident = node_id(addr, ring)
        if ident in seen:
            pair = (seen[ident], addr)
        seen[ident] = addr
        i += 1
    sim = ChordSim()
    sim.join(pair[0])
    sim.net.run_until(sim.net.clock + 1000)
    sim.join(pair[1])
    sim.net.run_until(sim.net.clock + 1000)
    assert sim.net.query_all(pair[1], "join_failed(_)")
    with pytest.raises(RuntimeError):
        sim.build(1)  # build treats a failed join as fatal


def test_static_experiment_small():
    sim = static_experiment(8, 20, seed=2)
    assert len(sim.results) == 20
    assert all(r.consistent for r in sim.results)


def test_experiment_chord_writes_three_csvs(tmp_path, capsys):
    argv = ["experiment-chord", "--nodes", "4", "--lookups", "20", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.startswith("nodes=4 lookups=20 answered=")
    for name in ("latency_cdf.csv", "hops.csv", "consistency.csv"):
        assert (tmp_path / name).read_text().splitlines()[0] == "schema,logicnode-csv-1"
    rows = (tmp_path / "consistency.csv").read_text().splitlines()
    assert rows[1] == "mode,consistency" and rows[2].startswith("static,")


# --- speculative replication, phase one ---


def test_single_request_commits_with_full_quorum():
    sim = ZyzzyvaSim(batch_size=1, seed=0)
    (req,) = sim.run_requests(1)
    st = sim.status(req)
    assert st.committed
    assert st.senders == ("r1", "r2", "r3", "r4")
    assert sim.compute_calls == 4  # each replica executed once


def test_batch_boundary_defers_commit():
    sim = ZyzzyvaSim(batch_size=2, seed=0)
    sim.submit("a1")
    sim.settle()
    assert not sim.status("a1").committed  # half a batch: no execution yet
    assert sim.compute_calls == 0
    sim.submit("a2")
    sim.settle()
    assert sim.status("a1").committed and sim.status("a2").committed


def test_sequence_numbers_are_distinct_and_ordered():
    sim = ZyzzyvaSim(batch_size=1, seed=0)
    reqs = sim.run_requests(5)
    seqs = []
    for r in reqs:
        groups = sim.client_replies()[r]
        (key,) = [k for k, v in groups.items() if len(v) == 4]
        seqs.append(key[0])
    assert len(set(seqs)) == 5


def test_replay_is_served_from_cache():
    sim = ZyzzyvaSim(batch_size=1, seed=0)
    (req,) = sim.run_requests(1)
    assert sim.status(req).committed
    batches = sim.recorded_batches("r2")
    assert len(batches) == 1
    before = sim.compute_calls
    sim.replay_batch("r2", batches[0])
    assert sim.compute_calls == before  # write-once cache answered


def test_tampered_reply_breaks_the_quorum():
    sim = ZyzzyvaSim(batch_size=1, seed=0)
    sim.net.links.set_corrupt("r2", CLIENT, tamper_mac_hook)
    (req,) = sim.run_requests(1)
    st = sim.status(req, quorum=4)
    assert not st.committed
    st3 = sim.status(req, quorum=3)
    assert st3.committed and "r2" not in st3.senders


def test_all_committed_agrees_with_status_per_request():
    for tampered in (False, True):
        sim = ZyzzyvaSim(batch_size=1, seed=0)
        if tampered:
            sim.net.links.set_corrupt("r2", CLIENT, tamper_mac_hook)
        reqs = sim.run_requests(4) + ["never_sent"]
        for quorum in (3, 4):
            per_request = [sim.status(r, quorum) for r in reqs]
            assert sim.statuses(reqs, quorum) == per_request
            assert [st.committed for st in per_request] == [
                quorum == 3 or not tampered] * 4 + [False]
            assert sim.all_committed(reqs[:4], quorum) == (quorum == 3 or not tampered)
            assert not sim.all_committed(reqs, quorum)


def test_replica_work_per_request_does_not_grow_with_its_cache(monkeypatch):
    renames = [0]
    rename = engine._rename

    def counted(clause):
        renames[0] += 1
        return rename(clause)

    monkeypatch.setattr(engine, "_rename", counted)
    sim = ZyzzyvaSim(batch_size=1, seed=0)
    marks = []
    for i in range(400):
        if i % 100 == 0:
            marks.append(renames[0])
        sim.submit("q%d" % i)
    sim.settle()
    marks.append(renames[0])
    first, last = marks[1] - marks[0], marks[4] - marks[3]
    assert sim.all_committed(["q%d" % i for i in range(400)])
    assert last <= 1.5 * first, (first, last)


def test_tamper_hook_leaves_unsigned_frames_alone():
    frame = b"\x00\x00\x00\x05\x00\x00\x01a!"
    assert tamper_mac_hook(frame) == frame
