import os
import subprocess
import sys
from pathlib import Path

import pytest

from logicnode.reader import parse_program, parse_term
from logicnode.runtime import NodeConfig
from logicnode.sim import LinkModel, SimNetwork
from logicnode.wire import Envelope, decode_frame, encode_envelope

RELAY_SRC = """
:- event token/1.
:- alarm beep/0.
:- dynamic have/1, beeped/0.

token(N) :- assert(have(N)), N > 0, M is N - 1, next_hop(H), send(H, token(M)).
token(_).
beep :- assert(beeped).
"""


def ring(net: SimNetwork, names):
    for i, name in enumerate(names):
        nxt = names[(i + 1) % len(names)]
        prog = parse_program(RELAY_SRC + "next_hop(%s).\n" % nxt)
        net.add_node(NodeConfig(name, prog))


def test_token_circulates_with_latency():
    net = SimNetwork(seed=0)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "a", parse_term("token(5)"))
    net.run_to_idle()
    # 6 deliveries, one per hop, 1ms apart after the injected event
    assert [r.time for r in net.trace] == [0, 1, 2, 3, 4, 5]
    assert [r.node for r in net.trace] == ["a", "b", "c", "a", "b", "c"]
    assert net.holds("a", "have(5)") and net.holds("c", "have(0)")


def test_same_seed_same_trace():
    def run(seed):
        links = LinkModel()
        links.set_drop("a", "b", 0.3)
        net = SimNetwork(seed=seed, links=links)
        ring(net, ["a", "b", "c"])
        net.inject_term(0, "a", parse_term("token(30)"))
        net.run_to_idle()
        return net.trace_lines(), net.dropped

    t1, d1 = run(7)
    t2, d2 = run(7)
    assert t1 == t2 and d1 == d2
    t3, d3 = run(8)
    assert (t3, d3) != (t1, d1)


def test_per_link_latency():
    links = LinkModel(default_latency=1)
    links.set_latency("a", "b", 10)
    net = SimNetwork(seed=0, links=links)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "a", parse_term("token(2)"))
    net.run_to_idle()
    assert [r.time for r in net.trace] == [0, 10, 11]


def test_ties_break_by_enqueue_order():
    links = LinkModel(default_latency=0)
    net = SimNetwork(seed=0, links=links)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "b", parse_term("token(0)"))
    net.inject_term(0, "a", parse_term("token(0)"))
    net.run_to_idle()
    assert [r.node for r in net.trace] == ["b", "a"]


def test_drop_probability_validation():
    links = LinkModel()
    with pytest.raises(ValueError):
        links.set_drop("a", "b", 1.5)
    with pytest.raises(ValueError):
        links.set_latency("a", "b", -1)


@pytest.mark.parametrize("bad", [-1, float("nan"), float("inf")])
def test_simulated_time_never_runs_backwards(bad):
    with pytest.raises(ValueError):
        LinkModel(default_latency=bad)
    with pytest.raises(ValueError):
        LinkModel().set_latency("a", "b", bad)
    net = SimNetwork(seed=0)
    net.run_until(5)
    for at in (bad, 4, bad + 5):
        with pytest.raises(ValueError):
            net.inject_term(at, "a", parse_term("token(0)"))
        with pytest.raises(ValueError):
            net.run_until(at)
    assert net.clock == 5 and net.pending_events == 0


def test_full_drop_loses_every_message():
    links = LinkModel()
    links.set_drop("a", "b", 1.0)
    net = SimNetwork(seed=0, links=links)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "a", parse_term("token(3)"))
    net.run_to_idle()
    assert net.dropped == 1
    assert not net.holds("b", "have(_)")


def test_corrupt_hook_and_drop_count():
    links = LinkModel()
    links.set_corrupt("a", "b", lambda frame: frame[:-1] + b"\x00" * 40)
    net = SimNetwork(seed=0, links=links)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "a", parse_term("token(3)"))
    net.run_to_idle()
    # the padded frame decodes but its payload no longer parses
    assert net.nodes["b"].metrics.decode_errors == 1


def test_a_frame_a_corrupt_hook_rewrote_shows_canonical_text():
    def respace(frame):  # same term, written with spaces
        env, _ = decode_frame(frame)
        payload = env.payload.replace(b"(", b"( ").replace(b")", b" )")
        return encode_envelope(Envelope(env.sender, payload, env.mac, env.origin))

    links = LinkModel()
    links.set_corrupt("a", "b", respace)
    net = SimNetwork(seed=0, links=links)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "a", parse_term("token(2)"))
    net.run_to_idle()
    assert [(r.node, r.term, r.outcome) for r in net.trace] == [
        ("a", "token(2)", "success"), ("b", "token(1)", "success"),
        ("c", "token(0)", "success")]


def test_kill_purges_alarms_but_not_in_flight():
    net = SimNetwork(seed=0)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "a", parse_term("token(1)"))  # delivery to b in flight
    net.step()
    net.nodes["b"].transport.schedule_alarm(
        "b", 50, __import__("logicnode.wire", fromlist=["Envelope"]).Envelope(
            "b", b"beep", None, "alarm"))
    net.kill("b")
    net.run_to_idle()
    dead = [r for r in net.trace if r.outcome == "dead"]
    assert len(dead) == 1  # the in-flight token arrived at a dead node
    assert net.dead_dropped == 1
    assert net.pending_events == 0  # the alarm was purged, not delivered


def test_run_until_advances_clock_without_events():
    net = SimNetwork(seed=0)
    net.run_until(500)
    assert net.clock == 500


def test_inject_into_past_rejected():
    net = SimNetwork(seed=0)
    ring(net, ["a", "b", "c"])
    net.run_until(10)
    with pytest.raises(ValueError):
        net.inject_term(5, "a", parse_term("token(1)"))


def test_duplicate_address_rejected():
    net = SimNetwork(seed=0)
    ring(net, ["a", "b", "c"])
    from logicnode.runtime import LinkError
    with pytest.raises(LinkError):
        net.add_node(NodeConfig("a", parse_program("")))


def test_metrics_aggregate():
    net = SimNetwork(seed=0)
    ring(net, ["a", "b", "c"])
    net.inject_term(0, "a", parse_term("token(2)"))
    net.run_to_idle()
    m = net.metrics()
    assert m["delivered"] == 3
    assert m["sends"] == 2


# what scripts/trace_digest.py prints; a change that alters a trace on
# purpose updates these lines and says why
PINNED_TRACES = """\
chord_16_seed3_200_lookups f1257ce453e93450a974a5d42c6cbced00289d6ab3bdd7a80828703302ce6af3 events=7686 steps=315293
zyzzyva_batch1_40_requests c7c616a4f97ef3dfb1eb52b4832d6c996908c54900e0f2c111b6938480768abf events=400 steps=5600
zyzzyva_batch4_40_requests 3e766157ba8de99a1be7b099a84b46dba20d971863999ad34c3e0c812d110fb2 events=280 steps=4100
spanning_tree_60_seed5 4c015d3e26190057df95e0e86da8cafdffba3a1f827912a2776a832ce39c4583 events=423 steps=2837
"""


def test_simulator_traces_match_the_pinned_digests():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, str(root / "scripts" / "trace_digest.py")],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout == PINNED_TRACES
