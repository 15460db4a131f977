import pytest

from logicnode.auth import full_mesh_keystore
from logicnode.engine import EngineError
from logicnode.reader import parse_program, parse_term, serialize
from logicnode.runtime import NodeConfig
from logicnode.sim import SimNetwork
from logicnode.wire import Envelope


ECHO_SRC = """
:- event ping/1, poke/0.
:- alarm tick/0.
:- dynamic seen/1, ticked/0.

ping(X) :- assert(seen(X)).
poke :- this_node(Me), send(Me, ping(self)).
tick :- assert(ticked).
"""


def make_net(src: str = ECHO_SRC, **cfg):
    net = SimNetwork(seed=1)
    node = net.add_node(NodeConfig("n1", parse_program(src), **cfg))
    return net, node


def test_event_dispatch_asserts_fact():
    net, node = make_net()
    net.inject_term(0, "n1", parse_term("ping(a)"))
    net.run_to_idle()
    assert net.holds("n1", "seen(a)")
    assert node.metrics.delivered == 1


def test_non_event_terms_are_discarded():
    net, node = make_net()
    net.inject_term(0, "n1", parse_term("notdeclared(a)"))
    net.inject_term(0, "n1", parse_term("ping(a, b)"))  # wrong arity
    net.run_to_idle()
    assert node.metrics.discarded == 2
    assert node.metrics.delivered == 0


def test_alarm_terms_only_fire_from_alarm_origin():
    net, node = make_net()
    net.inject_term(0, "n1", parse_term("tick"))  # network origin: discarded
    net.run_to_idle()
    assert not net.holds("n1", "ticked")
    assert node.metrics.discarded == 1
    # delivered via the alarm builtin it is accepted
    net.inject_term(net.clock, "n1", parse_term("poke"))
    net.run_to_idle()
    net.inject(net.clock, "n1",
               Envelope("n1", serialize(parse_term("tick")), None, "alarm"))
    net.run_to_idle()
    assert net.holds("n1", "ticked")


def test_self_send_goes_through_the_network():
    net, node = make_net()
    net.inject_term(0, "n1", parse_term("poke"))
    net.run_to_idle()
    assert net.holds("n1", "seen(self)")
    assert node.metrics.sends == 1


def test_handler_failure_keeps_side_effects():
    src = """
:- event go/0.
:- dynamic mark/1.
go :- assert(mark(1)), fail.
"""
    net, node = make_net(src)
    net.inject_term(0, "n1", parse_term("go"))
    net.run_to_idle()
    assert net.holds("n1", "mark(1)")  # no rollback on failure
    assert node.metrics.handler_failures == 1
    assert net.trace[0].outcome == "failure"


def test_handler_error_is_contained():
    src = """
:- event go/0, ok/0.
:- dynamic fine/0.
go :- _ is 1 // 0.
ok :- assert(fine).
"""
    net, node = make_net(src)
    net.inject_term(0, "n1", parse_term("go"))
    net.inject_term(1, "n1", parse_term("ok"))
    net.run_to_idle()
    assert node.metrics.handler_errors == 1
    assert net.trace[0].outcome == "error:arith"
    assert net.holds("n1", "fine")  # node keeps running


def test_send_to_unreachable_policy_fail():
    src = ":- event go/0.\n:- dynamic after/0.\ngo :- send(ghost, hi), assert(after).\n"
    net, node = make_net(src, policy="fail")
    net.inject_term(0, "n1", parse_term("go"))
    net.run_to_idle()
    assert node.metrics.handler_failures == 1
    assert not net.holds("n1", "after")


def test_send_to_unreachable_policy_ignore():
    src = ":- event go/0.\n:- dynamic after/0.\ngo :- send(ghost, hi), assert(after).\n"
    net, node = make_net(src, policy="ignore")
    net.inject_term(0, "n1", parse_term("go"))
    net.run_to_idle()
    assert net.holds("n1", "after")
    assert node.metrics.handler_failures == 0


def test_send_to_unreachable_policy_throw():
    src = ":- event go/0.\ngo :- send(ghost, hi).\n"
    net, node = make_net(src, policy="throw")
    net.inject_term(0, "n1", parse_term("go"))
    net.run_to_idle()
    assert node.metrics.handler_errors == 1
    assert net.trace[0].outcome == "error:send"


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        NodeConfig("n1", parse_program(""), policy="explode")


def test_sendall_snapshots_solutions_before_sending():
    src = """
:- event kick/0, got/1.
:- dynamic peer/1, got_fact/1.
peer(a). peer(b).
kick :- sendall(P, peer(P), got(P)).
got(X) :- assert(got_fact(X)).
"""
    net = SimNetwork(seed=1)
    for addr in ("n1", "a", "b"):
        net.add_node(NodeConfig(addr, parse_program(src)))
    net.inject_term(0, "n1", parse_term("kick"))
    net.run_to_idle()
    assert net.holds("a", "got_fact(a)")
    assert net.holds("b", "got_fact(b)")


def test_cut_in_sendall_generator_sends_one_message():
    src = """
:- event kick/0, got/1.
:- dynamic got_fact/1.
peer(a). peer(b).
kick :- sendall(P, (peer(P), !), got(P)).
got(X) :- assert(got_fact(X)).
"""
    net = SimNetwork(seed=1)
    for addr in ("n1", "a", "b"):
        net.add_node(NodeConfig(addr, parse_program(src)))
    net.inject_term(0, "n1", parse_term("kick"))
    net.run_to_idle()
    assert net.nodes["n1"].metrics.sends == 1
    assert net.holds("a", "got_fact(a)")
    assert not net.holds("b", "got_fact(_)")


def test_signed_send_and_lazy_verification():
    src = """
:- event hello/1.
:- dynamic greeted/2, anon/1.
hello(X) :- signed_by(S), assert(greeted(S, X)).
hello(X) :- assert(anon(X)).
"""
    ks = full_mesh_keystore(["n1", "n2"], seed=b"t")
    net = SimNetwork(seed=1)
    net.add_node(NodeConfig("n1", parse_program(src), keystore=ks))
    net.add_node(NodeConfig(
        "n2",
        parse_program(":- event go/0.\ngo :- send_signed(n1, hello(hi)).\n"),
        keystore=ks))
    net.inject_term(0, "n2", parse_term("go"))
    net.run_to_idle()
    assert net.holds("n1", "greeted(n2, hi)")
    assert not net.holds("n1", "anon(_)")


def test_unsigned_message_fails_signature_check():
    src = """
:- event hello/1.
:- dynamic greeted/1, anon/1.
hello(X) :- signed, assert(greeted(X)).
hello(X) :- assert(anon(X)).
"""
    ks = full_mesh_keystore(["n1", "injector"], seed=b"t")
    net = SimNetwork(seed=1)
    net.add_node(NodeConfig("n1", parse_program(src), keystore=ks))
    net.inject_term(0, "n1", parse_term("hello(x)"))
    net.run_to_idle()
    assert not net.holds("n1", "greeted(_)")
    assert net.holds("n1", "anon(x)")


def test_signature_verified_once_per_handler():
    src = """
:- event hello/0.
:- dynamic n/1.
hello :- signed, signed, signed_by(_), assert(n(1)).
"""
    ks = full_mesh_keystore(["n1", "injector"], seed=b"t")
    net = SimNetwork(seed=1)
    net.add_node(NodeConfig("n1", parse_program(src), keystore=ks))
    net.inject_term(0, "n1", parse_term("hello"), keystore=ks)
    before = ks.verify_calls
    net.run_to_idle()
    assert net.holds("n1", "n(1)")
    assert ks.verify_calls == before + 1  # cached after the first check


def test_no_verification_when_handler_never_asks():
    src = ":- event hello/0.\n:- dynamic n/1.\nhello :- assert(n(1)).\n"
    ks = full_mesh_keystore(["n1", "injector"], seed=b"t")
    net = SimNetwork(seed=1)
    net.add_node(NodeConfig("n1", parse_program(src), keystore=ks))
    net.inject_term(0, "n1", parse_term("hello"), keystore=ks)
    net.run_to_idle()
    assert ks.verify_calls == 0


def test_send_signed_without_key_is_auth_error():
    src = ":- event go/0.\ngo :- send_signed(n1, hi).\n"
    net, node = make_net(src)
    net.inject_term(0, "n1", parse_term("go"))
    net.run_to_idle()
    assert net.trace[0].outcome == "error:auth"


def test_bad_payload_counts_decode_error():
    net, node = make_net()
    net.inject(0, "n1", Envelope("x", b"\xff\xfe", None, "network"))
    net.run_to_idle()
    assert node.metrics.decode_errors == 1


def test_dump_facts():
    net, node = make_net()
    net.inject_term(0, "n1", parse_term("ping(b)"))
    net.inject_term(1, "n1", parse_term("ping(a)"))
    net.run_to_idle()
    assert node.dump_facts("seen", 1) == "seen(b)\nseen(a)"
    assert node.dump_facts("seen", 2) == ""


def test_digest_id_builtin_is_stable():
    src = """
:- event go/0.
:- dynamic val/1.
go :- digest_id(hello, X), assert(val(X)).
"""
    net, _ = make_net(src)
    net.inject_term(0, "n1", parse_term("go"))
    net.run_to_idle()
    vals = net.query_all("n1", "val(X)")
    from logicnode.auth import digest_int
    from logicnode.terms import Atom
    assert [v["X"].value for v in vals] == [digest_int(serialize(Atom("hello")))]
