import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicnode import reader, runtime
from logicnode.auth import full_mesh_keystore
from logicnode.engine import EngineError, SolveLimits
from logicnode.reader import MAX_DEPTH, parse_program, parse_term, serialize
from logicnode.runtime import NodeConfig
from logicnode.sim import SimNetwork
from logicnode.wire import (
    Envelope, FrameError, StreamDecoder, decode_frame, encode_envelope)


ECHO_SRC = """
:- event ping/1, poke/0.
:- alarm tick/0.
:- dynamic seen/1, ticked/0.

ping(X) :- assert(seen(X)).
poke :- this_node(Me), send(Me, ping(self)).
tick :- assert(ticked).
"""


# payloads a peer can send that overflowed the interpreter before the
# reader's caps: nesting, operator chains and long integer literals
HOSTILE_PAYLOADS = {
    "nested": b"ping(c, " + b"f(" * 2000 + b"a" + b")" * 2000 + b")",
    "commas": b"ping(c, (a" + b",a" * 2000 + b"))",
    "digits": b"ping(c, " + b"9" * 5000 + b")",
    "superscript_digit": "ping(c, ²)".encode(),
}


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


def test_a_dispatch_writes_only_its_reply_as_text(monkeypatch):
    calls = []

    def counted(t, names=None, _orig=reader.term_text):
        calls.append(t)
        return _orig(t, names)

    monkeypatch.setattr(reader, "term_text", counted)
    monkeypatch.setattr(runtime, "term_text", counted)
    net, node = make_net()
    assert node.dispatch(Envelope("x", b"poke"))[::2] == ("success", 1)
    assert len(calls) == 1


def _best_dispatch_s(payload: bytes) -> float:
    """Best of three: seconds to dispatch payload to `m(_).`"""
    net, node = make_net(":- event m/1.\nm(_).\n")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        assert node.dispatch(Envelope("x", payload))[0] == "success"
        best = min(best, time.perf_counter() - t0)
    return best


def test_dispatch_is_linear_in_the_variables_of_its_message():
    # 8x the variables is about 8x the time when linear; 24x leaves margin
    small, large = (_best_dispatch_s(b"m([%s])" % b", ".join(b"X%d" % i for i in range(n)))
                    for n in (2_000, 16_000))
    assert large < 24 * small, (small, large)


def test_the_trace_shows_the_canonical_text_of_a_payload():
    net, node = make_net()
    net.inject(0, "n1", Envelope("x", b"ping( 'a' )"))
    net.run_to_idle()
    assert net.trace_lines()[0] == (
        "t=0 seq=0 node=n1 origin=network term=ping(a) outcome=success sends=0")


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


def test_sendall_checks_each_destination_when_it_sends():
    src = """
:- event go/0, m/1.
d(b). d(c). d(_).
go :- sendall(D, d(D), m(D)).
m(_).
"""
    net = SimNetwork(seed=1)
    for addr in ("n1", "b", "c"):
        net.add_node(NodeConfig(addr, parse_program(src)))
    net.inject_term(0, "n1", parse_term("go"))
    net.run_to_idle()
    assert [(r.node, r.term, r.outcome, r.sends) for r in net.trace] == [
        ("n1", "go", "error:type", 2),
        ("b", "m(b)", "success", 0),
        ("c", "m(c)", "success", 0)]


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


def test_frame_naming_another_algorithm_is_unsigned():
    src = """
:- event hello/0.
:- dynamic n/1.
hello :- signed, assert(n(signed)).
hello :- assert(n(unsigned)).
"""
    ks = full_mesh_keystore(["n1", "a"], seed=b"t")
    payload = b"hello"
    frame = bytearray(encode_envelope(
        Envelope("a", payload, ks.sign("a", "n1", b"a", payload))))
    assert frame[8] == 1  # after length, flags, sender length and sender "a"
    frame[8] = 9
    env, _ = decode_frame(bytes(frame))
    assert env.payload == payload
    net, node = make_net(src, keystore=ks)
    assert node.dispatch(env)[0] == "success"
    assert node.dump_facts("n", 1) == "n(unsigned)"
    frame[8] = 1  # the same MAC under algorithm 1 verifies
    assert node.dispatch(decode_frame(bytes(frame))[0])[0] == "success"
    assert node.dump_facts("n", 1) == "n(unsigned)\nn(signed)"


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


@pytest.mark.parametrize("name", sorted(HOSTILE_PAYLOADS))
def test_hostile_payload_is_a_decode_error(name):
    net, node = make_net()
    outcome, _, _ = node.dispatch(Envelope("x", HOSTILE_PAYLOADS[name]))
    assert outcome == "decode_error"
    assert node.metrics.decode_errors == 1


_TERM_CHARS = "pingf(a),[]|+-*/\\ '0123456789_XY;:=<>.!é²١"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64),
       st.lists(st.tuples(st.sampled_from(["", "ping(", "ping(c, "]),
                          st.text(alphabet=_TERM_CHARS, max_size=40)), max_size=4))
def test_no_bytes_from_a_peer_escape_the_node(noise, texts):
    net, node = make_net()
    decoder = StreamDecoder()
    envelopes = decoder.feed(b"".join(
        encode_envelope(Envelope("x", (head + body).encode())) for head, body in texts))
    try:
        envelopes += decoder.feed(noise)
    except FrameError:
        pass
    for env in envelopes:
        assert node.dispatch(env)[0] != "error:internal"


def test_term_nested_to_the_cap_is_handled():
    src = """
:- event keep/1.
:- dynamic kept/1.
keep(X) :- assert(kept(X)), this_node(Me), send(Me, X).
"""
    net, node = make_net(src)
    deep = "f(" * (MAX_DEPTH - 2) + "a" + ")" * (MAX_DEPTH - 2)
    outcome, _, sends = node.dispatch(Envelope("x", b"keep(%s)" % deep.encode()))
    assert (outcome, sends) == ("success", 1)
    assert node.dump_facts("kept", 1) == "kept(%s)" % deep


DEEP_SRC = """
:- event deep_send/1, deep_sum/1, deep_fact/1.
:- dynamic sum/1, deep/1.
nest(0, T, T).
nest(N, A, T) :- N > 0, M is N - 1, nest(M, f(A), T).
plus(0, E, E).
plus(N, A, E) :- N > 0, M is N - 1, plus(M, A + 1, E).
deep_send(N) :- nest(N, a, T), this_node(Me), send(Me, got(T)).
deep_sum(N) :- plus(N, 0, E), S is E, assert(sum(S)).
deep_fact(N) :- nest(N, a, T), assert(deep(T)).
"""


def test_handler_sends_a_term_nested_past_the_recursion_limit():
    net, node = make_net(DEEP_SRC)
    assert node.dispatch(Envelope("x", b"deep_send(5000)"))[::2] == ("success", 1)


def test_handler_evaluates_an_expression_nested_past_the_recursion_limit():
    net, node = make_net(DEEP_SRC)
    assert node.dispatch(Envelope("x", b"deep_sum(5000)"))[0] == "success"
    assert node.dump_facts("sum", 1) == "sum(5000)"


def test_dump_facts_writes_a_fact_nested_past_the_recursion_limit():
    net, node = make_net(DEEP_SRC)
    assert node.dispatch(Envelope("x", b"deep_fact(5000)"))[0] == "success"
    assert node.dump_facts("deep", 1) == "deep(%sa%s)" % ("f(" * 5000, ")" * 5000)


def test_extra_builtin_does_not_replace_unification():
    def never(solver, args):
        return False

    src = ":- event go/0.\n:- dynamic done/1.\ngo :- X = a, assert(done(X)).\n"
    net, node = make_net(src, extra_builtins={("=", 2): never})
    assert node.dispatch(Envelope("x", b"go"))[0] == "success"
    assert node.dump_facts("done", 1) == "done(a)"


def test_unexpected_exception_is_an_internal_error():
    def explode(solver, args):
        return 1 // 0

    src = ":- event go/0, ok/0.\n:- dynamic fine/0.\ngo :- explode.\nok :- assert(fine).\n"
    net, node = make_net(src, extra_builtins={("explode", 0): explode})
    assert node.dispatch(Envelope("x", b"go")) == ("error:internal", None, 0)
    assert node.metrics.internal_errors == 1
    assert node.dispatch(Envelope("x", b"ok"))[0] == "success"
    assert net.holds("n1", "fine")


COUNT_SRC = """
:- event go/0, boom/0.
count_to(N, N).
count_to(I, N) :- I < N, J is I + 1, count_to(J, N).
go :- count_to(0, 100).
boom :- X = a, explode(X).
"""


def _explode(solver, args):
    return 1 // 0


def test_the_step_budget_is_per_dispatch_on_one_solver():
    _, probe = make_net(COUNT_SRC)
    assert probe.dispatch(Envelope("x", b"go"))[0] == "success"
    steps = probe.solver.steps
    _, node = make_net(COUNT_SRC, limits=SolveLimits(max_steps=steps * 10 // 6))
    solver = node.solver
    for _ in range(2):  # each uses 60% of the budget
        assert node.dispatch(Envelope("x", b"go"))[0] == "success"
        assert node.solver is solver and solver.steps == steps


def test_the_trail_is_empty_after_a_handler_error():
    _, node = make_net(COUNT_SRC, limits=SolveLimits(max_steps=50),
                       extra_builtins={("explode", 1): _explode})
    assert node.dispatch(Envelope("x", b"go"))[0] == "error:step_limit"
    assert node.solver.trail == []
    assert node.dispatch(Envelope("x", b"boom"))[0] == "error:internal"
    assert node.solver.trail == []


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
