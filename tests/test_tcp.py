import re
import socket
import struct
import threading
import time
from collections import deque

import pytest

from logicnode import tcp
from logicnode.cli import EXIT_RUNTIME, EXIT_USAGE, main as cli_main
from logicnode.reader import Clause, parse_program, parse_term, serialize
from logicnode.runtime import NodeConfig, start_node
from logicnode.tcp import INBOX_LIMIT, TcpTransport, split_hostport
from logicnode.terms import Atom, Int, Struct
from logicnode.wire import MAX_FRAME_BYTES, Envelope, StreamDecoder, encode_envelope

from test_runtime import DEEP_SRC, HOSTILE_PAYLOADS

COUNT_SRC = """
:- event ping/1.
:- alarm tick/0.
:- dynamic seen/1, ticks/1.
ticks(0).

ping(X) :- assert(seen(X)).
tick :- retract(ticks(N)), M is N + 1, assert(ticks(M)).
"""

_PORT = [21500]


def fresh_addr() -> str:
    _PORT[0] += 1
    return "127.0.0.1:%d" % _PORT[0]


@pytest.fixture
def server():
    addr = fresh_addr()
    transport = TcpTransport(addr)
    node = start_node(NodeConfig(addr, parse_program(COUNT_SRC)), transport)
    transport.start()
    yield addr, node, transport
    transport.stop()


def start_server(src: str = COUNT_SRC):
    addr = fresh_addr()
    transport = TcpTransport(addr)
    node = start_node(NodeConfig(addr, parse_program(src)), transport)
    return addr, node, transport, transport.start()


def ping_frame(arg: str) -> bytes:
    return encode_envelope(Envelope("tester", serialize(parse_term("ping(%s)" % arg))))


def wait_for(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.01)
    return False


def send_raw(addr: str, data: bytes, read_reply: bool = False) -> bytes:
    with socket.create_connection(split_hostport(addr), timeout=5) as s:
        s.sendall(data)
        if not read_reply:
            time.sleep(0.05)
            return b""
        s.settimeout(5)
        dec = StreamDecoder()
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return b""
            got = dec.feed(chunk)
            if got:
                return got[0].payload


def test_split_hostport():
    assert split_hostport("127.0.0.1:8000") == ("127.0.0.1", 8000)
    with pytest.raises(ValueError):
        split_hostport("nocolon")


def test_delivery_over_tcp(server):
    addr, node, _ = server
    frame = encode_envelope(Envelope("tester", serialize(parse_term("ping(a)"))))
    send_raw(addr, frame)
    assert wait_for(lambda: node.metrics.delivered == 1)
    assert node.dump_facts("seen", 1) == "seen(a)"


def test_split_frames_across_writes(server):
    addr, node, _ = server
    frame = encode_envelope(Envelope("tester", serialize(parse_term("ping(b)"))))
    with socket.create_connection(split_hostport(addr), timeout=5) as s:
        for i in range(len(frame)):
            s.sendall(frame[i:i + 1])
            time.sleep(0.001)
    assert wait_for(lambda: node.metrics.delivered == 1)


def test_many_frames_one_write(server):
    addr, node, _ = server
    frames = b"".join(
        encode_envelope(Envelope("tester", serialize(parse_term("ping(%d)" % i))))
        for i in range(20))
    send_raw(addr, frames)
    assert wait_for(lambda: node.metrics.delivered == 20)


FWD_SRC = COUNT_SRC + """
:- event fwd/1.
fwd(Peer) :- send(Peer, ping(x)).
"""


def test_outbound_connection_reuse():
    # five handlers, one per pass, send to the same peer
    addr, node, transport, _ = start_server(FWD_SRC)
    peer_addr, peer, peer_transport, _ = start_server()
    try:
        for i in range(5):
            send_raw(addr, encode_envelope(Envelope("t", b"fwd('%s')" % peer_addr.encode())))
            assert wait_for(lambda: peer.metrics.delivered == i + 1)
        assert transport.connections_opened == 1
    finally:
        transport.stop()
        peer_transport.stop()


def test_send_to_dead_peer_raises_link_error():
    addr = fresh_addr()
    transport = TcpTransport(addr)  # not running: the test thread may send
    start_node(NodeConfig(addr, parse_program(COUNT_SRC)), transport)
    from logicnode.runtime import LinkError
    try:
        with pytest.raises(LinkError):
            transport.send("x", "127.0.0.1:1", Envelope("x", b"hi"))
    finally:
        transport.stop()


@pytest.mark.parametrize("policy, outcome", [("fail", "failure"), ("throw", "error:send")])
def test_send_to_a_malformed_address_follows_the_policy(policy, outcome):
    addr = fresh_addr()
    transport = TcpTransport(addr)  # not running: the test thread dispatches
    src = ":- event go/1.\ngo(D) :- send(D, hi).\n"
    node = start_node(NodeConfig(addr, parse_program(src), policy=policy), transport)
    try:
        for dest in ("foo", "'h:x'"):
            env = Envelope("t", serialize(parse_term("go(%s)" % dest)))
            assert node.dispatch(env)[0] == outcome
        assert node.metrics.internal_errors == 0
    finally:
        transport.stop()


def test_alarm_fires_on_wall_clock(server):
    addr, node, transport = server
    transport.schedule_alarm(addr, 30, Envelope(addr, serialize(parse_term("tick")), None, "alarm"))
    assert wait_for(lambda: "ticks(1)" in node.dump_facts("ticks", 1))


DUMP_SEEN = encode_envelope(Envelope("tester", serialize(parse_term("'$dump'(seen, 1)"))))


def read_to_eof(addr: str, data: bytes) -> bytes:
    with socket.create_connection(split_hostport(addr), timeout=5) as s:
        s.sendall(data)
        got = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return got
            got += chunk


def test_dump_endpoint_round_trip(server):
    addr, node, _ = server
    send_raw(addr, ping_frame("q"))
    assert wait_for(lambda: node.metrics.delivered == 1)
    # the node closes the connection after its reply
    assert read_to_eof(addr, DUMP_SEEN) == encode_envelope(Envelope(addr, b"seen(q)"))


@pytest.mark.parametrize("after, replied", [
    (DUMP_SEEN, True),  # a second request gets no reply of its own
    (b"\xff\xff\xff\xff", False),  # bad framing drops the connection first
], ids=["second_request", "bad_framing"])
def test_a_dump_connection_answers_one_request_at_most(server, after, replied):
    addr, node, _ = server
    send_raw(addr, ping_frame("q"))
    assert wait_for(lambda: node.metrics.delivered == 1)
    assert read_to_eof(addr, DUMP_SEEN + after) == (
        encode_envelope(Envelope(addr, b"seen(q)")) if replied else b"")
    send_raw(addr, ping_frame("r"))
    assert wait_for(lambda: node.metrics.delivered == 2)
    assert node.metrics.internal_errors == 0


@pytest.mark.parametrize("reply", [
    struct.pack(">I", MAX_FRAME_BYTES + 1),  # a length prefix over the limit
    encode_envelope(Envelope("n", b"\xff\xfe")),  # a payload that is not UTF-8
], ids=["oversized", "not_utf8"])
def test_cli_dump_reports_a_broken_reply_as_a_runtime_error(reply, capsys):
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(reply)

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()
    try:
        addr = "127.0.0.1:%d" % listener.getsockname()[1]
        assert cli_main(["dump", addr, "seen/1"]) == EXIT_RUNTIME
    finally:
        server_thread.join(5)
        listener.close()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["run", "pingpong_server", "--bind", "nonsense"],
    ["run", "pingpong_server", "--bind", "127.0.0.1:99999"],
    ["inject", "nonsense", "ping"],
    ["dump", "nonsense", "p/1"],
    ["bench-pingpong", "--server", "127.0.0.1:port"],
    ["bench-pingpong", "--client", "127.0.0.1:1", "--bind", "127.0.0.1:-1"],
])
def test_cli_reports_a_malformed_address_as_a_usage_error(argv, capsys):
    assert cli_main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: address must be host:port"), err


def test_dump_endpoint_can_be_disabled():
    addr = fresh_addr()
    transport = TcpTransport(addr)
    node = start_node(
        NodeConfig(addr, parse_program(COUNT_SRC), debug_endpoint=False), transport)
    transport.start()
    try:
        req = encode_envelope(Envelope("t", serialize(parse_term("'$dump'(seen, 1)"))))
        with socket.create_connection(split_hostport(addr), timeout=2) as s:
            s.sendall(req)
            s.settimeout(0.5)
            with pytest.raises(socket.timeout):
                s.recv(4096)
    finally:
        transport.stop()


def big_dump_server():
    """A node whose big/2 lists 2,000 facts of 3 KB: a 6 MB `$dump` reply."""
    facts = [Clause(Struct("big", (Int(i), Atom("x" * 3000))), Atom("true"))
             for i in range(2000)]
    addr = fresh_addr()
    transport = TcpTransport(addr)
    node = start_node(NodeConfig(addr, parse_program(COUNT_SRC), facts=facts), transport)
    return addr, node, transport, transport.start()


def unread_dump_request(addr: str) -> socket.socket:
    """A connection that asks for big/2 and never reads the reply."""
    c = socket.socket()
    c.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    c.connect(split_hostport(addr))
    c.sendall(encode_envelope(Envelope("t", serialize(parse_term("'$dump'(big, 2)")))))
    return c


def test_a_dump_reply_that_is_never_read_delays_no_ping():
    addr, node, transport, loop = big_dump_server()
    client = unread_dump_request(addr)
    try:
        time.sleep(0.2)  # the node reads the request first
        t0 = time.monotonic()
        send_raw(addr, ping_frame("after"))
        assert wait_for(lambda: node.metrics.delivered == 1, timeout=10)
        assert time.monotonic() - t0 < 1.0
    finally:
        client.close()
        transport.stop()
        loop.join(timeout=5)  # its warning for the closed client is logged by now


def test_a_dump_client_that_closes_before_reading_costs_at_most_one_warning(caplog):
    addr, node, transport, loop = big_dump_server()
    try:
        with caplog.at_level("WARNING", logger="logicnode.tcp"):
            client = unread_dump_request(addr)
            assert wait_for(lambda: len(transport._queued) == 1)  # the reply waits
            client.close()
            assert wait_for(lambda: not transport._queued)
            send_raw(addr, ping_frame("after"))
            assert wait_for(lambda: node.metrics.delivered == 1)
        assert caplog.text.count("dropped") <= 1
        assert node.metrics.internal_errors == 0
        assert transport._queued_bytes == 0
    finally:
        transport.stop()
        loop.join(timeout=5)


def test_stop_closes_a_connection_whose_reply_is_still_queued():
    addr, node, transport, loop = big_dump_server()
    client = unread_dump_request(addr)
    try:
        assert wait_for(lambda: len(transport._queued) == 1)
        (conn,) = list(transport._queued)
        transport.stop()
        loop.join(timeout=5)
        assert not loop.is_alive()
        assert conn.fileno() == -1
    finally:
        client.close()


def test_double_bind_fails(server):
    addr, _, _ = server
    from logicnode.runtime import LinkError
    with pytest.raises(LinkError):
        TcpTransport(addr)


def test_garbage_bytes_only_drop_that_connection(server):
    addr, node, _ = server
    # a length prefix over the frame cap drops the connection at once
    send_raw(addr, b"\xff\xff\xff\xff garbage")
    frame = encode_envelope(Envelope("tester", serialize(parse_term("ping(ok)"))))
    send_raw(addr, frame)
    assert wait_for(lambda: node.metrics.delivered == 1)


def test_frame_before_a_bad_one_in_the_same_write_is_delivered(server):
    addr, node, _ = server
    send_raw(addr, ping_frame("ok") + b"\xff\xff\xff\xff")
    assert wait_for(lambda: node.metrics.delivered == 1)


FLOOD_SRC = """
:- event go/1, blob/1.
go(Peer) :- pad(X), sendall(Peer, n(_), blob(X)).
blob(_).
pad(%s).
""" % ("x" * 2000) + "".join("n(%d).\n" % i for i in range(3000))


def test_mutual_flood_delivers_everything():
    # each handler sends about 6 MB to the other, more than both sockets
    # buffer: the frames wait in the queues while both nodes read and write
    (a, na, ta, _), (b, nb, tb, _) = start_server(FLOOD_SRC), start_server(FLOOD_SRC)
    inboxes = ta._inbox, tb._inbox = _PeakDeque(), _PeakDeque()  # loops idle in select
    blob = encode_envelope(Envelope(a, serialize(parse_term("blob(%s)" % ("x" * 2000)))))
    try:
        send_raw(a, encode_envelope(Envelope("t", serialize(parse_term("go('%s')" % b)))))
        send_raw(b, encode_envelope(Envelope("t", serialize(parse_term("go('%s')" % a)))))
        assert wait_for(lambda: na.metrics.delivered == nb.metrics.delivered == 3001,
                        timeout=60), (na.metrics, nb.metrics)
        assert na.metrics.sends == nb.metrics.sends == 3000
        per_read = 65536 // len(blob)  # the most frames one read can add
        assert max(inbox.peak for inbox in inboxes) <= INBOX_LIMIT + per_read, (
            [inbox.peak for inbox in inboxes])
    finally:
        ta.stop()
        tb.stop()


@pytest.mark.parametrize("name", sorted(HOSTILE_PAYLOADS))
def test_node_serves_pings_after_a_hostile_frame(server, name):
    addr, node, _ = server
    send_raw(addr, encode_envelope(Envelope("tester", HOSTILE_PAYLOADS[name])))
    send_raw(addr, ping_frame("ok"))
    assert wait_for(lambda: node.metrics.delivered == 1)
    assert node.metrics.decode_errors == 1
    req = encode_envelope(Envelope("tester", serialize(parse_term("'$dump'(seen, 1)"))))
    assert send_raw(addr, req, read_reply=True) == b"seen(ok)"


def test_node_serves_pings_after_dumping_a_deeply_nested_fact():
    addr, node, transport, _ = start_server(COUNT_SRC + DEEP_SRC)
    try:
        send_raw(addr, encode_envelope(Envelope("tester", b"deep_fact(5000)")))
        assert wait_for(lambda: node.metrics.delivered == 1)
        req = encode_envelope(Envelope("tester", serialize(parse_term("'$dump'(deep, 1)"))))
        assert send_raw(addr, req, read_reply=True) == (
            b"deep(" + b"f(" * 5000 + b"a" + b")" * 5001)
        send_raw(addr, ping_frame("after"))
        assert wait_for(lambda: node.metrics.delivered == 2)
        assert node.dump_facts("seen", 1) == "seen(after)"
    finally:
        transport.stop()


SPIN_SRC = COUNT_SRC + """
:- event spin/0.
count_to(N, N).
count_to(I, N) :- I < N, J is I + 1, count_to(J, N).
spin :- count_to(0, 50000).
"""


class _PeakDeque(deque):
    def __init__(self):
        super().__init__()
        self.peak = 0

    def append(self, item):
        super().append(item)
        self.peak = max(self.peak, len(self))


def test_flooding_peers_cannot_grow_the_inbox_past_the_bound():
    addr, node, transport, _ = start_server(SPIN_SRC)
    inbox = transport._inbox = _PeakDeque()  # the loop is idle in select
    frame = ping_frame("0")
    per_read = 65536 // len(frame)  # the most frames one read can add
    burst = frame * (per_read // 2)
    conns = [socket.create_connection(split_hostport(addr), timeout=5) for _ in range(8)]
    try:
        for c in conns:
            c.sendall(frame)
        assert wait_for(lambda: node.metrics.delivered == len(conns))
        # while the node spins, every connection queues a burst; then they
        # are all ready at once
        conns[0].sendall(encode_envelope(Envelope("tester", b"spin")))
        time.sleep(0.05)
        for c in conns:
            c.sendall(burst)
        total = len(conns) * (1 + per_read // 2) + 1  # the spin too
        assert wait_for(lambda: node.metrics.delivered == total, timeout=60)
        assert inbox.peak <= INBOX_LIMIT + per_read, inbox.peak
    finally:
        for c in conns:
            c.close()
        transport.stop()


def test_one_thread_serves_every_connection():
    before = set(threading.enumerate())
    addr, node, transport, loop = start_server()
    conns = [socket.create_connection(split_hostport(addr), timeout=5) for _ in range(20)]
    try:
        for i, c in enumerate(conns):
            c.sendall(ping_frame(str(i)))
        assert wait_for(lambda: node.metrics.delivered == 20)
        assert set(threading.enumerate()) - before == {loop}
    finally:
        for c in conns:
            c.close()
        transport.stop()


def test_stalled_connection_does_not_delay_others(server):
    addr, node, _ = server
    frame = ping_frame("late")
    with socket.create_connection(split_hostport(addr), timeout=5) as stalled:
        stalled.sendall(frame[:len(frame) // 2])
        for i in range(10):
            send_raw(addr, ping_frame(str(i)))
        assert wait_for(lambda: node.metrics.delivered == 10, timeout=2.0)
        stalled.sendall(frame[len(frame) // 2:])
        assert wait_for(lambda: node.metrics.delivered == 11)


def test_connections_past_the_limit_are_closed(monkeypatch):
    monkeypatch.setattr(tcp, "MAX_CONNECTIONS", 2)
    addr, node, transport, _ = start_server()
    first, second = (socket.create_connection(split_hostport(addr), timeout=5)
                     for _ in range(2))
    try:
        first.sendall(ping_frame("1"))
        second.sendall(ping_frame("2"))
        assert wait_for(lambda: node.metrics.delivered == 2)
        with socket.create_connection(split_hostport(addr), timeout=5) as third:
            assert third.recv(1) == b""  # closed by the node
        first.sendall(ping_frame("3"))
        second.sendall(ping_frame("4"))
        assert wait_for(lambda: node.metrics.delivered == 4)
    finally:
        first.close()
        second.close()
        transport.stop()


def test_stop_closes_every_socket():
    addr, node, transport, loop = start_server()
    with socket.create_connection(split_hostport(addr), timeout=5) as c:
        c.sendall(ping_frame("a"))
        assert wait_for(lambda: node.metrics.delivered == 1)
        transport.stop()
        loop.join(timeout=5)
        assert not loop.is_alive()
        assert c.recv(1) == b""
    TcpTransport(addr).stop()  # the address is free again


# --- sends are queued per peer and written once tcp.WRITE_BYTES are queued and
# after the pass, as the socket takes them ---

PONG_SRC = """
:- event ping/2, go/1, fan/3, flood/1, burst/1, later/1.
:- alarm beep/1.
ping(From, Pad) :- send(From, pong(Pad)).
go(To) :- send(To, a), send(To, b), send(To, c).
fan(P, Q, R) :- send(P, x), send(Q, x), send(R, x).
flood(To) :- pad(X), sendall(To, n(I), blob(I, X)), hold.
burst(To) :- sendall(To, k(I), pong(I)), hold.
later(To) :- alarm(beep(To), 20).
beep(To) :- send(To, beeped).
pad(%s).
""" % ("x" * 2000) + "".join("n(%d).\n" % i for i in range(40)) + "".join(
    "k(%d).\n" % i for i in range(100))


def raw_listener():
    s = socket.create_server(("127.0.0.1", 0))
    s.settimeout(5)
    return s, "127.0.0.1:%d" % s.getsockname()[1]


def read_payloads(listener, n: int) -> list:
    """Accept connections in turn until n envelopes are read; their payloads."""
    got: list = []
    while len(got) < n:
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            dec = StreamDecoder()
            while len(got) < n:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                got += [env.payload for env in dec.feed(chunk)]
    return got


def test_replies_to_one_batch_take_a_write_per_write_bytes_and_one_per_pass(monkeypatch):
    writes = []  # each pump is one socket write
    passes = [0]  # passes that dispatch something
    pump, poll = TcpTransport._pump, TcpTransport._poll

    def counting(self, peer):
        writes.append(len(self._queued[peer][0]))
        return pump(self, peer)

    def counting_passes(self, timeout):
        poll(self, timeout)
        passes[0] += bool(self._inbox)

    monkeypatch.setattr(TcpTransport, "_pump", counting)
    monkeypatch.setattr(TcpTransport, "_poll", counting_passes)
    listener, client = raw_listener()
    addr, node, transport, _ = start_server(PONG_SRC)
    try:
        pings = b"".join(
            encode_envelope(Envelope(client, b"ping('%s', %d)" % (client.encode(), i)))
            for i in range(100))
        send_raw(addr, pings)
        assert read_payloads(listener, 100) == [b"pong(%d)" % i for i in range(100)]
        queued = sum(len(encode_envelope(Envelope(addr, b"pong(%d)" % i)))
                     for i in range(100))
        # one write per reply, before batching, took 100
        assert len(writes) <= queued // tcp.WRITE_BYTES + passes[0], (writes, passes)
    finally:
        listener.close()
        transport.stop()


def test_a_pass_that_only_fires_alarms_writes_its_sends(monkeypatch):
    # with a long poll, a frame left queued after the alarm's pass would
    # wait for the next select to time out
    monkeypatch.setattr(tcp, "POLL_S", 2.0)
    listener, peer = raw_listener()
    addr, node, transport, _ = start_server(PONG_SRC)
    try:
        t0 = time.monotonic()
        send_raw(addr, encode_envelope(Envelope("t", b"later('%s')" % peer.encode())))
        assert read_payloads(listener, 1) == [b"beeped"]
        assert time.monotonic() - t0 < 1.0
    finally:
        listener.close()
        transport.stop()


@pytest.mark.parametrize("event, firsts", [
    ("flood", [b"blob(%d" % i for i in range(40)]),  # 40 blobs of 2 KB
    ("burst", [b"pong(%d)" % i for i in range(100)]),  # about 3 KiB of pongs
], ids=["flood", "burst"])
def test_a_handler_writes_before_its_pass_ends_once_write_bytes_are_queued(event, firsts):
    # the handler's sends pass tcp.WRITE_BYTES; it then holds until the
    # peer has read some of them
    released = threading.Event()
    listener, peer = raw_listener()
    addr = fresh_addr()
    transport = TcpTransport(addr)
    start_node(NodeConfig(addr, parse_program(PONG_SRC), extra_builtins={
        ("hold", 0): lambda solver, args: released.wait(10)}), transport)
    transport.start()
    try:
        send_raw(addr, encode_envelope(Envelope("t", b"%s('%s')" % (
            event.encode(), peer.encode()))))
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(3)
            dec = StreamDecoder()
            got = dec.feed(conn.recv(65536))  # times out if nothing is written yet
            released.set()
            while len(got) < len(firsts):
                got += dec.feed(conn.recv(65536))
        assert [env.payload.split(b",")[0] for env in got] == firsts
        assert sum(map(len, map(encode_envelope, got))) > tcp.WRITE_BYTES
    finally:
        released.set()
        listener.close()
        transport.stop()


def test_every_cached_outbound_socket_sets_tcp_nodelay():
    addr, node, transport, _ = start_server(FWD_SRC)
    peers = [start_server() for _ in range(2)]
    try:
        for peer_addr, peer, _, _ in peers:
            send_raw(addr, encode_envelope(Envelope("t", b"fwd('%s')" % peer_addr.encode())))
            assert wait_for(lambda: peer.metrics.delivered == 1)
        socks = list(transport._conns.values())
        assert len(socks) == 2
        assert all(s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for s in socks)
    finally:
        transport.stop()
        for _, _, peer_transport, _ in peers:
            peer_transport.stop()


class _BreaksAfter:
    """A connection that takes `n` bytes, then fails every write.  Its
    selector file is one end of a socket pair, which is always writable."""

    def __init__(self, n: int):
        self.left = n
        self.pair = socket.socketpair()

    def fileno(self) -> int:
        return self.pair[0].fileno()

    def send(self, data) -> int:
        if not self.left:
            raise ConnectionResetError("connection reset")
        took = min(self.left, len(data))
        self.left -= took
        return took

    def recv(self, n: int, flags: int = 0) -> bytes:
        raise BlockingIOError  # still open, nothing to read

    def close(self):
        for s in self.pair:
            s.close()


def test_a_failed_write_resends_only_the_frames_not_taken_whole():
    listener, peer = raw_listener()
    addr, node, transport, _ = start_server(PONG_SRC)
    frame_a = encode_envelope(Envelope(addr, b"a"))
    # the loop is idle in select: the old connection takes a and part of b
    transport._conns[peer] = _BreaksAfter(len(frame_a) + 3)
    try:
        send_raw(addr, encode_envelope(Envelope("t", b"go('%s')" % peer.encode())))
        assert read_payloads(listener, 2) == [b"b", b"c"]
        assert node.metrics.sends == 3
    finally:
        listener.close()
        transport.stop()


def test_a_write_that_fails_twice_is_logged_and_the_node_goes_on(caplog):
    gone, peer = raw_listener()
    gone.close()  # the reconnect is refused
    addr, node, transport, _ = start_server(PONG_SRC)
    transport._conns[peer] = _BreaksAfter(0)
    listener, client = raw_listener()
    try:
        with caplog.at_level("WARNING", logger="logicnode.tcp"):
            send_raw(addr, encode_envelope(Envelope("t", b"go('%s')" % peer.encode())))
            assert wait_for(lambda: "dropped 3 frames to %s" % peer in caplog.text)
        send_raw(addr, encode_envelope(
            Envelope(client, b"ping('%s', 1)" % client.encode())))
        assert read_payloads(listener, 1) == [b"pong(1)"]
        assert node.metrics.delivered == 2
    finally:
        listener.close()
        transport.stop()


RESTART_SRC = """
:- event go/2.
go(P, X) :- send(P, X).
"""


def test_a_peer_that_restarts_loses_no_message():
    # the peer closes the cached connection and listens again: a write into
    # the closed connection would succeed, and the message would be lost
    listener, peer = raw_listener()
    addr, node, transport, _ = start_server(RESTART_SRC)
    try:
        for i, msg in enumerate([b"m1", b"m2", b"m3", b"m4"]):
            if i == 1:
                assert read_payloads(listener, 1) == [b"m1"]  # then closes it
                listener.close()
                listener = socket.create_server(split_hostport(peer))
                listener.settimeout(5)
            send_raw(addr, encode_envelope(Envelope("t", b"go('%s', %s)" % (
                peer.encode(), msg))))
            assert wait_for(lambda: node.metrics.delivered == i + 1)
        assert read_payloads(listener, 3) == [b"m2", b"m3", b"m4"]
        assert node.metrics.sends == 4
    finally:
        listener.close()
        transport.stop()


def test_outbound_cache_evicts_the_least_recently_used_peer(monkeypatch, caplog):
    monkeypatch.setattr(tcp, "MAX_CONNECTIONS", 2)  # inbound too: one client
    (l1, p1), (l2, p2), (l3, p3) = (raw_listener() for _ in range(3))
    addr, node, transport, _ = start_server(PONG_SRC)
    client = socket.create_connection(split_hostport(addr), timeout=5)
    try:
        with caplog.at_level("WARNING", logger="logicnode.tcp"):
            # one send per pass, to p1, p2, p1, p3: p2 is the least recently used
            for i, peer in enumerate([p1, p2, p1, p3]):
                client.sendall(encode_envelope(
                    Envelope("t", b"ping('%s', %d)" % (peer.encode(), i))))
                assert wait_for(lambda: node.metrics.delivered == i + 1)
            assert list(transport._conns) == [p1, p3]
            assert transport.connections_opened == 3
            # three sends in one pass: each evicts a peer with a queued frame
            client.sendall(encode_envelope(Envelope("t", b"fan('%s', '%s', '%s')" % (
                p1.encode(), p2.encode(), p3.encode()))))
            assert read_payloads(l1, 3) == [b"pong(0)", b"pong(2)", b"x"]
            assert read_payloads(l2, 2) == [b"pong(1)", b"x"]
            assert read_payloads(l3, 2) == [b"pong(3)", b"x"]
        assert "dropped" not in caplog.text
        assert node.metrics.sends == 7
    finally:
        client.close()
        for listener in (l1, l2, l3):
            listener.close()
        transport.stop()


SPRAY_SRC = COUNT_SRC + """
:- event spray/1.
spray(To) :- pad(X), sendall(To, n(_), blob(X)).
pad(%s).
""" % ("x" * 2000) + "".join("n(%d).\n" % i for i in range(10000))


def test_a_peer_that_never_reads_delays_no_other_message(monkeypatch, caplog):
    # a handler sends about 20 MB to a sink that accepts and never reads;
    # the queues hold at most tcp.QUEUE_LIMIT bytes and the pings that come
    # in meanwhile are served at once
    monkeypatch.setattr(tcp, "QUEUE_LIMIT", 256 * 1024)
    sink = socket.socket()
    sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sink.bind(("127.0.0.1", 0))
    sink.listen(1024)  # the kernel accepts every connection; nothing reads
    sink_addr = "127.0.0.1:%d" % sink.getsockname()[1]
    peaks = []
    send = TcpTransport.send

    def recording(self, frm, to, env):
        send(self, frm, to, env)
        peaks.append(self._queued_bytes)

    monkeypatch.setattr(TcpTransport, "send", recording)
    addr, node, transport, _ = start_server(SPRAY_SRC)
    try:
        with caplog.at_level("WARNING", logger="logicnode.tcp"):
            send_raw(addr, encode_envelope(Envelope("t", b"spray('%s')" % sink_addr.encode())))
            with socket.create_connection(split_hostport(addr), timeout=5) as c:
                c.sendall(b"".join(ping_frame(str(i)) for i in range(20)))
                assert wait_for(lambda: node.metrics.delivered == 21, timeout=2.0), (
                    node.metrics)
            assert wait_for(lambda: node.metrics.sends == 10000, timeout=30)
        assert re.search(r"dropped \d+ frames to %s" % re.escape(sink_addr), caplog.text)
        assert max(peaks) <= tcp.QUEUE_LIMIT
    finally:
        transport.stop()
        sink.close()
