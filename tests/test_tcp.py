import socket
import threading
import time
from collections import deque

import pytest

from logicnode import tcp
from logicnode.reader import parse_program, parse_term, serialize
from logicnode.runtime import NodeConfig, start_node
from logicnode.tcp import INBOX_LIMIT, TcpTransport, split_hostport
from logicnode.wire import Envelope, StreamDecoder, encode_envelope

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


def test_outbound_connection_reuse(server):
    addr, node, transport = server
    peer_addr = fresh_addr()
    peer_transport = TcpTransport(peer_addr)
    peer = start_node(NodeConfig(peer_addr, parse_program(COUNT_SRC)), peer_transport)
    peer_transport.start()
    try:
        env = Envelope(addr, serialize(parse_term("ping(x)")))
        for _ in range(5):
            transport.send(addr, peer_addr, env)
        assert wait_for(lambda: peer.metrics.delivered == 5)
        assert transport.connections_opened == 1
    finally:
        peer_transport.stop()


def test_send_to_dead_peer_raises_link_error(server):
    _, _, transport = server
    from logicnode.runtime import LinkError
    with pytest.raises(LinkError):
        transport.send("x", "127.0.0.1:1", Envelope("x", b"hi"))


def test_alarm_fires_on_wall_clock(server):
    addr, node, transport = server
    transport.schedule_alarm(addr, 30, Envelope(addr, serialize(parse_term("tick")), None, "alarm"))
    assert wait_for(lambda: "ticks(1)" in node.dump_facts("ticks", 1))


def test_dump_endpoint_round_trip(server):
    addr, node, _ = server
    frame = encode_envelope(Envelope("tester", serialize(parse_term("ping(q)"))))
    send_raw(addr, frame)
    assert wait_for(lambda: node.metrics.delivered == 1)
    req = encode_envelope(Envelope("tester", serialize(parse_term("'$dump'(seen, 1)"))))
    assert send_raw(addr, req, read_reply=True) == b"seen(q)"


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
    # buffer: a node must keep reading while its own send waits
    (a, na, ta, _), (b, nb, tb, _) = start_server(FLOOD_SRC), start_server(FLOOD_SRC)
    try:
        send_raw(a, encode_envelope(Envelope("t", serialize(parse_term("go('%s')" % b)))))
        send_raw(b, encode_envelope(Envelope("t", serialize(parse_term("go('%s')" % a)))))
        assert wait_for(lambda: na.metrics.delivered == nb.metrics.delivered == 3001,
                        timeout=60), (na.metrics, nb.metrics)
        assert na.metrics.sends == nb.metrics.sends == 3000
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


# --- sends during a pass are queued per peer and written after it ---

PONG_SRC = """
:- event ping/2, go/1, flood/1, later/1.
:- alarm beep/1.
ping(From, Pad) :- send(From, pong(Pad)).
go(To) :- send(To, a), send(To, b), send(To, c).
flood(To) :- pad(X), sendall(To, n(I), blob(I, X)), hold.
later(To) :- alarm(beep(To), 20).
beep(To) :- send(To, beeped).
pad(%s).
""" % ("x" * 2000) + "".join("n(%d).\n" % i for i in range(40))


def raw_listener():
    s = socket.create_server(("127.0.0.1", 0))
    s.settimeout(5)
    return s, "127.0.0.1:%d" % s.getsockname()[1]


def read_payloads(listener, n: int) -> list:
    """Accept one connection and read n envelopes from it; their payloads."""
    conn, _ = listener.accept()
    with conn:
        conn.settimeout(5)
        dec, got = StreamDecoder(), []
        while len(got) < n:
            chunk = conn.recv(65536)
            if not chunk:
                break
            got += [env.payload for env in dec.feed(chunk)]
        return got


def test_replies_to_one_batch_leave_in_one_write(monkeypatch):
    writes = []
    sendall = TcpTransport._sendall

    def counting(self, sock, data):
        writes.append(len(data))
        return sendall(self, sock, data)

    monkeypatch.setattr(TcpTransport, "_sendall", counting)
    listener, client = raw_listener()
    addr, node, transport, _ = start_server(PONG_SRC)
    try:
        pings = b"".join(
            encode_envelope(Envelope(client, b"ping('%s', %d)" % (client.encode(), i)))
            for i in range(100))
        send_raw(addr, pings)
        assert read_payloads(listener, 100) == [b"pong(%d)" % i for i in range(100)]
        assert len(writes) < 10, writes  # one write per reply before batching
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


def test_a_handler_writes_once_a_peer_has_a_chunk_queued():
    # 40 blobs of 2 KB pass tcp.CHUNK_BYTES; the handler then holds until
    # the peer has read the first of them
    released = threading.Event()
    listener, peer = raw_listener()
    addr = fresh_addr()
    transport = TcpTransport(addr)
    node = start_node(NodeConfig(addr, parse_program(PONG_SRC), extra_builtins={
        ("hold", 0): lambda solver, args: released.wait(10)}), transport)
    transport.start()
    try:
        send_raw(addr, encode_envelope(Envelope("t", b"flood('%s')" % peer.encode())))
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(3)
            dec = StreamDecoder()
            got = dec.feed(conn.recv(65536))  # times out if nothing is written yet
            released.set()
            while len(got) < 40:
                got += dec.feed(conn.recv(65536))
        assert [env.payload.split(b",")[0] for env in got] == [
            b"blob(%d" % i for i in range(40)]
    finally:
        released.set()
        listener.close()
        transport.stop()


class _BreaksAfter:
    """A connection that takes `n` bytes, then fails every write."""

    def __init__(self, n: int):
        self.left = n

    def send(self, data) -> int:
        if not self.left:
            raise ConnectionResetError("connection reset")
        took = min(self.left, len(data))
        self.left -= took
        return took

    def close(self):
        pass


def test_a_failed_write_resends_only_the_frames_not_taken_whole():
    listener, peer = raw_listener()
    addr, node, transport, _ = start_server(PONG_SRC)
    frame_a = encode_envelope(Envelope(addr, b"a"))
    # the loop is idle in select: the old connection takes a and part of b
    transport._conns[peer] = (_BreaksAfter(len(frame_a) + 3), time.monotonic())
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
    transport._conns[peer] = (_BreaksAfter(0), time.monotonic())
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
