"""Closed-loop request/response throughput benchmark over real TCP.

The server is a node running the echo program (`logicnode run pingpong_server`),
and its delivered handler count is the measure.  The client is one `selectors`
loop over raw sockets: each connection keeps a window of requests outstanding
and counts the responses that arrive at its own listening socket.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass

from .protocols import load_asset
from .reader import serialize
from .runtime import NodeConfig, start_node
from .tcp import TcpTransport, split_hostport
from .terms import Atom, Struct
from .wire import Envelope, FrameError, StreamDecoder, encode_envelope

PAYLOAD_TARGET = 20  # bytes of term payload per request, mirroring the echo pair
SETTLE_S = 2.0  # the longest wait for late responses once the run ends


@dataclass
class BenchReport:
    duration_s: float
    client_sent: int
    client_received: int
    server_delivered: int
    errors: int

    @property
    def req_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.server_delivered / self.duration_s

    def line(self) -> str:
        return ("duration=%.2fs sent=%d received=%d server_delivered=%d "
                "errors=%d req/s=%.0f" % (self.duration_s, self.client_sent,
                                          self.client_received,
                                          self.server_delivered, self.errors,
                                          self.req_per_s))


class _Conn:
    """One connection to the server: its counts, and its ping, whose term
    payload is padded to at least PAYLOAD_TARGET bytes."""

    def __init__(self, sock: socket.socket, reply_address: str):
        base = serialize(Struct("ping", (Atom(reply_address), Atom("x"))))
        pad = Atom("x" * max(1, PAYLOAD_TARGET - (len(base) - 1)))
        self.frame = encode_envelope(Envelope(
            reply_address, serialize(Struct("ping", (Atom(reply_address), pad)))))
        self.sock = sock
        self.sent = self.received = 0

    def top_up(self, window: int) -> None:
        burst = window - (self.sent - self.received)
        if burst > 0:
            self.sock.sendall(self.frame * burst)
            self.sent += burst


def run_client(server_address: str, client_address: str, duration_s: float = 10.0,
               window: int = 128, conns: int = 1) -> BenchReport:
    """Keep `window` pings in flight on each of `conns` connections for
    `duration_s`, then wait at most `SETTLE_S` for late pongs.  Connection i
    asks for its pongs at `client_address`'s port + i, where it listens."""
    host, port = split_hostport(client_address)
    sel = selectors.DefaultSelector()
    socks: list = []  # every socket, closed at the end
    clients: list = []
    errors = 0
    elapsed = None
    try:
        for i in range(conns):
            socks.append(socket.create_server((host, port + i), backlog=16))
            socks.append(socket.create_connection(split_hostport(server_address), 5.0))
            clients.append(_Conn(socks[-1], "%s:%d" % (host, port + i)))
            # a listener's data has no decoder; a connection it accepted has one
            sel.register(socks[-2], selectors.EVENT_READ, (clients[-1], None))
        t0 = time.monotonic()
        end = t0 + duration_s
        for c in clients:
            c.top_up(window)
        while True:
            now = time.monotonic()
            if elapsed is None and now >= end:
                elapsed, end = now - t0, now + SETTLE_S
            if elapsed is not None and (now >= end or all(
                    c.received >= c.sent for c in clients)):
                break
            for key, _ in sel.select(end - now):
                conn, decoder = key.data
                if decoder is None:  # the server connects to send its pongs
                    socks.append(key.fileobj.accept()[0])
                    sel.register(socks[-1], selectors.EVENT_READ, (conn, StreamDecoder()))
                    continue
                try:
                    data = key.fileobj.recv(65536)
                    envs = decoder.feed(data) if data else None
                except (OSError, FrameError):
                    errors += 1
                    envs = None
                if envs is None:  # closed or broken
                    sel.unregister(key.fileobj)
                    continue
                pongs = sum(1 for e in envs if e.payload.startswith(b"pong("))
                conn.received += pongs
                errors += len(envs) - pongs
                if elapsed is None:
                    conn.top_up(window)
    finally:
        sel.close()
        for s in socks:
            s.close()
    return BenchReport(duration_s=elapsed, client_sent=sum(c.sent for c in clients),
                       client_received=sum(c.received for c in clients),
                       server_delivered=0, errors=errors)


def run_loopback(duration_s: float = 10.0, window: int = 128,
                 server_address: str = "127.0.0.1:19801",
                 client_address: str = "127.0.0.1:19802") -> BenchReport:
    transport = TcpTransport(server_address)
    node = start_node(NodeConfig(server_address, load_asset("pingpong_server")), transport)
    thread = transport.start()
    try:
        report = run_client(server_address, client_address, duration_s, window)
    finally:
        transport.stop()
        thread.join()
    report.server_delivered = node.metrics.delivered
    return report
