"""Real TCP transport: length-prefixed frames, cached outbound connections.

A transport serves one node from one thread, the one that calls `run()` (or
that `start()` returns), in a `selectors` loop: it accepts connections, reads
ready sockets through each connection's `StreamDecoder` into one inbox, which
also takes sends to the node itself and `$dump` requests, dispatches the
inbox in order and fires due alarms between envelopes, so handlers run one at
a time.  A connection whose framing breaks (a frame over
`wire.MAX_FRAME_BYTES` included) is dropped; one beyond `MAX_CONNECTIONS` is
closed at once.  Outbound connections are cached until they break (one
reconnect attempt) or the cache is full (oldest idle evicted).  They are
non-blocking: while a peer's window is full, a write reads inbound frames
into the inbox without dispatching them, so flooding nodes both make
progress.  Otherwise the loop reads no connection while the inbox holds
`INBOX_LIMIT` envelopes, so the inbox holds at most that many plus those of
one read (`CHUNK_BYTES`) however fast peers send; it reads again once the
inbox drains.

One pass of the loop fires the due alarms and dispatches the inbox batch.
During a pass, `send` opens or reuses the peer's connection, so an
unreachable peer still fails the handler's send, but it only queues the
frame; after the pass each peer's frames go out in one write, and at once
when a peer's queue reaches `CHUNK_BYTES`.  So under load a reply waits for
the rest of its batch.  A queued write that fails is retried once on a new
connection with the frames the old socket did not take whole; if that fails
too, they are dropped and logged.

Handlers call `send` and `schedule_alarm` on the loop thread.  `stop` may be
called from any thread; the loop then closes every socket within `POLL_S`.
Tests also call `send` (small sends, written at once, while the loop sends
nothing) and `schedule_alarm` (it may fire up to `POLL_S` late) from their
own thread.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import selectors
import socket
import threading
import time
from collections import deque
from typing import Optional, Tuple

from .runtime import LinkError, Node
from .terms import Atom, Int, Struct, deref
from .reader import ReaderError, deserialize
from .wire import Envelope, FrameError, StreamDecoder, encode_envelope

log = logging.getLogger("logicnode.tcp")

DUMP_FUNCTOR = "$dump"
POLL_S = 0.2  # longest wait in select, so that stop() is seen promptly
INBOX_LIMIT = 1024  # envelopes; pingpong keeps at most 128 in flight
CHUNK_BYTES = 65536  # one read, and the most queued for a peer before a write
MAX_CONNECTIONS = 4096  # inbound connections, and cached outbound ones
CONNECT_TIMEOUT_S = 5.0  # for a connect, and for the reply to a $dump


def split_hostport(address: str) -> Tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError("address must be host:port, got %r" % address)
    return host, int(port)


def _now_ms() -> float:
    return time.monotonic() * 1000.0


class TcpTransport:
    def __init__(self, bind_address: str):
        self.bind_address = bind_address
        self._node: Optional[Node] = None
        self._inbox: deque = deque()  # (envelope, connection of a $dump or None)
        self._alarms: list = []  # heap of (due ms, seq, envelope)
        self._alarm_seq = itertools.count()
        self._conns: dict = {}  # peer -> (socket, last_used)
        self._queued: dict = {}  # peer -> [bytes, frames] sent during this pass
        self._inbound = 0
        self._stop = threading.Event()
        self._loop_thread: Optional[int] = None  # ident, while run() runs
        try:
            self._listener = socket.create_server(split_hostport(bind_address),
                                                  backlog=128)
        except OSError as e:
            raise LinkError("cannot bind %s: %s" % (bind_address, e))
        self._listener.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ)
        self.connections_opened = 0

    # --- transport interface ---

    def register(self, address: str, node: Node) -> None:
        if self._node is not None:
            raise LinkError("transport already serves %s" % self._node.address)
        if address != self.bind_address:
            raise LinkError("node address %s does not match bind %s"
                            % (address, self.bind_address))
        self._node = node

    def schedule_alarm(self, address: str, delay_ms: float, env: Envelope) -> None:
        heapq.heappush(self._alarms, (_now_ms() + delay_ms, next(self._alarm_seq), env))

    def send(self, frm: str, to: str, env: Envelope) -> None:
        if to == self.bind_address:
            self._inbox.append((env, None))
            return
        frame = encode_envelope(env)
        if threading.get_ident() != self._loop_thread:
            self._write(to, [frame])
            return
        self._connection(to)  # raises LinkError now if the peer is unreachable
        queued = self._queued.setdefault(to, [0, []])
        queued[0] += len(frame)
        queued[1].append(frame)
        if queued[0] >= CHUNK_BYTES:
            self._flush(to)

    def _flush(self, peer: str) -> None:
        """Write the frames queued for peer; if that fails, drop and log them."""
        frames = self._queued.pop(peer)[1]
        try:
            self._write(peer, frames)
        except LinkError as e:
            log.warning("%s: dropped %d frames to %s: %s",
                        self.bind_address, len(frames), peer, e)

    def _write(self, peer: str, frames: list) -> None:
        """Write frames to peer in one go, with one reconnect attempt.

        A failed write removes from `frames` those the socket took whole,
        so the retry sends no frame twice, and what is left when LinkError
        is raised was not sent."""
        for retry in (False, True):
            sock = self._connection(peer)
            try:
                self._sendall(sock, b"".join(frames))
                return
            except OSError as e:
                self._evict(peer)
                sent, taken = e.sent, 0
                while taken < len(frames) and sent >= len(frames[taken]):
                    sent -= len(frames[taken])
                    taken += 1
                del frames[:taken]
                if retry:
                    raise LinkError("send to %s failed: %s" % (peer, e))

    def _sendall(self, sock: socket.socket, data: bytes) -> None:
        """Write all of data, reading inbound frames while the peer is full.
        An OSError it raises holds in `sent` how many bytes the socket took."""
        view = memoryview(data)
        try:
            while view:
                try:
                    view = view[sock.send(view):]
                except BlockingIOError:
                    if self._stop.is_set():
                        raise OSError("transport stopped")
                    self._sel.register(sock, selectors.EVENT_WRITE)
                    try:
                        self._poll(POLL_S, bounded=False)
                    finally:
                        self._sel.unregister(sock)
        except OSError as e:
            e.sent = len(data) - len(view)
            raise

    # --- connection cache ---

    def _connection(self, peer: str) -> socket.socket:
        entry = self._conns.get(peer)
        if entry is not None:
            self._conns[peer] = (entry[0], time.monotonic())
            return entry[0]
        try:
            sock = socket.create_connection(split_hostport(peer),
                                            timeout=CONNECT_TIMEOUT_S)
        except OSError as e:
            raise LinkError("cannot connect to %s: %s" % (peer, e))
        sock.setblocking(False)
        self.connections_opened += 1
        if len(self._conns) >= MAX_CONNECTIONS:
            self._evict(min(self._conns, key=lambda p: self._conns[p][1]))
        self._conns[peer] = (sock, time.monotonic())
        return sock

    def _evict(self, peer: str) -> None:
        entry = self._conns.pop(peer, None)
        if entry is not None:
            entry[0].close()

    # --- inbound ---

    def _poll(self, timeout: float, bounded: bool = True) -> None:
        """Accept and read whatever is ready; dispatch nothing.  When
        `bounded`, a connection is read only while the inbox is below
        `INBOX_LIMIT`; the others stay ready for the next poll."""
        for key, _ in self._sel.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
            elif key.data is not None and not (bounded and len(self._inbox) >= INBOX_LIMIT):
                self._read(key.fileobj, key.data)

    def _accept(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        if self._inbound >= MAX_CONNECTIONS:
            conn.close()
            return
        conn.setblocking(False)
        self._sel.register(conn, selectors.EVENT_READ, StreamDecoder())
        self._inbound += 1

    def _read(self, conn: socket.socket, decoder: StreamDecoder) -> None:
        try:
            data = conn.recv(CHUNK_BYTES)
            envelopes = decoder.feed(data)
        except BlockingIOError:
            return
        except OSError:  # a broken connection
            data, envelopes = b"", []
        except FrameError as e:  # bad framing: keep the frames before it
            data, envelopes = b"", e.frames
        for env in envelopes:
            self._inbox.append((env, conn if env.payload.startswith(b"'$dump'(") else None))
        if not data:  # closed by the peer, broken or badly framed
            self._sel.unregister(conn)
            self._inbound -= 1
            conn.close()

    # --- the node loop ---

    def run(self, duration: Optional[float] = None) -> None:
        """Dispatch envelopes and alarms until stop() (or duration seconds)."""
        deadline = None if duration is None else time.monotonic() + duration
        self._loop_thread = threading.get_ident()
        try:
            while not self._stop.is_set():
                timeout = 0.0 if self._inbox else POLL_S
                if self._alarms:
                    timeout = min(timeout, max(0.0, (self._alarms[0][0] - _now_ms()) / 1000.0))
                if deadline is not None:
                    timeout = min(timeout, max(0.0, deadline - time.monotonic()))
                self._poll(timeout)
                try:
                    self._fire_due_alarms()
                    # only what is queued now, so that sends to self cannot starve reads
                    for _ in range(len(self._inbox)):
                        env, conn = self._inbox.popleft()
                        if conn is None:
                            self._node.dispatch(env)
                        else:
                            self._reply_dump(env, conn)
                        self._fire_due_alarms()
                finally:
                    for peer in list(self._queued):
                        self._flush(peer)
                if deadline is not None and time.monotonic() >= deadline:
                    return
        finally:
            self._loop_thread = None
            if self._stop.is_set():
                self._close()

    def _fire_due_alarms(self) -> None:
        while self._alarms and self._alarms[0][0] <= _now_ms():
            self._node.dispatch(heapq.heappop(self._alarms)[2])

    def _reply_dump(self, env: Envelope, conn: socket.socket) -> None:
        if not self._node.config.debug_endpoint:
            return
        try:
            term = deref(deserialize(env.payload))
        except ReaderError:
            return
        if not (isinstance(term, Struct) and term.name == DUMP_FUNCTOR
                and len(term.args) == 2):
            return
        name, arity = deref(term.args[0]), deref(term.args[1])
        if not (isinstance(name, Atom) and isinstance(arity, Int)):
            return
        listing = self._node.dump_facts(name.name, arity.value).encode("utf-8")
        try:
            conn.settimeout(CONNECT_TIMEOUT_S)  # the loop waits that long at most
            conn.sendall(encode_envelope(Envelope(self.bind_address, listing)))
            conn.setblocking(False)
        except OSError:
            pass

    def start(self) -> threading.Thread:
        t = threading.Thread(target=self.run, daemon=True)
        t.start()
        return t

    def stop(self) -> None:
        self._stop.set()
        if self._loop_thread is None:
            self._close()

    def _close(self) -> None:
        for key in list((self._sel.get_map() or {}).values()):
            key.fileobj.close()
        self._sel.close()
        for peer in list(self._conns):
            self._evict(peer)
