"""Real TCP transport: length-prefixed frames, cached outbound connections.

A transport serves one node from one thread, the one that calls `run()` (or
that `start()` returns), in a `selectors` loop: it accepts connections, reads
ready sockets through each connection's `StreamDecoder` into one inbox, which
also takes sends to the node itself and `$dump` requests, dispatches the
inbox in order and fires due alarms between envelopes, so handlers run one at
a time.  A connection whose framing breaks (a frame over
`wire.MAX_FRAME_BYTES` included) is dropped; one beyond `MAX_CONNECTIONS` is
closed at once.  The loop reads no connection while the inbox holds
`INBOX_LIMIT` envelopes, so however fast peers send, the inbox holds at
most that many plus those of one read (`CHUNK_BYTES`).

One pass of the loop fires the due alarms and dispatches the inbox batch.
`send` opens or reuses the peer's cached connection (least recently used
evicted), so an unreachable peer still fails the handler's send, but it
only queues the frame.  As soon as a peer's queue holds `WRITE_BYTES`, and
for every peer after the pass, the peer's non-blocking socket takes what it
can of its queue in one write; the loop's `select` waits for `EVENT_WRITE`
for the rest, and no other write is tried meanwhile, so no handler waits on
a peer.  So the replies to a long batch start to leave while it runs, and
a peer that waits for them can send more.  Outbound connections set
`TCP_NODELAY`: without it Nagle's algorithm holds back each small write
until the last one is acknowledged.  Before a write that starts at a frame,
a cached connection that the peer has closed (a restart) is replaced: a
write into it would succeed, and its frames would be lost unlogged.  A
failed write is retried once on a new connection from the first frame not
taken whole; then the frames are dropped and logged.  When the queues of
all peers pass `QUEUE_LIMIT` bytes, the longest is dropped with its
connection, and logged.

A `$dump` reply takes the same path: once the request is dispatched, its
connection leaves the read set, the reply is queued under that socket, a
failed write drops it with no retry, and the socket is closed once written.
So only `send`'s connect (`CONNECT_TIMEOUT_S`) can make the loop wait.

While the loop runs only its handlers call `send`; tests also call
`schedule_alarm` (it may fire up to `POLL_S` late) from their own thread.
`stop` may be called from any thread: within `POLL_S` the loop drops what
is queued, with a warning, and closes every socket.
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
from .wire import MAX_FRAME_BYTES, Envelope, FrameError, StreamDecoder, encode_envelope

log = logging.getLogger("logicnode.tcp")

DUMP_FUNCTOR = "$dump"
POLL_S = 0.2  # longest wait in select, so that stop() is seen promptly
INBOX_LIMIT = 1024  # envelopes; pingpong keeps at most 128 in flight
CHUNK_BYTES = 65536  # one read
WRITE_BYTES = 2048  # a peer queue this long is written without waiting for the pass to end
MAX_CONNECTIONS = 4096  # inbound connections, and cached outbound ones
CONNECT_TIMEOUT_S = 5.0  # the longest wait for a connect
QUEUE_LIMIT = 2 * MAX_FRAME_BYTES  # bytes queued for all peers together


def split_hostport(address: str) -> Tuple[str, int]:
    """(host, port) of "host:port"; ValueError unless the port is 0-65535."""
    host, sep, port = address.rpartition(":")
    if not (sep and port.isdecimal() and int(port) <= 65535):
        raise ValueError("address must be host:port with port 0-65535, got %r" % address)
    return host, int(port)


def _now_ms() -> float:
    return time.monotonic() * 1000.0


def _closed_by_peer(sock: socket.socket) -> bool:
    """Whether the peer has closed or reset `sock`, without reading from it."""
    try:
        return not sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:  # open, and nothing to read
        return False
    except OSError:
        return True


def _frames_within(queue: bytearray, n: int) -> Tuple[int, int]:
    """The number and the total size of the whole frames in queue[:n]."""
    count = end = 0
    while end < n:
        size = 4 + int.from_bytes(queue[end:end + 4], "big")
        if end + size > n:
            break
        count, end = count + 1, end + size
    return count, end


class TcpTransport:
    def __init__(self, bind_address: str):
        self.bind_address = bind_address
        self._node: Optional[Node] = None
        self._inbox: deque = deque()  # (envelope, connection of a $dump or None)
        self._alarms: list = []  # heap of (due ms, seq, envelope)
        self._alarm_seq = itertools.count()
        self._conns: dict = {}  # peer -> socket, least recently used first
        self._queued: dict = {}  # peer -> [bytearray of frames, bytes taken, waits]
        self._queued_bytes = 0
        self._inbound = 0
        self._stop = threading.Event()
        self._running = False
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
        self._connection(to)  # raises LinkError now if the peer is unreachable
        self._enqueue(to, frame)

    def _enqueue(self, peer, frame: bytes) -> None:
        """Queue frame for peer: an address, or the connection of a `$dump`."""
        queued = self._queued.setdefault(peer, [bytearray(), 0, False])
        queued[0] += frame
        self._queued_bytes += len(frame)
        if len(queued[0]) >= WRITE_BYTES and not queued[2]:  # not waiting for EVENT_WRITE
            self._pump(peer)
        while self._queued_bytes > QUEUE_LIMIT:
            self._drop(max(self._queued, key=lambda p: len(self._queued[p][0])),
                       "queues passed %d bytes" % QUEUE_LIMIT)

    def _pump(self, peer) -> None:
        """Write in one send what peer's socket takes of its queue, which
        starts at the first frame not taken whole; while some is left, the
        socket waits for EVENT_WRITE.  A connection the peer has closed is
        replaced first, unless a frame is part-way written."""
        queued = self._queued[peer]
        queue = queued[0]
        for retry in (False, True):
            try:
                if type(peer) is not str:
                    sock = peer
                else:
                    sock = self._connection(peer)
                    if not (retry or queued[1]) and _closed_by_peer(sock):
                        self._evict(peer)
                        sock = self._connection(peer)
                with memoryview(queue)[queued[1]:] as rest:
                    queued[1] += sock.send(rest)
                break
            except BlockingIOError:
                break
            except OSError as e:
                if retry or sock is peer:  # a $dump connection cannot be reopened
                    return self._drop(peer, e)
                self._evict(peer)
            except LinkError as e:
                return self._drop(peer, e)
        done = queued[1]
        taken = done if done == len(queue) else _frames_within(queue, done)[1]
        del queue[:taken]
        queued[1] -= taken
        self._queued_bytes -= taken
        if queue and not queued[2]:
            self._sel.register(sock, selectors.EVENT_WRITE, peer)
        elif queued[2] and not queue:
            self._sel.unregister(sock)
        queued[2] = bool(queue)
        if not queue:
            del self._queued[peer]
            if sock is peer:
                sock.close()

    def _drop(self, peer, reason) -> None:
        """Close peer's connection and drop its queued frames, with a warning."""
        queue = self._queued[peer][0]
        log.warning("%s: dropped %d frames to %s: %s", self.bind_address,
                    _frames_within(queue, len(queue))[0], peer, reason)
        self._evict(peer)
        self._queued_bytes -= len(self._queued.pop(peer)[0])

    # --- connection cache ---

    def _connection(self, peer: str) -> socket.socket:
        sock = self._conns.pop(peer, None)
        if sock is None:
            try:
                sock = socket.create_connection(split_hostport(peer),
                                                timeout=CONNECT_TIMEOUT_S)
            except (OSError, ValueError) as e:  # ValueError: not host:port
                raise LinkError("cannot connect to %s: %s" % (peer, e))
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connections_opened += 1
            if len(self._conns) >= MAX_CONNECTIONS:
                self._evict(next(iter(self._conns)))  # the least recently used
        self._conns[peer] = sock  # the cache keeps the order of last use
        return sock

    def _evict(self, peer) -> None:
        """Close peer's connection; a new one starts at its first queued frame."""
        sock = self._conns.pop(peer, None) if type(peer) is str else peer
        queued = self._queued.get(peer)
        if queued:
            if queued[2]:
                self._sel.unregister(sock)
            queued[1:] = 0, False
        if sock is not None:
            sock.close()

    # --- inbound ---

    def _poll(self, timeout: float) -> None:
        """Accept, read and write whatever is ready; dispatch nothing.  A
        connection is read only while the inbox is below `INBOX_LIMIT`; the
        others stay ready for the next poll."""
        for key, _ in self._sel.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
            elif type(key.data) is not StreamDecoder:  # a socket that was full
                self._pump(key.data)
            elif len(self._inbox) < INBOX_LIMIT:
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

    def run(self) -> None:
        """Dispatch envelopes and alarms until stop()."""
        self._running = True
        try:
            while not self._stop.is_set():
                timeout = 0.0 if self._inbox else POLL_S
                if self._alarms:
                    timeout = min(timeout, max(0.0, (self._alarms[0][0] - _now_ms()) / 1000.0))
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
                        self._pump(peer)
        finally:
            self._running = False
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
        if conn.fileno() < 0 or conn in self._queued:  # closed, or already replying
            return
        listing = self._node.dump_facts(name.name, arity.value).encode("utf-8")
        self._sel.unregister(conn)  # from now on the connection only takes its reply
        self._inbound -= 1
        self._enqueue(conn, encode_envelope(Envelope(self.bind_address, listing)))

    def start(self) -> threading.Thread:
        t = threading.Thread(target=self.run, daemon=True)
        t.start()
        return t

    def stop(self) -> None:
        self._stop.set()
        if not self._running:
            self._close()

    def _close(self) -> None:
        for peer in list(self._queued):
            self._drop(peer, "transport stopped")
        for peer in list(self._conns):
            self._evict(peer)
        for key in list((self._sel.get_map() or {}).values()):
            key.fileobj.close()
        self._sel.close()
