"""Real TCP transport: length-prefixed frames, cached outbound connections.

One transport serves one node.  Reader threads decode inbound frames into a
queue; a single loop thread interleaves queued envelopes with due alarms,
so dispatch stays strictly one handler at a time.  Outbound connections are
opened on first use and cached until they break (one reconnect attempt) or
the cache overflows (oldest idle evicted).
"""

from __future__ import annotations

import heapq
import itertools
import queue
import socket
import threading
import time
from typing import Optional, Tuple

from .runtime import LinkError, Node
from .terms import Atom, Int, Struct, deref
from .reader import ReaderError, deserialize
from .wire import Envelope, StreamDecoder, encode_envelope

DUMP_FUNCTOR = "$dump"


def split_hostport(address: str) -> Tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError("address must be host:port, got %r" % address)
    return host, int(port)


class TcpTransport:
    def __init__(self, bind_address: str, max_connections: int = 4096,
                 connect_timeout: float = 5.0):
        self.bind_address = bind_address
        self.max_connections = max_connections
        self.connect_timeout = connect_timeout
        self._node: Optional[Node] = None
        self._queue: "queue.Queue" = queue.Queue()
        self._alarms: list = []
        self._alarm_seq = itertools.count()
        self._alarm_lock = threading.Lock()
        self._conns: dict = {}  # peer -> (socket, last_used)
        self._conn_lock = threading.Lock()
        self._stop = threading.Event()
        host, port = split_hostport(bind_address)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except OSError as e:
            self._listener.close()
            raise LinkError("cannot bind %s: %s" % (bind_address, e))
        self._listener.listen(128)
        self._threads: list = []
        self.connections_opened = 0

    # --- transport interface ---

    def register(self, address: str, node: Node) -> None:
        if self._node is not None:
            raise LinkError("transport already serves %s" % self._node.address)
        if address != self.bind_address:
            raise LinkError("node address %s does not match bind %s"
                            % (address, self.bind_address))
        self._node = node
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)

    def now(self, address: str = "") -> float:
        return time.monotonic() * 1000.0

    def schedule_alarm(self, address: str, delay_ms: float, env: Envelope) -> None:
        with self._alarm_lock:
            heapq.heappush(self._alarms,
                           (self.now() + delay_ms, next(self._alarm_seq), env))
        self._queue.put(("wake",))

    def send(self, frm: str, to: str, env: Envelope) -> None:
        if to == self.bind_address:
            self._queue.put(("env", env))
            return
        frame = encode_envelope(env)
        sock = self._connection(to)
        try:
            sock.sendall(frame)
        except OSError:
            self._evict(to)
            sock = self._connection(to)  # one reconnect attempt
            try:
                sock.sendall(frame)
            except OSError as e:
                self._evict(to)
                raise LinkError("send to %s failed: %s" % (to, e))

    # --- connection cache ---

    def _connection(self, peer: str) -> socket.socket:
        with self._conn_lock:
            entry = self._conns.get(peer)
            if entry is not None:
                self._conns[peer] = (entry[0], time.monotonic())
                return entry[0]
        host, port = split_hostport(peer)
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        except OSError as e:
            raise LinkError("cannot connect to %s: %s" % (peer, e))
        sock.settimeout(None)
        self.connections_opened += 1
        with self._conn_lock:
            if len(self._conns) >= self.max_connections:
                oldest = min(self._conns, key=lambda p: self._conns[p][1])
                old_sock, _ = self._conns.pop(oldest)
                try:
                    old_sock.close()
                except OSError:
                    pass
            self._conns[peer] = (sock, time.monotonic())
        return sock

    def _evict(self, peer: str) -> None:
        with self._conn_lock:
            entry = self._conns.pop(peer, None)
        if entry is not None:
            try:
                entry[0].close()
            except OSError:
                pass

    # --- inbound ---

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._reader_loop, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _reader_loop(self, conn: socket.socket) -> None:
        decoder = StreamDecoder()
        try:
            while not self._stop.is_set():
                data = conn.recv(65536)
                if not data:
                    break
                try:
                    envelopes = decoder.feed(data)
                except Exception:
                    break  # framing violation: drop the connection
                for env in envelopes:
                    if self._is_dump(env):
                        self._queue.put(("dump", env, conn))
                    else:
                        self._queue.put(("env", env))
        finally:
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _is_dump(env: Envelope) -> bool:
        return env.payload.startswith(b"'$dump'(")

    # --- the node loop ---

    def run(self, duration: Optional[float] = None) -> None:
        """Dispatch envelopes and alarms until stop() (or duration seconds)."""
        deadline = None if duration is None else time.monotonic() + duration
        while not self._stop.is_set():
            timeout = 0.2
            if deadline is not None:
                timeout = min(timeout, max(0.0, deadline - time.monotonic()))
            with self._alarm_lock:
                if self._alarms:
                    timeout = min(timeout, max(0.0, (self._alarms[0][0] - self.now()) / 1000.0))
            self._fire_due_alarms()
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                item = None
            if item is not None:
                self._handle(item)
            self._fire_due_alarms()
            if deadline is not None and time.monotonic() >= deadline:
                return

    def _fire_due_alarms(self) -> None:
        while True:
            with self._alarm_lock:
                if not self._alarms or self._alarms[0][0] > self.now():
                    return
                _, _, env = heapq.heappop(self._alarms)
            self._node.dispatch(env)

    def _handle(self, item) -> None:
        kind = item[0]
        if kind == "env":
            self._node.dispatch(item[1])
        elif kind == "dump":
            self._reply_dump(item[1], item[2])

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
        name = deref(term.args[0])
        arity = deref(term.args[1])
        if not (isinstance(name, Atom) and isinstance(arity, Int)):
            return
        listing = self._node.dump_facts(name.name, arity.value)
        reply = Envelope(self.bind_address, listing.encode("utf-8"), None, "network")
        try:
            conn.sendall(encode_envelope(reply))
        except OSError:
            pass

    def start(self) -> threading.Thread:
        t = threading.Thread(target=self.run, daemon=True)
        t.start()
        self._threads.append(t)
        return t

    def stop(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._queue.put(("wake",))
        with self._conn_lock:
            for sock, _ in self._conns.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._conns.clear()
