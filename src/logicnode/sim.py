"""Deterministic in-process delivery fabric with virtual time.

Events (message deliveries, alarm firings, injected envelopes) live in one
priority queue ordered by (due time, enqueue sequence); processing an event
dispatches it on the destination node and appends one trace record, which
holds the canonical text of the term the node read.  When `serialize` wrote
the payload (a node's `send` and `alarm`, `inject_term`), that text is the
payload itself; a raw `inject` or a frame a corrupt hook rewrote is written
out again.  Same seed and scenario always give a byte-identical trace.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Solver
from .reader import parse_term, serialize, term_text
from .runtime import LinkError, Node, NodeConfig
from .terms import Term
from .wire import Envelope, FrameError, decode_frame, encode_envelope


def _fmt_time(t) -> str:
    if isinstance(t, float) and t.is_integer():
        return str(int(t))
    return "%g" % t if isinstance(t, float) else str(t)


@dataclass
class TraceRecord:
    time: float
    seq: int
    node: str
    origin: str
    term: str
    outcome: str
    sends: int

    def line(self) -> str:
        return "t=%s seq=%d node=%s origin=%s term=%s outcome=%s sends=%d" % (
            _fmt_time(self.time), self.seq, self.node, self.origin,
            self.term, self.outcome, self.sends)


def _not_before(t: float, low: float, what: str) -> float:
    """`t` if it is a finite number >= `low`: simulated time never runs backwards."""
    if not low <= t < math.inf:  # NaN fails every comparison
        raise ValueError("%s must be a finite number >= %s, got %r" % (what, low, t))
    return t


class LinkModel:
    def __init__(self, default_latency: float = 1):
        self.default_latency = default_latency
        self._latency: dict = {}
        self._drop: dict = {}
        self._corrupt: dict = {}

    @property
    def default_latency(self) -> float:
        return self._default

    @default_latency.setter
    def default_latency(self, ms: float) -> None:
        self._default = _not_before(ms, 0, "latency")

    def set_latency(self, frm: str, to: str, ms: float) -> None:
        self._latency[(frm, to)] = _not_before(ms, 0, "latency")

    def set_drop(self, frm: str, to: str, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("drop probability must be in [0,1]")
        self._drop[(frm, to)] = p

    def set_corrupt(self, frm: str, to: str,
                    hook: Optional[Callable[[bytes], Optional[bytes]]]) -> None:
        if hook is None:
            self._corrupt.pop((frm, to), None)
        else:
            self._corrupt[(frm, to)] = hook

    def latency(self, frm: str, to: str) -> float:
        return self._latency.get((frm, to), self._default)

    def drop(self, frm: str, to: str) -> float:
        return self._drop.get((frm, to), 0.0)

    def corrupt(self, frm: str, to: str):
        return self._corrupt.get((frm, to))


class SimNetwork:
    def __init__(self, seed: int = 0, links: Optional[LinkModel] = None):
        self.seed = seed
        self.links = links or LinkModel()
        self.clock: float = 0
        self.rng = random.Random(seed)
        self.nodes: dict = {}
        self.trace: list = []
        self._heap: list = []
        self._seq = itertools.count()
        self.dropped = 0
        self.corrupt_dropped = 0
        self.dead_dropped = 0

    # --- transport interface used by Node ---

    def register(self, address: str, node: Node) -> None:
        if address in self.nodes:
            raise LinkError("address %s already bound" % address)
        self.nodes[address] = node

    def send(self, frm: str, to: str, env: Envelope) -> None:
        if to not in self.nodes:
            raise LinkError("destination %s is unreachable" % to)
        p = self.links.drop(frm, to)
        if p > 0 and self.rng.random() < p:
            self.dropped += 1
            return
        hook = self.links.corrupt(frm, to)
        if hook is not None:
            mutated = hook(encode_envelope(env))
            if mutated is None:
                self.dropped += 1
                return
            try:
                env, _ = decode_frame(mutated)
            except FrameError:
                self.corrupt_dropped += 1
                return
        due = self.clock + self.links.latency(frm, to)
        heapq.heappush(self._heap, (due, next(self._seq), to, env, hook is None))

    def schedule_alarm(self, address: str, delay_ms: float, env: Envelope) -> None:
        heapq.heappush(self._heap, (self.clock + delay_ms, next(self._seq), address,
                                    env, True))

    # --- driving ---

    def add_node(self, config: NodeConfig) -> Node:
        node = Node(config, self)
        self.register(config.address, node)
        return node

    def kill(self, address: str) -> None:
        self.nodes.pop(address, None)
        # a node's alarms die with it; in-flight messages do not
        kept = [e for e in self._heap if not (e[2] == address and e[3].origin == "alarm")]
        if len(kept) != len(self._heap):
            self._heap = kept
            heapq.heapify(self._heap)

    def inject(self, at: float, to: str, env: Envelope) -> None:
        self._inject(at, to, env, False)

    def _inject(self, at: float, to: str, env: Envelope, written: bool) -> None:
        """`written`: `serialize` wrote the payload, so it is the trace text."""
        _not_before(at, self.clock, "inject time")
        heapq.heappush(self._heap, (at, next(self._seq), to, env, written))

    def inject_term(self, at: float, to: str, term: Term, sender: str = "injector",
                    keystore=None) -> None:
        payload = serialize(term)
        mac = None
        if keystore is not None:
            mac = keystore.sign(sender, to, sender.encode("utf-8"), payload)
        self._inject(at, to, Envelope(sender, payload, mac, "network"), True)

    def step(self) -> Optional[TraceRecord]:
        if not self._heap:
            return None
        due, seq, to, env, written = heapq.heappop(self._heap)
        self.clock = due
        node = self.nodes.get(to)
        if node is None:
            self.dead_dropped += 1
            rec = TraceRecord(due, seq, to, env.origin, "", "dead", 0)
        else:
            outcome, term, sends = node.dispatch(env)
            text = ("" if term is None else env.payload.decode() if written
                    else term_text(term))
            rec = TraceRecord(due, seq, to, env.origin, text, outcome, sends)
        self.trace.append(rec)
        return rec

    def run_until(self, t: float) -> None:
        _not_before(t, self.clock, "run time")
        while self._heap and self._heap[0][0] <= t:
            self.step()
        self.clock = t

    def run_to_idle(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely; only safe without re-arming alarms."""
        n = 0
        while self._heap:
            self.step()
            n += 1
            if n > max_events:
                raise RuntimeError("simulation did not quiesce")

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    # --- inspection ---

    def query_all(self, address: str, goal: str) -> list:
        node = self.nodes[address]
        return Solver(node.db, builtins=node.builtins).solve_all(parse_term(goal))

    def holds(self, address: str, goal: str) -> bool:
        node = self.nodes[address]
        solver = Solver(node.db, builtins=node.builtins)
        return solver.solve_first(parse_term(goal), answer=False) is not None

    def trace_lines(self) -> list:
        return [r.line() for r in self.trace]

    def write_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.trace:
                fh.write(r.line())
                fh.write("\n")

    def metrics(self) -> dict:
        out = {
            "sim_dropped": self.dropped,
            "sim_corrupt_dropped": self.corrupt_dropped,
            "sim_dead_dropped": self.dead_dropped,
        }
        agg: dict = {}
        for node in self.nodes.values():
            for k, v in node.metrics.as_dict().items():
                agg[k] = agg.get(k, 0) + v
        out.update(agg)
        return out
