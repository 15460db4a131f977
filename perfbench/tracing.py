"""Spans and counters around the program's public entry points.

The wrappers are installed from the benchmark's own files by replacing
attributes of the program's modules and classes at run time; nothing under
src/ changes, and `Tracer.uninstall` puts every original back.

A span is recorded per wrapped call: id, parent span, cause (the simulator
event or TCP dispatch it belongs to), name, start, end, self time (its
duration minus the time its child spans cover), the phase the benchmark was
in, and one number particular to the call (bytes read, frames decoded,
solver steps, queue depth).  The hottest engine calls (unify, clause
lookup, clause rename, assert) are counted per phase instead of spanned.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from statistics import median

now = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes

# one row of the span table
ID, PARENT, CAUSE, NAME, START, END, SELF, PHASE, EXTRA = range(9)
FIELDS = ("id", "parent", "cause", "name", "start_ns", "end_ns", "self_ns",
          "phase", "extra")


class Tracer:
    def __init__(self):
        # spans as flat int64 rows; names and phases by index into _strings,
        # -1 for a missing cause or extra
        self._rows = array("q")
        self._strings: list = []
        self._index: dict = {}
        self.counts: dict = {}  # (phase, name) -> calls
        self.phase = "setup"
        self.enqueued: dict = {}  # id(envelope) -> ns its frame was decoded
        self._ids = itertools.count(1)
        self._causes = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _intern(self, text: str) -> int:
        i = self._index.get(text)
        if i is None:
            i = self._index[text] = len(self._strings)
            self._strings.append(text)
        return i

    @contextmanager
    def in_phase(self, phase: str):
        prev, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = prev

    def rows(self):
        r, st = self._rows, self._strings
        for i in range(0, len(r), 9):
            yield (r[i], r[i + 1], None if r[i + 2] < 0 else r[i + 2], st[r[i + 3]],
                   r[i + 4], r[i + 5], r[i + 6], st[r[i + 7]],
                   None if r[i + 8] < 0 else r[i + 8])

    # --- wrappers ---

    def _span(self, name, fn, pre=None, extra=None, cause=None):
        """cause: None inherits the parent's, "root" starts one unless the
        parent has one, "always" starts one."""
        tracer, local, rows = self, self._local, self._rows
        name_i = self._intern(name)

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            pcause = parent[1] if parent else None
            if cause == "always" or (cause == "root" and pcause is None):
                c = next(tracer._causes)
            else:
                c = pcause
            frame = [next(tracer._ids), c, 0]
            p = pre(args) if pre else None
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                if parent:
                    parent[2] += t1 - t0
            x = extra(args, result, p) if extra else None
            rows.extend((frame[0], parent[0] if parent else 0,
                         -1 if c is None else c, name_i, t0, t1, t1 - t0 - frame[2],
                         tracer._intern(tracer.phase), -1 if x is None else x))
            return result

        return wrapper

    def _count(self, name, fn):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = (tracer.phase, name)
            counts[key] = counts.get(key, 0) + 1
            return result

        return wrapper

    def wrap_method(self, cls, attr, name, count=False, **kw):
        orig = cls.__dict__[attr]
        make = self._count if count else self._span
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make(name, orig, **kw))

    def wrap_function(self, module, attr, name, count=False, **kw):
        """Replace the function in every program module that bound its name."""
        orig = getattr(module, attr)
        wrapper = (self._count if count else self._span)(name, orig, **kw)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("logicnode")
                    and getattr(mod, attr, None) is orig):
                self._patches.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- TCP queue wait: frame decoded -> dispatch starts ---

    def _mark_decoded(self, args, result, _):
        t = now()
        for env in result:
            self.enqueued[id(env)] = t
        return len(result)

    def _queue_wait(self, args):
        t = self.enqueued.pop(id(args[1]), None)
        return None if t is None else now() - t

    # --- output ---

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(FIELDS) + "\n")
            for s in self.rows():
                fh.write("\t".join("" if v is None else str(v) for v in s))
                fh.write("\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            f = line.rstrip("\n").split("\t")
            yield (int(f[0]), int(f[1]), int(f[2]) if f[2] else None, f[3],
                   int(f[4]), int(f[5]), int(f[6]), f[7],
                   int(f[8]) if f[8] else None)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer of the program."""
    import logicnode.bench  # noqa: F401  (bind names before patching them)
    import logicnode.cli  # noqa: F401
    from logicnode import auth, engine, reader, runtime, sim, tcp, wire
    from logicnode.protocols import chord, zyzzyva  # noqa: F401

    t = tracer
    t.wrap_method(runtime.Node, "dispatch", "runtime.dispatch", cause="root",
                  pre=t._queue_wait, extra=lambda a, r, p: p)
    t.wrap_method(engine.Solver, "solve_first", "engine.solve",
                  pre=lambda a: a[0].steps, extra=lambda a, r, p: a[0].steps - p)
    t.wrap_method(engine.Solver, "unify", "engine.unify", count=True)
    t.wrap_method(engine.Database, "clauses_for", "engine.clauses_for", count=True)
    # a clause is tried when it passes the first-argument key filter and is
    # renamed for unification (`prove` and `retract` look `_rename` up at
    # call time)
    t.wrap_function(engine, "_rename", "engine.rename", count=True)
    t.wrap_method(engine.Database, "assert_clause", "engine.assert", count=True)
    t.wrap_function(reader, "deserialize", "reader.deserialize",
                    extra=lambda a, r, p: len(a[0]))
    t.wrap_function(reader, "term_text", "reader.term_text")
    t.wrap_function(reader, "parse_program", "reader.parse_program")
    t.wrap_method(auth.KeyStore, "sign", "auth.sign")
    t.wrap_method(auth.KeyStore, "verify", "auth.verify")
    t.wrap_function(wire, "encode_envelope", "wire.encode")
    t.wrap_method(wire.StreamDecoder, "feed", "wire.feed", extra=t._mark_decoded)
    t.wrap_method(tcp.TcpTransport, "send", "tcp.send")
    t.wrap_method(sim.SimNetwork, "step", "sim.step", cause="always",
                  pre=lambda a: a[0].pending_events, extra=lambda a, r, p: p)
    t.wrap_method(chord.ChordSim, "build", "protocols.chord.build")
    t.wrap_method(chord.ChordSim, "quiesce", "protocols.chord.quiesce")
    t.wrap_method(chord.ChordSim, "_state_snapshot", "protocols.chord.snapshot")
    return t


# --- per-layer metrics ---

def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, counts: dict, basis: dict) -> dict:
    """Per-layer figures from one pass over span rows, plus counts.

    Per-call and per-event figures come from the "timed" phase, set-up
    figures from the "setup" phase, the TCP queue wait from the "open"
    (open-loop) phase.  `basis` gives the handler events of the timed and
    set-up phases (timed events default to the timed dispatches), the
    number of set-ups and of rounds, and under "known" the figures the
    workload measured itself.  A layer the workload does not exercise
    reads 0.
    """
    agg: dict = {}  # (phase, name) -> [calls, total_ns, self_ns, extra sum]
    waits, depth = [], 0
    for s in spans:
        name, phase, x = s[NAME], s[PHASE], s[EXTRA]
        a = agg.get((phase, name))
        if a is None:
            a = agg[(phase, name)] = [0, 0, 0, 0]
        a[0] += 1
        a[1] += s[END] - s[START]
        a[2] += s[SELF]
        if x is not None:
            a[3] += x
            if name == "runtime.dispatch" and phase == "open":
                waits.append(x)
            elif name == "sim.step" and phase == "timed":
                depth = max(depth, x)

    def get(name, phase="timed"):
        return agg.get((phase, name), [0, 0, 0, 0])

    def cnt(name, phase="timed"):
        return counts.get((phase, name), 0)

    def us_per_call(name):
        a = get(name)
        return _ratio(a[1], a[0]) / 1e3

    def setup_s(name):
        return _ratio(get(name, "setup")[1], basis["setups"]) / 1e9

    events = basis.get("events") or get("runtime.dispatch")[0]
    solve, feed = get("engine.solve"), get("wire.feed")
    out = {
        "engine.solve.us_per_event": _ratio(solve[1], events) / 1e3,
        "engine.steps_per_event": _ratio(solve[3], events),
        "engine.pred_calls_per_event": _ratio(cnt("engine.clauses_for"), events),
        "engine.clauses_tried_per_call": _ratio(cnt("engine.rename"), cnt("engine.clauses_for")),
        "engine.unify_per_event": _ratio(cnt("engine.unify"), events),
        "engine.asserts_per_event": _ratio(cnt("engine.assert", "setup"),
                                           basis["setup_events"]),
        "reader.deserialize.us_per_call": us_per_call("reader.deserialize"),
        "reader.deserialize.bytes_per_call": _ratio(get("reader.deserialize")[3],
                                                    get("reader.deserialize")[0]),
        "reader.term_text.calls_per_event": _ratio(get("reader.term_text")[0], events),
        "reader.term_text.us_per_call": us_per_call("reader.term_text"),
        "reader.parse_program.s": setup_s("reader.parse_program"),
        "runtime.dispatch.us_per_call": us_per_call("runtime.dispatch"),
        "runtime.dispatch.self_us_per_call": _ratio(get("runtime.dispatch")[2],
                                                    get("runtime.dispatch")[0]) / 1e3,
        "auth.sign.us_per_call": us_per_call("auth.sign"),
        "auth.verify.us_per_call": us_per_call("auth.verify"),
        "auth.sign.calls_per_event": _ratio(get("auth.sign")[0], events),
        "auth.verify.calls_per_event": _ratio(get("auth.verify")[0], events),
        "wire.encode.us_per_call": us_per_call("wire.encode"),
        "wire.feed.us_per_frame": _ratio(feed[1], feed[3]) / 1e3,
        "wire.frames_per_feed": _ratio(feed[3], feed[0]),
        "tcp.queue_wait_us_p50": median(waits) / 1e3 if waits else 0.0,
        "tcp.send.us_per_call": us_per_call("tcp.send"),
        "sim.step.self_us_per_event": _ratio(get("sim.step")[2], events) / 1e3,
        "tcp.loop.busy_s": _ratio(get("runtime.dispatch")[1], basis["rounds"]) / 1e9,
        "sim.queue_depth_max": depth,
        "protocols.chord.build_s": setup_s("protocols.chord.build"),
        "protocols.chord.quiesce_s": setup_s("protocols.chord.quiesce"),
        "protocols.chord.snapshot_s": setup_s("protocols.chord.snapshot"),
        # the workload supplies these in "known" where it exercises them
        "engine.db_clauses": 0,
        "sim.events": 0,
    }
    out.update(basis["known"])
    return out
