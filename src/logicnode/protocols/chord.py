"""Driver, oracle and experiments for the ring lookup protocol."""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..auth import digest_int
from ..reader import parse_term, serialize, term_text
from ..runtime import NodeConfig
from ..sim import LinkModel, SimNetwork
from ..terms import Atom, Int
from . import facts, load_asset

OBSERVER = "obs"

_FOUND_RE = re.compile(r"^found\(lookup\((\d+)\),")


@dataclass
class ChordParams:
    m_bits: int = 16
    succ_count: int = 4
    stabilize_ms: int = 5000
    fix_ms: int = 10000
    latency_ms: float = 1
    join_gap_ms: int = 200

    @property
    def ring_size(self) -> int:
        return 1 << self.m_bits


@dataclass
class LookupResult:
    tag: int
    key: int
    start: str
    answered: bool
    owner_addr: Optional[str] = None
    owner_id: Optional[int] = None
    hops: Optional[int] = None
    latency_ms: Optional[float] = None
    expected_id: Optional[int] = None

    @property
    def consistent(self) -> bool:
        return self.answered and self.owner_id == self.expected_id


def node_id(address: str, ring_size: int) -> int:
    return digest_int(serialize(Atom(address))) % ring_size


def make_addresses(n: int, ring_size: int, prefix: str = "c") -> List[str]:
    """n addresses with pairwise-distinct ring identifiers."""
    out: List[str] = []
    used = set()
    i = 0
    while len(out) < n:
        addr = "%s%04d" % (prefix, i)
        i += 1
        ident = node_id(addr, ring_size)
        if ident in used:
            continue
        used.add(ident)
        out.append(addr)
    return out


class ChordSim:
    def __init__(self, seed: int = 0, params: Optional[ChordParams] = None):
        self.params = params or ChordParams()
        links = LinkModel(default_latency=self.params.latency_ms)
        self.net = SimNetwork(seed=seed, links=links)
        self.program = load_asset("chord")
        self.rng = random.Random(seed ^ 0x5EED)
        self.members: Dict[str, int] = {}  # address -> ring id, live nodes
        self.bootstrap: Optional[str] = None
        self._tag = 0
        self._pending: Dict[int, dict] = {}
        self.results: List[LookupResult] = []
        self.net.add_node(NodeConfig(address=OBSERVER, program=load_asset("observer")))

    # --- membership ---

    def _node_facts(self, address: str, bootstrap: Optional[str]) -> list:
        p = self.params
        rows = [
            "ring_size(%d)" % p.ring_size,
            "m_bits(%d)" % p.m_bits,
            "succ_count(%d)" % p.succ_count,
            "stabilize_ms(%d)" % p.stabilize_ms,
            "fix_ms(%d)" % p.fix_ms,
        ]
        rows += ["pow2(%d, %d)" % (i, 1 << (i - 1)) for i in range(1, p.m_bits + 1)]
        if bootstrap is not None:
            rows.append("bootstrap('%s')" % bootstrap)
        return facts(*rows)

    def join(self, address: str, at: Optional[float] = None) -> None:
        bootstrap = self.bootstrap if self.bootstrap != address else None
        if self.bootstrap is None:
            self.bootstrap = address
            bootstrap = None
        elif bootstrap is None:
            # rejoin of the original bootstrap: any live member will do
            others = [a for a in self.members if a != address]
            bootstrap = others[0] if others else None
        self.net.add_node(NodeConfig(
            address=address,
            program=self.program,
            facts=self._node_facts(address, bootstrap),
        ))
        self.members[address] = node_id(address, self.params.ring_size)
        when = self.net.clock if at is None else at
        self.net.inject_term(when, address, parse_term("boot"))

    def kill(self, address: str) -> None:
        self.net.kill(address)
        self.members.pop(address, None)

    def build(self, n: int) -> None:
        for k, addr in enumerate(make_addresses(n, self.params.ring_size)):
            self.join(addr, at=self.net.clock + k * self.params.join_gap_ms)
        self.net.run_until(self.net.clock + n * self.params.join_gap_ms)
        for addr in self.members:
            if self.net.query_all(addr, "join_failed(R)"):
                raise RuntimeError("identifier collision at join of %s" % addr)

    # --- stabilization ---

    def _state_snapshot(self):
        snap = {}
        for addr in self.members:
            node = self.net.nodes.get(addr)
            if node is None:
                continue
            rows = []
            for name, arity in (("succ", 2), ("pred", 2), ("finger", 3), ("succ_list", 1)):
                rows.extend(sorted(term_text(t) for t in node.db.facts(name, arity)))
            snap[addr] = tuple(rows)
        return snap

    def quiesce(self, window_ms: Optional[float] = None, max_windows: int = 200) -> float:
        """Run until routing state is unchanged over two consecutive windows."""
        if window_ms is None:
            window_ms = 2 * max(self.params.stabilize_ms, self.params.fix_ms)
        start = self.net.clock
        stable = 0
        prev = self._state_snapshot()
        for _ in range(max_windows):
            self.net.run_until(self.net.clock + window_ms)
            cur = self._state_snapshot()
            stable = stable + 1 if cur == prev else 0
            prev = cur
            if stable >= 2:
                return self.net.clock - start
        raise RuntimeError("ring did not quiesce in %d windows" % max_windows)

    # --- lookups ---

    def oracle_owner(self, key: int, live_ids: Optional[List[int]] = None) -> int:
        ids = sorted(self.members.values()) if live_ids is None else sorted(live_ids)
        i = bisect_left(ids, key)
        return ids[i] if i < len(ids) else ids[0]

    def start_lookup(self, key: int, start: str) -> int:
        tag = self._tag
        self._tag += 1
        self._pending[tag] = {
            "key": key,
            "start": start,
            "time": self.net.clock,
            "expected": self.oracle_owner(key),
        }
        self.net.inject_term(self.net.clock, start,
                             parse_term("lookup(%d, %s, %d)" % (key, OBSERVER, tag)))
        return tag

    def random_lookup(self) -> int:
        key = self.rng.randrange(self.params.ring_size)
        start = self.rng.choice(sorted(self.members))
        return self.start_lookup(key, start)

    def collect_results(self) -> List[LookupResult]:
        """Resolve all pending lookups against the observer's records."""
        obs = self.net.nodes[OBSERVER]
        answers = {}
        for t in obs.db.facts("result", 4):
            tag_t = t.args[0]
            if not (hasattr(tag_t, "name") and tag_t.name == "lookup"):
                continue
            tag = tag_t.args[0].value
            owner = t.args[1].name
            owner_id = t.args[2].value
            hops = t.args[3].value
            answers[tag] = (owner, owner_id, hops)
        times = {}
        for rec in self.net.trace:
            if rec.node != OBSERVER:
                continue
            m = _FOUND_RE.match(rec.term)
            if m:
                tag = int(m.group(1))
                times.setdefault(tag, rec.time)
        out = []
        for tag, info in sorted(self._pending.items()):
            r = LookupResult(tag=tag, key=info["key"], start=info["start"],
                             answered=tag in answers, expected_id=info["expected"])
            if r.answered:
                r.owner_addr, r.owner_id, r.hops = answers[tag]
                if tag in times:
                    r.latency_ms = times[tag] - info["time"]
            out.append(r)
        self._pending.clear()
        self.results.extend(out)
        return out

    def run_lookup_batch(self, count: int, spacing_ms: float = 2,
                         grace_ms: float = 30000) -> List[LookupResult]:
        for _ in range(count):
            self.random_lookup()
            self.net.run_until(self.net.clock + spacing_ms)
        self.net.run_until(self.net.clock + grace_ms)
        return self.collect_results()


def static_experiment(n: int, lookups: int, seed: int = 0,
                      params: Optional[ChordParams] = None) -> ChordSim:
    sim = ChordSim(seed=seed, params=params)
    sim.build(n)
    sim.quiesce()
    sim.run_lookup_batch(lookups)
    return sim


@dataclass
class ChurnReport:
    results: List[LookupResult] = field(default_factory=list)
    kills: int = 0
    joins: int = 0

    @property
    def consistency(self) -> float:
        if not self.results:
            return 1.0
        return sum(1 for r in self.results if r.consistent) / len(self.results)


def churn_experiment(n: int, seed: int, mean_session_ms: float,
                     duration_ms: float, lookup_interval_ms: float = 2000,
                     downtime_ms: float = 30000,
                     params: Optional[ChordParams] = None) -> ChurnReport:
    """Random kills and rejoins at per-node exponential session times."""
    sim = ChordSim(seed=seed, params=params)
    sim.build(n)
    sim.quiesce()
    rng = random.Random(seed ^ 0xC0FFEE)
    report = ChurnReport()
    end = sim.net.clock + duration_ms
    # one network-wide kill process: rate = live nodes / mean session time
    next_kill = sim.net.clock + rng.expovariate(n / mean_session_ms)
    next_lookup = sim.net.clock + lookup_interval_ms
    rejoins: List[tuple] = []  # (time, address)
    while sim.net.clock < end:
        t = min(next_kill, next_lookup, end,
                *(r[0] for r in rejoins)) if rejoins else min(next_kill, next_lookup, end)
        sim.net.run_until(t)
        for when, addr in list(rejoins):
            if when <= sim.net.clock:
                rejoins.remove((when, addr))
                sim.join(addr)
                report.joins += 1
        if next_kill <= sim.net.clock:
            victims = [a for a in sorted(sim.members) if a != sim.bootstrap]
            if len(victims) > 2:
                victim = rng.choice(victims)
                sim.kill(victim)
                report.kills += 1
                rejoins.append((sim.net.clock + downtime_ms, victim))
            next_kill = sim.net.clock + rng.expovariate(len(sim.members) / mean_session_ms)
        if next_lookup <= sim.net.clock:
            sim.random_lookup()
            next_lookup = sim.net.clock + lookup_interval_ms
    sim.net.run_until(end + 30000)
    report.results = sim.collect_results()
    return report
