"""Driver and checks for the speculative replication phase-one protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..auth import full_mesh_keystore
from ..reader import parse_term, term_text
from ..runtime import NodeConfig
from ..sim import SimNetwork
from ..terms import deref
from ..wire import decode_frame, encode_envelope
from . import facts, load_asset

CLIENT = "c1"


@dataclass
class CommitStatus:
    request: str
    committed: bool
    senders: Tuple[str, ...] = ()
    output: Optional[str] = None


class ZyzzyvaSim:
    """Four replicas (f=1), one client, full-mesh pairwise keys."""

    def __init__(self, batch_size: int = 1, seed: int = 0, replicas: int = 4,
                 key_seed: int = 1234):
        self.batch_size = batch_size
        self.replicas = ["r%d" % i for i in range(1, replicas + 1)]
        self.primary = self.replicas[0]
        self.keystore = full_mesh_keystore(self.replicas + [CLIENT],
                                           seed=b"mesh-%d" % key_seed)
        self.net = SimNetwork(seed=seed)
        self.compute_calls = 0

        replica_prog = load_asset("zyzzyva_replica")
        base = ["primary(%s)" % self.primary, "batch_size(%d)" % batch_size]
        base += ["replica(%s)" % r for r in self.replicas]
        for r in self.replicas:
            self.net.add_node(NodeConfig(
                address=r,
                program=replica_prog,
                facts=facts(*(base + ["seqno(1)"])),
                keystore=self.keystore,
                extra_builtins={("compute_output", 2): self._bi_compute},
            ))
        self.net.add_node(NodeConfig(
            address=CLIENT,
            program=load_asset("zyzzyva_client"),
            facts=facts("primary(%s)" % self.primary),
            keystore=self.keystore,
        ))
        self._submitted: List[str] = []

    def _bi_compute(self, solver, args):
        # echo, but counted: cache hits must not come through here
        self.compute_calls += 1
        return solver.unify(args[0], args[1])

    # --- driving ---

    def submit(self, req: str) -> None:
        self._submitted.append(req)
        self.net.inject_term(self.net.clock, CLIENT, parse_term("kick(%s)" % req))
        self.net.run_until(self.net.clock + 1)

    def settle(self, grace_ms: float = 50) -> None:
        self.net.run_until(self.net.clock + grace_ms)

    def run_requests(self, count: int, prefix: str = "q") -> List[str]:
        reqs = ["%s%d" % (prefix, i) for i in range(count)]
        for r in reqs:
            self.submit(r)
        self.settle()
        return reqs

    # --- verdicts ---

    def client_replies(self) -> Dict[str, Dict[Tuple[str, str], set]]:
        """request -> (seq key text, output text) -> set of reply senders."""
        out: Dict[str, Dict[Tuple[str, str], set]] = {}
        for t in self.net.nodes[CLIENT].db.facts("rep", 4):
            src, seq, req, val = (deref(a) for a in t.args)
            key = (term_text(seq), term_text(val))
            out.setdefault(term_text(req), {}).setdefault(key, set()).add(src.name)
        return out

    def statuses(self, reqs: List[str], quorum: int = 4) -> List[CommitStatus]:
        """Commit status of each request, from one read of the replies."""
        replies = self.client_replies()
        out = []
        for req in reqs:
            st = CommitStatus(req, False)
            for (seq, val), senders in replies.get(req, {}).items():
                if len(senders) >= quorum:
                    st = CommitStatus(req, True, tuple(sorted(senders)), val)
                    break
            out.append(st)
        return out

    def status(self, req: str, quorum: int = 4) -> CommitStatus:
        return self.statuses([req], quorum)[0]

    def all_committed(self, reqs: List[str], quorum: int = 4) -> bool:
        return all(st.committed for st in self.statuses(reqs, quorum))

    # --- replay: re-deliver a recorded batch message from the primary ---

    def recorded_batches(self, replica: str) -> List[str]:
        return [rec.term for rec in self.net.trace
                if rec.node == replica and rec.origin == "network"
                and rec.term.startswith("process(")]

    def replay_batch(self, replica: str, batch_term: str) -> None:
        self.net.inject_term(self.net.clock, replica, parse_term(batch_term),
                             sender=self.primary, keystore=self.keystore)
        self.settle()


def tamper_mac_hook(frame: bytes) -> bytes:
    """Flip one bit of the MAC of a signed frame; return any other frame as it is."""
    env, _ = decode_frame(frame)
    if not env.mac:
        return frame
    env.mac = bytes([env.mac[0] ^ 0x40]) + env.mac[1:]
    return encode_envelope(env)
