"""The node kernel: one-at-a-time handler dispatch plus networking builtins.

A node owns a clause database and is driven entirely by envelopes handed to
`dispatch` by its transport.  Handlers run as first-solution queries; the
answer is discarded, side effects stay, and failures or errors never stop
the node.  Signature checks are lazy and cached per handler.  `dispatch`
returns the term it read, not its text: a node writes only the messages it
sends, and the simulator alone writes a received term out, for its trace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .auth import KeyStore, digest_int
from .engine import BUILTINS, Database, EngineError, SolveLimits, Solver
from .reader import Clause, Program, ReaderError, deserialize, serialize, term_text
from .terms import Atom, Int, Term, deref, indicator
from .wire import Envelope

log = logging.getLogger("logicnode.runtime")

POLICIES = ("fail", "throw", "ignore")


class LinkError(Exception):
    """Raised by a transport when a message cannot be handed off."""


@dataclass
class NodeConfig:
    address: str
    program: Program
    facts: list = field(default_factory=list)  # of Clause
    policy: str = "fail"
    limits: SolveLimits = field(default_factory=SolveLimits)
    keystore: Optional[KeyStore] = None
    # (name, arity) -> fn(solver, args) -> bool
    extra_builtins: dict = field(default_factory=dict)
    debug_endpoint: bool = True

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError("unknown send-error policy %r" % self.policy)


@dataclass
class Metrics:
    delivered: int = 0
    discarded: int = 0
    decode_errors: int = 0
    handler_failures: int = 0
    handler_errors: int = 0
    internal_errors: int = 0
    sends: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Node:
    """A running node."""

    def __init__(self, config: NodeConfig, transport):
        self.config = config
        self.address = config.address
        self.transport = transport
        self.db = Database()
        self.db.load_program(config.program)
        for fact in config.facts:
            self.db.add_clause(fact)
        self.metrics = Metrics()
        # the envelope whose handler runs, and whether its MAC verified
        # (None: not checked yet)
        self._envelope: Optional[Envelope] = None
        self._verdict: Optional[bool] = None
        # one table for every call: the node's builtins, then the
        # configured ones, then the engine's, which take precedence
        self.builtins = {
            ("this_node", 1): self._bi_this_node,
            ("send", 2): partial(self._bi_send, signed=False),
            ("sendall", 3): (1, self._message, partial(self._send_all, signed=False)),
            ("send_signed", 2): partial(self._bi_send, signed=True),
            ("sendall_signed", 3): (1, self._message, partial(self._send_all, signed=True)),
            ("alarm", 2): self._bi_alarm,
            ("signed", 0): self._bi_signed,
            ("signed_by", 1): self._bi_signed_by1,
            ("signed_by", 2): self._bi_signed_by2,
            ("digest_id", 2): self._bi_digest_id,
        }
        self.builtins.update(config.extra_builtins)
        self.builtins.update(BUILTINS)
        self.solver = Solver(self.db, config.limits, self.builtins)

    # --- dispatch ---

    def dispatch(self, envelope: Envelope):
        """Evaluate one envelope; returns (outcome, term, sends).

        `term` is the term read from the payload, None when the payload did
        not decode.  No exception escapes: one that neither the reader nor
        the engine raises on purpose is counted in
        `Metrics.internal_errors`, logged and reported as outcome
        `error:internal` with term None.
        """
        sends = self.metrics.sends
        try:
            outcome, term = self._evaluate(envelope)
            return outcome, term, self.metrics.sends - sends
        except Exception:
            self.metrics.internal_errors += 1
            log.exception("%s: internal error in dispatch", self.address)
            return "error:internal", None, self.metrics.sends - sends
        finally:
            self._envelope = self._verdict = None

    def _evaluate(self, envelope: Envelope):
        try:
            term = deserialize(envelope.payload)
        except ReaderError:
            self.metrics.decode_errors += 1
            return "decode_error", None
        pred = self.db.preds.get(indicator(term))
        if pred is None or not (pred.event or (pred.alarm and envelope.origin == "alarm")):
            self.metrics.discarded += 1
            return "discarded", term
        self.metrics.delivered += 1
        self._envelope = envelope
        self.solver.steps = 0  # the budget is per dispatch; solve_first empties the trail
        try:
            if self.solver.solve_first(term, answer=False) is not None:
                return "success", term
            self.metrics.handler_failures += 1
            return "failure", term
        except EngineError as e:
            self.metrics.handler_errors += 1
            log.warning("%s: handler %s aborted: %s", self.address,
                        envelope.payload.decode("utf-8"), e)
            return "error:%s" % e.kind, term

    def dump_facts(self, name: str, arity: int) -> str:
        lines = [term_text(t) for t in self.db.facts(name, arity)]
        return "\n".join(lines)

    # --- send machinery ---

    def _transmit(self, dest: Term, payload: bytes, signed: bool) -> bool:
        dest = deref(dest)
        if not isinstance(dest, Atom):
            raise EngineError("type", "destination address must be a ground atom")
        to = dest.name
        mac = None
        if signed:
            ks = self.config.keystore
            if ks is None or ks.key_for(self.address, to) is None:
                raise EngineError("auth", "no key for destination %s" % to)
            mac = ks.sign(self.address, to, self.address.encode("utf-8"), payload)
        try:
            self.transport.send(self.address, to, Envelope(self.address, payload, mac))
        except LinkError as e:
            policy = self.config.policy
            if policy == "throw":
                raise EngineError("send", str(e))
            return policy == "ignore"
        self.metrics.sends += 1
        return True

    # --- builtins: fn(solver, args) -> bool, and sendall's record and finish ---

    def _bi_this_node(self, solver, args):
        return solver.unify(args[0], Atom(self.address))

    def _bi_send(self, solver, args, signed):
        return self._transmit(args[0], serialize(args[1]), signed)

    # sendall notes each solution's destination and payload, and sends them
    # all once the solutions are used up; a destination is checked only when
    # its message is sent
    def _message(self, solver, args):
        return deref(args[0]), serialize(args[2])

    def _send_all(self, solver, args, messages, signed):
        return all(self._transmit(d, payload, signed) for d, payload in messages)

    def _bi_alarm(self, solver, args):
        msg = deref(args[0])
        delay = deref(args[1])
        if not isinstance(delay, Int) or delay.value < 0:
            raise EngineError("type", "alarm delay must be a non-negative integer")
        env = Envelope(self.address, serialize(msg), None, "alarm")
        self.transport.schedule_alarm(self.address, delay.value, env)
        return True

    # --- signature checks ---

    def _verified(self) -> bool:
        env = self._envelope
        if env is None:
            raise EngineError("context", "signature check outside a handler")
        if self._verdict is None:
            ks = self.config.keystore
            self._verdict = (env.mac is not None and ks is not None and ks.verify(
                env.sender, self.address, env.sender.encode("utf-8"),
                env.payload, env.mac))
        return self._verdict

    def _bi_signed(self, solver, args):
        return self._verified()

    def _bi_signed_by1(self, solver, args):
        return (self._verified()
                and solver.unify(args[0], Atom(self._envelope.sender)))

    def _bi_signed_by2(self, solver, args):
        if not self._verified():
            return False
        env = self._envelope
        return (solver.unify(args[0], Atom(env.sender))
                and solver.unify(args[1], Atom(env.mac.hex())))

    def _bi_digest_id(self, solver, args):
        value = digest_int(serialize(deref(args[0])))
        return solver.unify(args[1], Int(value))


def start_node(config: NodeConfig, transport) -> Node:
    node = Node(config, transport)
    transport.register(config.address, node)
    return node
