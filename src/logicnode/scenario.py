"""Line-oriented scenario files for deterministic simulator runs.

One statement per line; `#` starts a comment.  Statements:

    seed N
    program NAME (ASSET | PATH.dahl)
    node ADDR PROGRAM_NAME
    fact ADDR TERM
    facts ADDR PATH
    keys PATH
    policy ADDR (fail | throw | ignore)
    latency default MS          | latency FROM TO MS
    drop FROM TO P
    inject AT ADDR TERM
    inject_signed AT ADDR SENDER TERM
    run_until T
    run_to_idle
    expect ADDR GOAL
    expect_absent ADDR GOAL
    metric NAME OP VALUE        (OP in == != < <= > >=)

Assertions are collected, not fatal; the runner reports every failure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .auth import load_key_file
from .reader import Clause, ReaderError, parse_program, parse_term
from .runtime import POLICIES, NodeConfig
from .sim import LinkModel, SimNetwork
from .protocols import load_program
from .terms import Atom

_METRIC_OPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class ScenarioError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


@dataclass
class ScenarioReport:
    failures: List[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    net: Optional[SimNetwork] = None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class _Stmt:
    line_no: int
    op: str
    args: tuple


class Scenario:
    def __init__(self, text: str, base_dir: str = "."):
        self.base = Path(base_dir)
        self.seed = 0
        self.links = LinkModel()  # latency and drop statements, applied as read
        self.stmts: List[_Stmt] = []
        self._parse(text)

    def _parse(self, text: str) -> None:
        for n, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            op = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            try:
                self.stmts.append(self._parse_stmt(n, op, rest))
            except ScenarioError:
                raise
            except (ValueError, ReaderError) as e:
                raise ScenarioError(n, str(e))

    def _parse_stmt(self, n: int, op: str, rest: str) -> _Stmt:
        def words(k: int) -> list:
            w = rest.split(None, k - 1)
            if len(w) != k:
                raise ScenarioError(n, "%s needs %d argument(s)" % (op, k))
            return w

        if op == "seed":
            (v,) = words(1)
            self.seed = int(v)
            return _Stmt(n, "noop", ())
        if op in ("program", "node", "facts", "policy"):
            return _Stmt(n, op, tuple(words(2)))
        if op == "keys":
            return _Stmt(n, op, tuple(words(1)))
        if op == "fact":
            addr, text = words(2)
            return _Stmt(n, op, (addr, parse_term(text)))
        if op == "latency":
            w = rest.split()
            if len(w) == 2 and w[0] == "default":
                self.links.default_latency = float(w[1])
            elif len(w) == 3:
                self.links.set_latency(w[0], w[1], float(w[2]))
            else:
                raise ScenarioError(n, "latency needs 'default MS' or 'FROM TO MS'")
            return _Stmt(n, "noop", ())
        if op == "drop":
            frm, to, p = words(3)
            self.links.set_drop(frm, to, float(p))
            return _Stmt(n, "noop", ())
        if op == "inject":
            at, addr, text = words(3)
            return _Stmt(n, op, (float(at), addr, parse_term(text)))
        if op == "inject_signed":
            at, addr, sender, text = words(4)
            return _Stmt(n, op, (float(at), addr, sender, parse_term(text)))
        if op == "run_until":
            (t,) = words(1)
            return _Stmt(n, op, (float(t),))
        if op == "run_to_idle":
            if rest:
                raise ScenarioError(n, "run_to_idle takes no arguments")
            return _Stmt(n, op, ())
        if op in ("expect", "expect_absent"):
            addr, goal = words(2)
            return _Stmt(n, op, (addr, goal, parse_term(goal)))
        if op == "metric":
            name, cmp_op, value = words(3)
            if cmp_op not in _METRIC_OPS:
                raise ScenarioError(n, "unknown comparison %r" % cmp_op)
            return _Stmt(n, op, (name, cmp_op, float(value)))
        raise ScenarioError(n, "unknown statement %r" % op)

    # --- execution ---

    def run(self, seed: Optional[int] = None) -> ScenarioReport:
        net = SimNetwork(seed=self.seed if seed is None else seed, links=self.links)
        report = ScenarioReport(net=net)
        programs: dict = {}
        keystore = None
        # nodes must exist before faults and injections reference them, so
        # replay declarations first, then events in file order
        for st in self.stmts:
            if st.op == "keys":
                p = self.base / st.args[0]
                if not p.exists():
                    raise ScenarioError(st.line_no, "no key file %s" % p)
                keystore = load_key_file(str(p))
        for st in self.stmts:
            if st.op == "program":
                try:
                    programs[st.args[0]] = load_program(st.args[1], self.base)
                except FileNotFoundError as e:
                    raise ScenarioError(st.line_no, str(e)) from None
            elif st.op == "node":
                addr, prog = st.args
                if prog not in programs:
                    raise ScenarioError(st.line_no, "undeclared program %r" % prog)
                if addr in net.nodes:
                    raise ScenarioError(st.line_no, "duplicate node %r" % addr)
                net.add_node(NodeConfig(address=addr, program=programs[prog],
                                        keystore=keystore))
        for st in self.stmts:
            node = None
            if st.op in ("fact", "facts", "policy") :
                addr = st.args[0]
                node = net.nodes.get(addr)
                if node is None:
                    raise ScenarioError(st.line_no, "unknown node %r" % addr)
            if st.op == "fact":
                node.db.add_clause(Clause(st.args[1], Atom("true")))
            elif st.op == "facts":
                p = self.base / st.args[1]
                if not p.exists():
                    raise ScenarioError(st.line_no, "no facts file %s" % p)
                for c in parse_program(p.read_text(encoding="utf-8")).clauses:
                    node.db.add_clause(c)
            elif st.op == "policy":
                if st.args[1] not in POLICIES:
                    raise ScenarioError(st.line_no, "unknown policy %r" % st.args[1])
                node.config.policy = st.args[1]
        # event phase, in file order
        for st in self.stmts:
            try:  # the network refuses a time that is not finite or is past
                if st.op == "inject":
                    at, addr, term = st.args
                    net.inject_term(at, addr, term)
                elif st.op == "inject_signed":
                    at, addr, sender, term = st.args
                    if keystore is None:
                        raise ScenarioError(st.line_no, "inject_signed needs a keys file")
                    net.inject_term(at, addr, term, sender=sender, keystore=keystore)
                elif st.op == "run_until":
                    net.run_until(st.args[0])
            except ValueError as e:
                raise ScenarioError(st.line_no, str(e)) from None
            if st.op == "run_to_idle":
                net.run_to_idle()
            elif st.op in ("expect", "expect_absent"):
                addr, text, goal = st.args
                if addr not in net.nodes:
                    raise ScenarioError(st.line_no, "unknown node %r" % addr)
                if net.holds(addr, text) != (st.op == "expect"):
                    report.failures.append("line %d: %s %s %s: %s" % (
                        st.line_no, st.op, addr, text,
                        "no solution" if st.op == "expect" else "has a solution"))
        report.metrics = net.metrics()
        for st in self.stmts:
            if st.op == "metric":
                name, cmp_op, value = st.args
                have = report.metrics.get(name)
                if have is None:
                    report.failures.append(
                        "line %d: metric %s: no such counter" % (st.line_no, name))
                elif not _METRIC_OPS[cmp_op](have, value):
                    report.failures.append(
                        "line %d: metric %s %s %g: actual %g"
                        % (st.line_no, name, cmp_op, value, have))
        return report


def load_scenario(path: str) -> Scenario:
    p = Path(path)
    return Scenario(p.read_text(encoding="utf-8"), base_dir=str(p.parent))
