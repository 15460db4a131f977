"""Depth-first first-solution resolution over a dynamic clause database.

The solver mutates variable cells and undoes bindings through a trail, so
backtracking is cheap.  Cut is clause-local and implemented with a barrier
id per predicate activation.  `Solver.solutions` opens the barrier of every
goal whose solutions are collected or tested (a query, `findall`, `count`,
`sendall`, the condition of a negation or of `->`), so a cut there ends only
that goal's solutions.  Unknown predicates fail quietly: handler programs
routinely query predicates before the first matching assert.

Builtins come in two kinds.  Those that succeed at most once (the tests,
arithmetic, `findall`, `count`, `assert`, and every builtin of a `Node` or of
`NodeConfig.extra_builtins`) are plain functions `fn(solver, args) -> bool`;
`prove` undoes the bindings one leaves when it returns false or when the
search backtracks into it.  Only the control constructs (`!`, `,`, `;`, `->`)
and the builtins that can succeed more than once (`member/2`, `retract/1`)
are generators `fn(solver, args, depth)` that yield once per solution and
undo their own bindings.

Clauses are indexed on their first argument.  A first argument has a key
when it is an atom, an integer, or a flat ground compound (one whose
arguments are all atoms or integers, such as `5-1`); two keys are equal
exactly when the terms are `==`.  A predicate is indexed only while every
one of its clauses has a key.  Its index is built on the first call whose
goal has a keyed first argument, and from then on `assert`, consult-time
loading and `retract` keep it current.  Such a call tries only the clauses
under its key; any other call tries every clause of the predicate, skipping
those whose first argument has another functor, arity or constant.
"""

from __future__ import annotations

import itertools
import operator as _op
from typing import Iterator, Optional, Sequence

from .reader import Clause, Program
from .terms import (
    Atom, INT64_MAX, INT64_MIN, Int, Struct, Term, Var,
    copy_term, deref, indicator, mklist, struct_eq, term_vars,
)


class EngineError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__("%s: %s" % (kind, message))
        self.kind = kind
        self.message = message


class _Cut(Exception):
    __slots__ = ("depth",)

    def __init__(self, depth: int):
        self.depth = depth


class SolveLimits:
    __slots__ = ("max_steps",)

    def __init__(self, max_steps: int = 10_000_000):
        self.max_steps = max_steps


class Database:
    """Ordered clauses per predicate indicator plus declaration flags."""

    def __init__(self):
        self.preds: dict = {}        # (name, arity) -> list[Clause]
        # (name, arity) -> {first-argument key: list[Clause]}, or None while
        # some clause of the predicate has no key; absent until first used
        self._index: dict = {}
        self.dynamic: set = set()
        self.events: set = set()
        self.alarms: set = set()

    def load_program(self, prog: Program) -> None:
        for d in prog.directives:
            target = {"event": self.events, "alarm": self.alarms,
                      "dynamic": self.dynamic}[d.kind]
            for ind in d.indicators:
                target.add(ind)
                if d.kind == "dynamic":
                    self.preds.setdefault(ind, [])
        for c in prog.clauses:
            self.add_clause(c)

    def add_clause(self, clause: Clause) -> None:
        """Consult-time load: static unless the indicator is declared dynamic."""
        ind = indicator(clause.head)
        if ind is None:
            raise EngineError("type", "clause head is not callable")
        self.preds.setdefault(ind, []).append(clause)
        self._index_add(ind, clause)

    def clauses_for(self, ind, first: Optional[Term] = None) -> Optional[Sequence]:
        """The clauses, in database order, that a call of `ind` whose first
        argument is `first` must try; None for an unknown predicate.

        The list is live: callers iterate a copy.
        """
        clauses = self.preds.get(ind)
        if clauses is None or first is None:
            return clauses
        index = self._index.get(ind, _UNBUILT)
        if index is None:
            return clauses
        key = _first_arg_key(first)
        if key is None:
            return clauses
        if index is _UNBUILT:
            index = self._build_index(ind, clauses)
            if index is None:
                return clauses
        return index.get(key, ())

    def _build_index(self, ind, clauses: list) -> Optional[dict]:
        index: Optional[dict] = {}
        for c in clauses:
            key = _clause_key(c)
            if key is None:
                index = None
                break
            index.setdefault(key, []).append(c)
        self._index[ind] = index
        return index

    def _index_add(self, ind, clause: Clause) -> None:
        index = self._index.get(ind)
        if index is None:  # not built, or not indexable
            return
        key = _clause_key(clause)
        if key is None:
            self._index[ind] = None
        else:
            index.setdefault(key, []).append(clause)

    def is_dynamic(self, ind) -> bool:
        return ind in self.dynamic

    def assert_clause(self, clause: Clause) -> None:
        """Runtime assertz; a first assert on an unknown indicator makes it dynamic."""
        ind = indicator(clause.head)
        if ind is None:
            raise EngineError("type", "assert of a non-callable term")
        bucket = self.preds.get(ind)
        if bucket is None:
            self.dynamic.add(ind)
            self.preds[ind] = [clause]
            return
        if ind not in self.dynamic:
            raise EngineError("permission", "assert on static predicate %s/%d" % ind)
        bucket.append(clause)
        self._index_add(ind, clause)

    def retract(self, ind, clause: Clause) -> None:
        """Remove one stored clause of `ind` from the list and its index."""
        self.preds[ind].remove(clause)
        if ind not in self._index:
            return
        index = self._index[ind]
        key = _clause_key(clause)
        if index is None:
            if key is None:  # the predicate may be indexable again
                del self._index[ind]
            return
        bucket = index[key]
        bucket.remove(clause)
        if not bucket:
            del index[key]

    def facts(self, name: str, arity: int) -> list:
        """Ground snapshot of the facts stored under name/arity."""
        out = []
        for c in self.preds.get((name, arity), []):
            body = deref(c.body)
            if isinstance(body, Atom) and body.name == "true":
                out.append(copy_term(c.head))
        return out


def _compile_skeleton(t: Term, slots: dict, names: list):
    """Code tree: (0, const) | (1, slot) | (2, name, arg codes)."""
    t = deref(t)
    tt = type(t)
    if tt is Var:
        idx = slots.get(id(t))
        if idx is None:
            idx = len(names)
            slots[id(t)] = idx
            names.append(t.name)
        return (1, idx)
    if tt is Struct:
        codes = tuple(_compile_skeleton(a, slots, names) for a in t.args)
        if all(c[0] == 0 for c in codes):
            return (0, t)
        return (2, t.name, codes)
    return (0, t)


def _build_skeleton(code, fresh):
    tag = code[0]
    if tag == 0:
        return code[1]
    if tag == 1:
        return fresh[code[1]]
    return Struct(code[1], tuple(_build_skeleton(c, fresh) for c in code[2]))


def _rename(clause: Clause):
    """Fresh-variable instance of a stored clause.

    Compiled once per clause: ground subterms are shared, only the
    variable-carrying spine is rebuilt.
    """
    code = getattr(clause, "code", None)
    if code is None:
        slots: dict = {}
        names: list = []
        hc = _compile_skeleton(clause.head, slots, names)
        bc = _compile_skeleton(clause.body, slots, names)
        code = clause.code = (hc, bc, names)
    hc, bc, names = code
    if not names:
        return clause.head, clause.body
    fresh = [Var(n) for n in names]
    return _build_skeleton(hc, fresh), _build_skeleton(bc, fresh)


def _first_arg_key(t: Term):
    """Index key of a first argument: an atom's name, an integer's value, or
    (name, key of each argument) for a flat ground compound; else None.

    It costs at most the arity of `t`, so every keyed call can afford it.
    """
    t = deref(t)
    tt = type(t)
    if tt is Atom:
        return t.name
    if tt is Int:
        return t.value
    if tt is not Struct:
        return None
    key = [t.name]
    for a in t.args:
        a = deref(a)
        ta = type(a)
        if ta is Atom:
            key.append(a.name)
        elif ta is Int:
            key.append(a.value)
        else:
            return None
    return tuple(key)


def _clause_key(clause: Clause):
    return _first_arg_key(deref(clause.head).args[0])


def _first_arg_shape(t: Term):
    """Functor and arity of a compound first argument, the key of an atom or
    integer, else None: the filter of calls that the index does not serve."""
    t = deref(t)
    if isinstance(t, Atom):
        return ("a", t.name)
    if isinstance(t, Int):
        return ("i", t.value)
    if isinstance(t, Struct):
        return ("s", t.name, len(t.args))
    return None


_UNBUILT = object()


class Solver:
    """`host`, if given, supplies environment builtins (networking, node
    identity): `host.lookup(name, arity)` returns `fn(solver, args) -> bool`
    or None."""

    def __init__(self, db: Database, limits: Optional[SolveLimits] = None,
                 host=None):
        self.db = db
        self.limits = limits or SolveLimits()
        self.host = host
        self.trail: list = []
        self.steps = 0
        self._barrier = itertools.count(1)

    # --- bindings ---

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            trail.pop().ref = None

    def bind(self, var: Var, term: Term) -> None:
        var.ref = term
        self.trail.append(var)

    def unify(self, a: Term, b: Term) -> bool:
        """Trails bindings; on failure the caller must undo to its mark."""
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x = deref(x)
            y = deref(y)
            if x is y:
                continue
            if isinstance(x, Var):
                self.bind(x, y)
            elif isinstance(y, Var):
                self.bind(y, x)
            elif isinstance(x, Atom):
                if not (isinstance(y, Atom) and y.name == x.name):
                    return False
            elif isinstance(x, Int):
                if not (isinstance(y, Int) and y.value == x.value):
                    return False
            elif isinstance(x, Struct):
                if not (isinstance(y, Struct) and y.name == x.name
                        and len(y.args) == len(x.args)):
                    return False
                stack.extend(zip(x.args, y.args))
            else:
                return False
        return True

    # --- resolution ---

    def prove(self, goal: Term, depth: int) -> Iterator[None]:
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise EngineError("step_limit", "resolution step budget exhausted")
        goal = deref(goal)
        if isinstance(goal, Var):
            raise EngineError("type", "unbound goal")
        if isinstance(goal, Int):
            raise EngineError("type", "integer is not callable")
        if isinstance(goal, Atom):
            key = (goal.name, 0)
            args: tuple = ()
        else:
            key = (goal.name, len(goal.args))
            args = goal.args
        control = _CONTROL.get(key)
        if control is not None:
            yield from control(self, args, depth)
            return
        builtin = _BUILTINS.get(key)
        if builtin is None and self.host is not None:
            builtin = self.host.lookup(*key)
        if builtin is not None:
            m = self.mark()
            if builtin(self, args):
                yield
            self.undo(m)
            return
        clauses = self.db.clauses_for(key, args[0] if args else None)
        if clauses is None:
            return
        barrier = next(self._barrier)
        gkey = _first_arg_shape(args[0]) if args else None
        for clause in list(clauses):
            if gkey is not None:
                head0 = clause.head
                if isinstance(head0, Struct):
                    ckey = _first_arg_shape(head0.args[0])
                    if ckey is not None and ckey != gkey:
                        continue
            m = self.mark()
            head, body = _rename(clause)
            if self.unify(goal, head):
                try:
                    yield from self.prove(body, barrier)
                except _Cut as cut:
                    if cut.depth == barrier:
                        self.undo(m)
                        return
                    raise
            self.undo(m)

    def solutions(self, goal: Term) -> Iterator[None]:
        """Yield once per solution of `goal`, its bindings in place.

        The goal runs under a cut barrier of its own: a cut in it ends its
        solutions, not those of the caller.  When the solutions run out,
        by failure or by a cut, every binding they made is undone.
        """
        barrier = next(self._barrier)
        m = self.mark()
        try:
            yield from self.prove(goal, barrier)
        except _Cut as cut:
            if cut.depth != barrier:
                raise
            self.undo(m)

    def first(self, goal: Term) -> bool:
        """One committed solution; bindings are kept on success."""
        for _ in self.solutions(goal):
            return True
        return False

    # --- public entry points ---

    def solve_first(self, goal: Term) -> Optional[dict]:
        qvars = [v for v in term_vars(goal) if v.name != "_"]
        m = self.mark()
        try:
            if self.first(goal):
                return {v.name: copy_term(v) for v in qvars}
            return None
        except RecursionError:
            raise EngineError("step_limit", "resolution depth exhausted") from None
        finally:
            self.undo(m)

    def solve_all(self, goal: Term) -> list:
        qvars = [v for v in term_vars(goal) if v.name != "_"]
        m = self.mark()
        try:
            return [{v.name: copy_term(v) for v in qvars}
                    for _ in self.solutions(goal)]
        except RecursionError:
            raise EngineError("step_limit", "resolution depth exhausted") from None
        finally:
            self.undo(m)


# --- arithmetic ---


def _check_int(v: int) -> int:
    if v < INT64_MIN or v > INT64_MAX:
        raise EngineError("arith", "integer overflow")
    return v


def arith_eval(t: Term) -> int:
    t = deref(t)
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Var):
        raise EngineError("type", "unbound variable in arithmetic")
    if isinstance(t, Struct):
        if len(t.args) == 1 and t.name == "-":
            return _check_int(-arith_eval(t.args[0]))
        if len(t.args) == 2:
            op = t.name
            x = arith_eval(t.args[0])
            y = arith_eval(t.args[1])
            if op == "+":
                return _check_int(x + y)
            if op == "-":
                return _check_int(x - y)
            if op == "*":
                return _check_int(x * y)
            if op == "//":
                if y == 0:
                    raise EngineError("arith", "division by zero")
                q = abs(x) // abs(y)
                return _check_int(-q if (x < 0) != (y < 0) else q)
            if op == "mod":
                if y == 0:
                    raise EngineError("arith", "division by zero")
                return _check_int(x % y)
    raise EngineError("type", "not an arithmetic expression")


# --- builtins that succeed at most once: fn(solver, args) -> bool ---


def _bi_true(s, args):
    return True


def _bi_fail(s, args):
    return False


def _bi_unify(s, args):
    return s.unify(args[0], args[1])


def _bi_struct_eq(s, args):
    return struct_eq(args[0], args[1])


def _bi_not_unifiable(s, args):
    # undo here: a failed unification may leave bindings behind, and this
    # builtin succeeds exactly then
    m = s.mark()
    ok = s.unify(args[0], args[1])
    s.undo(m)
    return not ok


def _bi_negation(s, args):
    return not s.first(args[0])


def _bi_is(s, args):
    return s.unify(args[0], Int(arith_eval(args[1])))


def _cmp(op):
    def bi(s, args):
        return op(arith_eval(args[0]), arith_eval(args[1]))
    return bi


def _bi_findall(s, args):
    template, goal, out = args
    results = [copy_term(template) for _ in s.solutions(goal)]
    return s.unify(out, mklist(results))


def _bi_count(s, args):
    goal, out = args
    n = sum(1 for _ in s.solutions(goal))
    return s.unify(out, Int(n))


def _split_clause(t: Term) -> Clause:
    t = deref(t)
    if isinstance(t, Struct) and t.name == ":-" and len(t.args) == 2:
        head = deref(t.args[0])
        if not isinstance(head, (Atom, Struct)):
            raise EngineError("type", "clause head is not callable")
        return Clause(head, t.args[1])
    if not isinstance(t, (Atom, Struct)):
        raise EngineError("type", "clause is not callable")
    return Clause(t, Atom("true"))


def _bi_assert(s, args):
    template = _split_clause(args[0])
    snapshot = Clause(copy_term(template.head), copy_term(template.body))
    s.db.assert_clause(snapshot)
    return True


# --- control constructs and builtins with several solutions:
# generators fn(solver, args, depth) ---


def _bi_cut(s, args, depth):
    yield
    raise _Cut(depth)


def _bi_and(s, args, depth):
    for _ in s.prove(args[0], depth):
        yield from s.prove(args[1], depth)


def _bi_or(s, args, depth):
    left = deref(args[0])
    if isinstance(left, Struct) and left.name == "->" and len(left.args) == 2:
        m = s.mark()
        if s.first(left.args[0]):
            yield from s.prove(left.args[1], depth)
            s.undo(m)
        else:
            yield from s.prove(args[1], depth)
        return
    yield from s.prove(args[0], depth)
    yield from s.prove(args[1], depth)


def _bi_if_then(s, args, depth):
    m = s.mark()
    if s.first(args[0]):
        yield from s.prove(args[1], depth)
    s.undo(m)


def _bi_member(s, args, depth):
    item = args[0]
    t = deref(args[1])
    while isinstance(t, Struct) and t.name == "." and len(t.args) == 2:
        m = s.mark()
        if s.unify(item, t.args[0]):
            yield
        s.undo(m)
        t = deref(t.args[1])


def _bi_retract(s, args, depth):
    template = _split_clause(args[0])
    ind = indicator(template.head)
    first = template.head.args[0] if isinstance(template.head, Struct) else None
    candidates = s.db.clauses_for(ind, first)
    if candidates is None:
        return
    if not s.db.is_dynamic(ind):
        raise EngineError("permission", "retract on static predicate %s/%d" % ind)
    live = s.db.preds[ind]
    for clause in list(candidates):
        if not any(c is clause for c in live):
            continue  # retracted since this call began
        m = s.mark()
        head, body = _rename(clause)
        if s.unify(template.head, head) and s.unify(template.body, body):
            s.db.retract(ind, clause)
            yield
        s.undo(m)


_BUILTINS = {
    ("true", 0): _bi_true,
    ("fail", 0): _bi_fail,
    ("false", 0): _bi_fail,
    ("=", 2): _bi_unify,
    ("==", 2): _bi_struct_eq,
    ("\\=", 2): _bi_not_unifiable,
    ("\\+", 1): _bi_negation,
    ("is", 2): _bi_is,
    ("=:=", 2): _cmp(_op.eq),
    ("<", 2): _cmp(_op.lt),
    (">", 2): _cmp(_op.gt),
    ("=<", 2): _cmp(_op.le),
    (">=", 2): _cmp(_op.ge),
    ("findall", 3): _bi_findall,
    ("count", 2): _bi_count,
    ("assert", 1): _bi_assert,
}

_CONTROL = {
    ("!", 0): _bi_cut,
    (",", 2): _bi_and,
    (";", 2): _bi_or,
    ("->", 2): _bi_if_then,
    ("member", 2): _bi_member,
    ("retract", 1): _bi_retract,
}
