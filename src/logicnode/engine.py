r"""Depth-first resolution over a dynamic clause database.

`Solver.solutions` runs a goal in one loop over a goal list of linked frames
(goal, slots, cut height, rest) and a stack of choicepoints, after Warren's
abstract machine; bindings are undone through a trail.  A choicepoint is
data, (trail mark, resume, state, goal list), as in the WAM's try / retry /
trust: with `resume` None the goal list is the alternative, else
`resume(solver, state, goal list, choicepoints)` returns it and pushes the
next choicepoint.  A cut drops the choicepoints made since its clause was
called.  `( C -> T ; E )` and `( C -> T )` run in the same loop: a
choicepoint keeps `E`, `C` runs with its cut height above it, and a commit
marker after `C` (not a step) drops the choicepoints back to the height
before it; `\+ G` runs as `( G -> fail ; true )`.  A goal whose solutions
are collected (`findall`, `count`, `sendall`) runs above a barrier
choicepoint, its cut height above it; a collector marker after it (not a
step) records one solution and fails, and the barrier's resume finishes the
builtin.  So only `solve_first` and `solve_all` enter `solutions`, no goal
takes Python stack, and `SolveLimits` alone bounds nesting.

A `Database` keeps one `Predicate` record per indicator: its clauses in
database order, its first-argument index, and its `dynamic`, `event` and
`alarm` declarations.  A call of a predicate without clauses fails quietly:
handler programs routinely query predicates before the first matching
assert.  A predicate is static when it holds clauses and is not dynamic, and
only then do `assert` and `retract` raise `permission`; a first assert makes
a predicate dynamic.

Each clause is compiled once (`_rename`) into patterns over an array of
variable slots: a slot number for a variable, the term itself for a ground
subterm, and a `Pattern` (a `Struct` whose arguments are patterns) for a
compound that holds a variable, so every walker reads a compound by its
`name` and `args`, pattern or term alike.  A call matches the head patterns
against its arguments directly: a slot met for the first time takes the
argument as it is, a ground pattern is compared or bound, and a compound
pattern is matched argument by argument or, against an unbound variable,
built.  A fact's body `true` is proved there, as one step; another body
goes on the goal list as a pattern with the call's slots, and `,`, `;` and
`->` are taken apart there.  A call passes a slot's value or an atomic
pattern as it is, and builds only a compound argument, or a variable for a
slot's first use.  `is/2` and the comparisons build no expression:
`arith_eval` reads their patterns over the slots.  A goal that is a term (a
query, or a variable's value) is its own pattern: it holds no slot.

`Solver._match` is the only unifier.  It takes patterns or plain terms, so
head matching, `retract`, `=`, `Solver.unify` (`\=`, `member` and the
builtins) and `==` all run in it.  Its two lines that bind a variable and
the one in `solutions` that binds a slot's new variable for `=`, each after
trailing it, are the only places that bind one, and `undo` the only place
that resets one.  Before `_match` binds a variable to a compound, an occurs
check walks the compound and fails the unification if the variable is in it,
so no cyclic term can be built and every walk of a term ends; `=` builds its
right side first, so a slot's new variable is not in it.  `==` is
unification that binds nothing: a trail that did not grow.

Every builtin but `=/2`, `is/2` and the comparisons is an entry of one
table, `BUILTINS` (a `Node` merges its own and `NodeConfig.extra_builtins`
under it).  One that succeeds at most once (the tests, `assert`, the node's)
is a function `fn(solver, args) -> bool`.  One with several solutions
(`member/2`, `retract/1`) returns (resume, state) instead, resumed at once
for its first solution.  An all-solutions builtin (`findall`, `count`,
`sendall`) is a tuple: the index of its goal argument, `record(solver,
args)`, which returns one solution's note while its bindings hold, and
`finish(solver, args, notes) -> bool`, called once they are undone.

Clauses are indexed on their first argument, after Warren's first-argument
switch.  A first argument has a key when it is an atom, an integer, or a
flat ground compound (one whose arguments are all atoms or integers, such
as `5-1`); two keys are equal exactly when the terms are `==`.  Each
predicate's index files every clause in buckets by its own first argument:
a variable under None, an atom, an integer or a keyed compound under its
key, and a compound also under its functor, with a compound without a key
under its functor's keyless bucket as well.  So a clause sits in at most two
buckets, and the index grows with the stored clauses, not with the calls.  A
call whose first argument is an atom or an integer reads its key's bucket
and the variable clauses; a keyed compound also reads its functor's keyless
bucket; a compound without a key (a list cell, `finger(I)`) reads its
functor's bucket and the variable clauses.  When more than one of these is
non-empty, they are merged by the stamp each filing got, which is database
order.  A call with an unbound first argument tries the whole predicate.
The index is built on the first call with a bound first argument, and from
then on `assert`, consult-time loading and `retract` keep it current.
"""

from __future__ import annotations

import operator as _op
from itertools import chain, count
from typing import Iterator, Optional, Sequence

from .reader import Clause, Program
from .terms import (
    Atom, INT64_MAX, INT64_MIN, Int, Struct, Term, Var,
    copy_term, deref, indicator, mklist, term_vars,
)


class EngineError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__("%s: %s" % (kind, message))
        self.kind = kind
        self.message = message


class Pattern(Struct):
    """A compound of a compiled clause that holds a variable, over patterns.
    It never leaves the engine: builtins, slots and answers get built terms."""

    __slots__ = ()


class SolveLimits:
    __slots__ = ("max_steps",)

    def __init__(self, max_steps: int = 1_000_000):
        self.max_steps = max_steps


class Predicate(list):
    """A predicate's clauses in database order, its declarations, and its
    index: None until first used, then {bucket key: (clauses, stamps)}.  A
    clause is filed under at most two keys (`_bucket_keys`), each filing with
    a stamp from `Database._stamps`, so a call that reads several buckets
    merges them back into database order."""

    __slots__ = ("index", "dynamic", "event", "alarm")

    def __init__(self):  # `list` makes the empty list
        self.index = None
        self.dynamic = self.event = self.alarm = False


class Database:
    """A `Predicate` record per indicator (name, arity)."""

    def __init__(self):
        self.preds: dict = {}  # (name, arity) -> Predicate
        self._stamps = count()

    def load_program(self, prog: Program) -> None:
        for d in prog.directives:
            for ind in d.indicators:
                setattr(self.preds.setdefault(ind, Predicate()), d.kind, True)
        for c in prog.clauses:
            self.add_clause(c)

    def add_clause(self, clause: Clause) -> Predicate:
        """Consult-time load, static unless declared dynamic; returns the record."""
        ind = indicator(clause.head)
        if ind is None:
            raise EngineError("type", "clause head is not callable")
        pred = self.preds.get(ind)
        if pred is None:
            pred = self.preds[ind] = Predicate()
        pred.append(clause)
        if pred.index is not None:
            self._file(pred.index, clause)
        return pred

    def _file(self, index: dict, clause: Clause) -> None:
        stamp = next(self._stamps)
        for key in _bucket_keys(clause):
            bucket = index.get(key)
            if bucket is None:  # most keys hold one clause: no spare room
                index[key] = ([clause], [stamp])
            else:
                bucket[0].append(clause)
                bucket[1].append(stamp)

    def clauses_for(self, ind, first: Optional[Term] = None) -> Optional[Sequence]:
        """The clauses, in database order, that a call of `ind` whose first
        argument is `first` must try; None for an unknown predicate.

        A list is live, and callers iterate a copy; a merge is a new tuple.
        """
        pred = self.preds.get(ind)
        if pred is None or first is None:
            return pred
        first = deref(first)
        if type(first) is Var:
            return pred
        index = pred.index
        if index is None:
            index = pred.index = {}
            for c in pred:
                self._file(index, c)
        key = _first_arg_key(first)
        if type(first) is not Struct:
            found = (index.get(key), index.get(None))
        elif key is None:  # a compound with an unbound or compound argument
            found = (index.get((len(first.args), first.name)), index.get(None))
        else:
            found = (index.get(key), index.get((None, len(first.args), first.name)),
                     index.get(None))
        one = None
        for bucket in found:
            if bucket is not None:
                if one is not None:  # merge them by their stamps
                    return tuple(c for _, c in sorted(chain.from_iterable(
                        zip(b[1], b[0]) for b in found if b is not None)))
                one = bucket
        return () if one is None else one[0]

    def writable(self, ind, what: str) -> Optional[Predicate]:
        """The record of `ind`, or None; raises if the predicate is static."""
        pred = self.preds.get(ind)
        if pred and not pred.dynamic:  # static: it holds clauses and is not dynamic
            raise EngineError("permission", "%s on static predicate %s/%d" % (what, *ind))
        return pred

    def assert_clause(self, clause: Clause) -> None:
        """Runtime assertz; a first assert makes the predicate dynamic."""
        self.writable(indicator(clause.head), "assert")
        self.add_clause(clause).dynamic = True

    def retract(self, pred: Predicate, clause: Clause) -> bool:
        """Remove the oldest stored copy of a clause from `pred` and its
        index; False if it was no longer stored."""
        try:
            pred.remove(clause)
        except ValueError:
            return False
        if pred.index is not None:  # its oldest filing is first in each bucket too
            for key in _bucket_keys(clause):
                clauses, stamps = pred.index[key]
                if len(clauses) == 1:
                    del pred.index[key]
                else:
                    i = clauses.index(clause)
                    del clauses[i], stamps[i]
        return True

    def facts(self, name: str, arity: int) -> list:
        """Ground snapshot of the facts stored under name/arity."""
        return [copy_term(c.head) for c in self.preds.get((name, arity), ())
                if deref(c.body) == _TRUE]


def _rename(clause: Clause) -> tuple:
    """The compiled code of a stored clause, compiled on its first call:
    (slot count, head argument patterns, body pattern).

    Called once per clause a call or a `retract` tries.
    """
    code = getattr(clause, "code", None)
    if code is None:
        head = deref(clause.head)
        nslots, patterns = _patterns((head.args if type(head) is Struct else ())
                                     + (clause.body,))
        body = patterns[-1]
        if type(body) is Atom and body.name == "true":
            body = _TRUE  # `_try_clauses` tells a fact by it
        code = clause.code = (nslots, patterns[:-1], body)
    return code


def _patterns(terms: tuple) -> tuple:
    """(slot count, the pattern of each term)."""
    slots: dict = {}  # id of a variable -> its slot
    done: list = []  # patterns, in order
    # terms still to compile; a 1-tuple (compound,) marker makes that
    # compound's pattern from the last patterns, one per argument: a `Pattern`
    # if one of them is a slot or a `Pattern`, else the compound itself
    todo = list(reversed(terms))
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t = t[0]
            n = len(t.args)
            args = tuple(done[-n:])
            del done[-n:]
            if any(type(a) is int or type(a) is Pattern for a in args):
                done.append(Pattern(t.name, args))
            else:
                done.append(t)  # ground: shared by every call
            continue
        t = deref(t)
        if type(t) is Var:
            done.append(slots.setdefault(id(t), len(slots)))
        elif type(t) is Struct:
            todo.append((t,))
            todo.extend(reversed(t.args))
        else:
            done.append(t)
    return len(slots), tuple(done)


def _build(p, slots: list) -> Term:
    """The term that pattern `p` stands for; a slot met for the first time
    gets a fresh variable."""
    if type(p) is int:  # most calls: a slot's first use
        v = slots[p]
        if v is None:
            v = slots[p] = Var("_G")
        return v
    done: list = []
    # patterns still to build; a `Pattern` leaves a (name, n) marker under
    # its arguments, which makes a `Struct` of the last n terms built
    todo = [p]
    while todo:
        x = todo.pop()
        tx = type(x)
        if tx is int:
            v = slots[x]
            if v is None:
                v = slots[x] = Var("_G")
            done.append(v)
        elif tx is Pattern:
            todo.append((x.name, len(x.args)))
            todo.extend(reversed(x.args))
        elif tx is tuple:
            name, n = x
            args = tuple(done[-n:])
            del done[-n:]
            done.append(Struct(name, args))
        else:
            done.append(x)
    return done[0]


def _occurs(v: Var, t: Struct) -> bool:
    """Whether unbound `v` occurs in `t`; an explicit stack, so any depth."""
    todo = [t.args]
    while todo:
        for x in todo.pop():
            while type(x) is Var:  # deref; an unbound one ends it at None
                if x is v:
                    return True
                x = x.ref
            if type(x) is Struct:
                todo.append(x.args)
    return False


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


def _bucket_keys(clause: Clause) -> tuple:
    """The keys of the buckets a clause is filed under: its first argument's
    key, None for a variable; for a compound, also its functor (arity, name),
    and (None, arity, name) in place of a key it does not have.  Keys of
    different kinds never clash: a compound's key starts with its name, a
    functor with its arity."""
    first = deref(deref(clause.head).args[0])
    key = _first_arg_key(first)
    if type(first) is not Struct:
        return (key,)
    functor = (len(first.args), first.name)
    return (functor, (None,) + functor if key is None else key)


_TRUE = Atom("true")  # the body of every compiled fact
_FAIL = object()  # stands in for a goal list: no solution, backtrack
_COMMIT = object()  # a goal that ends an if-then-else condition or a negation
_COLLECT = object()  # a goal that records one solution of a collected goal


class Solver:
    """`builtins` maps (name, arity) to a builtin of one of the three kinds
    above; it defaults to `BUILTINS`, and a `Node` passes `BUILTINS` merged
    over its own."""

    def __init__(self, db: Database, limits: Optional[SolveLimits] = None,
                 builtins: Optional[dict] = None):
        self.db = db
        self.limits = limits or SolveLimits()
        self.builtins = BUILTINS if builtins is None else builtins
        self.trail: list = []
        self.steps = 0

    # --- bindings ---

    def undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            trail.pop().ref = None

    def unify(self, a: Term, b: Term) -> bool:
        """Trails bindings; on failure the caller must undo to its mark."""
        return self._match((a,), (b,), None)

    def _match(self, pats, args, slots: Optional[list]) -> bool:
        """Unify the terms `args` with `pats` over `slots`: patterns, or
        plain terms (which hold no slot, so `slots` may be None).
        Trails bindings; on failure the caller must undo to its mark."""
        trail = self.trail
        todo: list = []  # (patterns, terms) of compounds still to match
        while True:
            for p, t in zip(pats, args):
                tp = type(p)
                if tp is int:  # a slot: its first use takes the term as it is
                    v = slots[p]
                    if v is None:
                        slots[p] = t
                        continue
                    p = v
                    tp = type(p)
                if tp is Var:
                    p = deref(p)
                    tp = type(p)
                t = deref(t)
                if p is t:
                    continue
                # two of the three lines that bind a variable (`=` has one),
                # each after it is trailed and checked not to occur in its value
                if type(t) is Var:
                    if tp is Pattern:
                        p = _build(p, slots)
                    if type(p) is Struct and _occurs(t, p):
                        return False
                    trail.append(t)
                    t.ref = p
                elif tp is Var:
                    if type(t) is Struct and _occurs(p, t):
                        return False
                    trail.append(p)
                    p.ref = t
                elif tp is Atom:
                    if not (type(t) is Atom and t.name == p.name):
                        return False
                elif tp is Int:
                    if not (type(t) is Int and t.value == p.value):
                        return False
                elif (type(t) is Struct and t.name == p.name
                      and len(t.args) == len(p.args)):  # p is a Struct or a Pattern
                    todo.append((p.args, t.args))
                else:
                    return False
            if not todo:
                return True
            pats, args = todo.pop()

    # --- resolution ---

    def solutions(self, goal: Term) -> Iterator[None]:
        """Yield once per solution of `goal`, its bindings in place.

        A cut in `goal` ends its solutions.  When the solutions run out, by
        failure or by a cut, every binding they made is undone.
        """
        trail = self.trail
        builtins = self.builtins
        max_steps = self.limits.max_steps
        base = len(trail)
        # choicepoints: (trail mark, resume, state, goal list); with `resume`
        # None the goal list is the alternative (an else branch, a right
        # disjunct), else `resume` is `_try_clauses`, `_finish` (a barrier:
        # [record, finish, args, notes]) or a builtin's
        cps: list = []
        goals = (goal, None, 0, None)  # goal list: (goal, slots, cut height, rest)
        while True:
            if goals is None:  # every goal is proved
                yield
                goals = _FAIL
            if goals is _FAIL:  # resume the newest choicepoint
                if not cps:
                    self.undo(base)
                    return
                mark, resume, state, rest = cps.pop()
                self.undo(mark)
                goals = rest if resume is None else resume(self, state, rest, cps)
                continue
            goal, slots, height, rest = goals
            if goal is _COMMIT:
                del cps[height:]
                goals = rest
                continue
            if goal is _COLLECT:  # slots: the barrier of the goal that ran
                slots[3].append(slots[0](self, slots[2]))
                goals = _FAIL
                continue
            self.steps += 1
            if self.steps > max_steps:
                raise EngineError("step_limit", "resolution step budget exhausted")
            tg = type(goal)
            if tg is int or tg is Var:  # a variable: call its value
                goal = deref(goal if tg is Var else slots[goal])
                tg = type(goal)
            if tg is Struct or tg is Pattern:
                name = goal.name
                args = goal.args
            elif tg is Atom:
                name = goal.name
                args = ()
            else:
                raise EngineError("type", "integer is not callable" if tg is Int
                                  else "unbound goal")
            arity = len(args)
            if arity == 2 and name == ",":
                goals = (args[0], slots, height, (args[1], slots, height, rest))
            elif arity == 0 and name == "!":
                del cps[height:]
                goals = rest
            elif arity == 2 and name == ";":
                left = deref(slots[args[0]] if type(args[0]) is int else args[0])
                tl = type(left)
                cond = (left.args if (tl is Struct or tl is Pattern) and left.name == "->"
                        and len(left.args) == 2 else None)
                cps.append((len(trail), None, None, (args[1], slots, height, rest)))
                if cond is None:
                    goals = (left, slots, height, rest)
                else:
                    goals = (cond[0], slots, len(cps), (_COMMIT, None, len(cps) - 1,
                                                       (cond[1], slots, height, rest)))
            elif arity == 2 and name == "->":
                goals = (args[0], slots, len(cps), (_COMMIT, None, len(cps),
                                                   (args[1], slots, height, rest)))
            elif arity == 1 and name == "\\+":
                cps.append((len(trail), None, None, rest))
                goals = (args[0], slots, len(cps), (_COMMIT, None, len(cps) - 1, _FAIL))
            elif arity == 2 and name == "=":  # built first, `right` holds no newer variable
                left, right = args
                if type(right) is int or type(right) is Pattern:
                    right = _build(right, slots)
                if type(left) is int and slots[left] is None:  # no occurs walk; trailed,
                    v = slots[left] = Var("_G")  # as backtracking resets no slot
                    trail.append(v)
                    v.ref = right
                    goals = rest
                else:  # built too: `_match` would store into a first-use slot
                    goals = rest if self._match((_build(left, slots),), (right,), None) else _FAIL
            elif arity == 2 and name in _ARITH:  # evaluated over the slots
                test = _ARITH[name]
                if test is None:  # R is E; R built, so backtracking unbinds it
                    ok = self._match((_build(args[0], slots),),
                                     (Int(arith_eval(args[1], slots)),), None)
                else:
                    ok = test(arith_eval(args[0], slots), arith_eval(args[1], slots))
                goals = rest if ok else _FAIL
            else:
                if tg is Pattern:  # build only compounds; a slot's first use makes a variable
                    args = [(slots[p] or _build(p, slots)) if type(p) is int
                            else _build(p, slots) if type(p) is Pattern else p for p in args]
                key = (name, arity)
                builtin = builtins.get(key)
                if type(builtin) is tuple:  # collect the solutions above a barrier
                    barrier = [builtin[1], builtin[2], args, []]
                    cps.append((len(trail), Solver._finish, barrier, rest))
                    goals = (args[builtin[0]], None, len(cps), (_COLLECT, barrier, 0, None))
                    continue
                if builtin is not None:
                    got = builtin(self, args)
                    if type(got) is tuple:  # (resume, state) of its first solution
                        goals = got[0](self, got[1], rest, cps)
                    else:
                        goals = rest if got else _FAIL
                    continue
                # a live bucket list is copied, so clauses asserted or retracted
                # during the call do not change it; `tuple` keeps a merge as it is
                clauses = tuple(self.db.clauses_for(key, args[0] if args else None) or ())
                goals = self._try_clauses((args, clauses, 0), rest, cps)

    def _try_clauses(self, state: tuple, rest, cps: list):
        """Resume a call, state (args, candidates, i), at the first of
        `candidates[i:]` whose head matches; a body `true` is proved here."""
        args, candidates, i = state
        height = len(cps)
        n = len(candidates)
        trail = self.trail
        while i < n:
            mark = len(trail)
            nslots, heads, body = _rename(candidates[i])
            i += 1
            slots = [None] * nslots
            if self._match(heads, args, slots):
                if i < n:
                    cps.append((mark, Solver._try_clauses, (args, candidates, i), rest))
                if body is not _TRUE:
                    return (body, slots, height, rest)
                self.steps += 1
                if self.steps > self.limits.max_steps:
                    raise EngineError("step_limit", "resolution step budget exhausted")
                return rest
            self.undo(mark)
        return _FAIL

    def _finish(self, barrier: list, rest, cps: list):
        """Resume a barrier: its goal's solutions are used up."""
        return rest if barrier[1](self, barrier[2], barrier[3]) else _FAIL

    # --- public entry points ---

    def solve_first(self, goal: Term, answer: bool = True) -> Optional[dict]:
        """The first solution of `goal` as {variable name: a copy of its
        value}, or None when it has none; its bindings are undone either way.
        With `answer` False the solution is `{}`: a caller that only asks
        whether one exists (a node's dispatch, `SimNetwork.holds`) pays for
        no walk of the goal's variables and no copy."""
        qvars = [v for v in term_vars(goal) if v.name != "_"] if answer else ()
        m = len(self.trail)
        try:
            for _ in self.solutions(goal):
                return {v.name: copy_term(v) for v in qvars}
            return None
        finally:
            self.undo(m)

    def solve_all(self, goal: Term) -> list:
        qvars = [v for v in term_vars(goal) if v.name != "_"]
        m = len(self.trail)
        try:
            return [{v.name: copy_term(v) for v in qvars}
                    for _ in self.solutions(goal)]
        finally:
            self.undo(m)


# --- arithmetic ---


def _check_int(v: int) -> int:
    if v < INT64_MIN or v > INT64_MAX:
        raise EngineError("arith", "integer overflow")
    return v


def arith_eval(p, slots: Optional[list]) -> int:
    """Value of the arithmetic expression that pattern `p` stands for over
    `slots`, evaluated left to right; a term is its own pattern, so `slots`
    may then be None.  No term is built.

    Walks with an explicit stack, so the depth of an expression is not
    bounded by the interpreter's recursion limit.
    """
    if type(p) is int:  # a slot: None until its first use
        p = slots[p]
    if type(p) is Var:
        p = deref(p)
    if type(p) is Int:  # most comparisons and many `is` goals
        return p.value
    values: list = []
    # patterns still to evaluate (a `Pattern` reads as its term's `Struct`);
    # an (operator, arity) marker applies an operator to the last `arity` values
    todo: list = [p]
    while todo:
        x = todo.pop()
        tx = type(x)
        if tx is int:
            x = slots[x]
            tx = type(x)
        if tx is Var:
            x = deref(x)
            tx = type(x)
        if tx is Int:
            values.append(x.value)
            continue
        if tx is tuple:  # an operator
            name, arity = x
            if arity == 1:  # negation
                values.append(_check_int(-values.pop()))
                continue
            y = values.pop()
            v = values.pop()
            if name == "+":
                v += y
            elif name == "-":
                v -= y
            elif name == "*":
                v *= y
            elif name != "//" and name != "mod":
                raise EngineError("type", "not an arithmetic expression")
            elif y == 0:
                raise EngineError("arith", "division by zero")
            elif name == "mod":
                v %= y
            else:  # truncates toward zero
                v = abs(v) // abs(y) * (-1 if (v < 0) != (y < 0) else 1)
            values.append(_check_int(v))
            continue
        if tx is Struct or tx is Pattern:
            name, args = x.name, x.args
        elif x is None or tx is Var:
            raise EngineError("type", "unbound variable in arithmetic")
        else:
            raise EngineError("type", "not an arithmetic expression")
        if len(args) == 1 and name == "-":
            todo.append(("-", 1))
            todo.append(args[0])
        elif len(args) == 2:
            todo.append((name, 2))
            todo.append(args[1])
            todo.append(args[0])
        else:
            raise EngineError("type", "not an arithmetic expression")
    return values[0]


# the arithmetic goals of arity 2, which `Solver.solutions` evaluates over
# the goal's slots: a comparison's test, None for `is`
_ARITH = {"is": None, "=:=": _op.eq, "<": _op.lt, ">": _op.gt, "=<": _op.le,
          ">=": _op.ge}


# --- builtins that succeed at most once: fn(solver, args) -> bool ---


def _bi_identical(s, args):
    # identical terms unify without binding anything
    m = len(s.trail)
    same = s.unify(args[0], args[1]) and len(s.trail) == m
    s.undo(m)
    return same


def _bi_not_unifiable(s, args):
    # undo here: a failed unification may leave bindings behind, and this
    # builtin succeeds exactly then
    m = len(s.trail)
    ok = s.unify(args[0], args[1])
    s.undo(m)
    return not ok


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
    mapping: dict = {}  # one mapping: the head and the body share variables
    snapshot = Clause(copy_term(template.head, mapping),
                      copy_term(template.body, mapping))
    s.db.assert_clause(snapshot)
    return True


# --- builtins with several solutions: fn(solver, args) -> (resume, state),
# and resume(solver, state, goal list, choicepoints) as `Solver._try_clauses` ---


def _member(s, state, rest, cps):
    """Resume `member/2`, state (item, list), at the list's first cell."""
    item, t = state[0], deref(state[1])
    while type(t) is Struct and t.name == "." and len(t.args) == 2:
        mark = len(s.trail)
        if s.unify(item, t.args[0]):
            cps.append((mark, _member, (item, t.args[1]), rest))
            return rest
        s.undo(mark)
        t = deref(t.args[1])
    return _FAIL


def _bi_retract(s, args):
    template = _split_clause(args[0])
    ind = indicator(template.head)
    targs = template.head.args if isinstance(template.head, Struct) else ()
    candidates = s.db.clauses_for(ind, targs[0] if targs else None)
    pred = s.db.writable(ind, "retract")
    return _retract, (targs, template.body, pred, tuple(candidates or ()), 0)


def _retract(s, state, rest, cps):
    """Resume `retract/1`, state (head args, body, pred, candidates, i)."""
    targs, tbody, pred, candidates, i = state
    for i in range(i, len(candidates)):
        mark = len(s.trail)
        nslots, heads, body = _rename(candidates[i])
        slots = [None] * nslots
        # a clause retracted since this call began is no longer stored
        if (s._match(heads, targs, slots) and s._match((body,), (tbody,), slots)
                and s.db.retract(pred, candidates[i])):
            cps.append((mark, _retract, (targs, tbody, pred, candidates, i + 1), rest))
            return rest
        s.undo(mark)
    return _FAIL


BUILTINS = {
    ("true", 0): lambda s, args: True,
    ("fail", 0): lambda s, args: False,
    ("false", 0): lambda s, args: False,
    ("==", 2): _bi_identical,
    ("\\=", 2): _bi_not_unifiable,
    ("assert", 1): _bi_assert,
    ("member", 2): lambda s, args: (_member, args),
    ("retract", 1): _bi_retract,
    # all solutions: (goal argument, record, finish)
    ("findall", 3): (1, lambda s, args: copy_term(args[0]),
                     lambda s, args, notes: s.unify(args[2], mklist(notes))),
    ("count", 2): (0, lambda s, args: None,
                   lambda s, args, notes: s.unify(args[1], Int(len(notes)))),
}
