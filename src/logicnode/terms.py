"""First-order terms: the universal datum of programs, messages and facts.

Variables are mutable binding cells; everything else is immutable.  Bindings
are only ever installed and undone by the solver's trail, so terms can be
shared freely between structures on the same node.
"""

from __future__ import annotations

import itertools
from typing import Optional

_fresh_ids = itertools.count(1)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Term:
    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "ref")

    def __init__(self, name: Optional[str] = None):
        if name is None:
            name = "_G%d" % next(_fresh_ids)
        self.name = name
        self.ref: Optional[Term] = None

    def __repr__(self):
        return "Var(%s)" % self.name


class Atom(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self):
        return hash(("atom", self.name))

    def __repr__(self):
        return "Atom(%s)" % self.name


class Int(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Int) and other.value == self.value

    def __hash__(self):
        return hash(("int", self.value))

    def __repr__(self):
        return "Int(%d)" % self.value


class Struct(Term):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args):
        self.name = name
        self.args = tuple(args)
        if not self.args:
            raise ValueError("compound term needs at least one argument")

    def __repr__(self):
        return "Struct(%s/%d)" % (self.name, len(self.args))


EMPTY_LIST = Atom("[]")
TRUE = Atom("true")


def deref(t: Term) -> Term:
    while type(t) is Var:
        r = t.ref
        if r is None:
            return t
        t = r
    return t


def mklist(items, tail: Term = EMPTY_LIST) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = Struct(".", (item, out))
    return out


def list_parts(t: Term):
    """Split a list term into (items, tail); tail is [] for proper lists."""
    items = []
    t = deref(t)
    while isinstance(t, Struct) and t.name == "." and len(t.args) == 2:
        items.append(deref(t.args[0]))
        t = deref(t.args[1])
    return items, t


def indicator(t: Term):
    t = deref(t)
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Struct):
        return (t.name, len(t.args))
    return None


def struct_eq(a: Term, b: Term) -> bool:
    a = deref(a)
    b = deref(b)
    if isinstance(a, Var) or isinstance(b, Var):
        return a is b
    if isinstance(a, Atom):
        return isinstance(b, Atom) and a.name == b.name
    if isinstance(a, Int):
        return isinstance(b, Int) and a.value == b.value
    if isinstance(a, Struct):
        if not (isinstance(b, Struct) and b.name == a.name and len(b.args) == len(a.args)):
            return False
        return all(struct_eq(x, y) for x, y in zip(a.args, b.args))
    return False


def term_vars(t: Term) -> list:
    """Unbound variables of t in order of first occurrence."""
    seen = []
    stack = [t]
    while stack:
        x = deref(stack.pop())
        if isinstance(x, Var):
            if not any(x is v for v in seen):
                seen.append(x)
        elif isinstance(x, Struct):
            stack.extend(reversed(x.args))
    return seen


def copy_term(t: Term, mapping: Optional[dict] = None) -> Term:
    """Copy with fresh variables (a snapshot independent of the trail)."""
    if mapping is None:
        mapping = {}

    def go(x: Term) -> Term:
        x = deref(x)
        if isinstance(x, Var):
            got = mapping.get(id(x))
            if got is None:
                got = Var(x.name)
                mapping[id(x)] = got
            return got
        if isinstance(x, Struct):
            return Struct(x.name, tuple(go(a) for a in x.args))
        return x

    return go(t)


def is_ground(t: Term) -> bool:
    return not term_vars(t)
