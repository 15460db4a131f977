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
    """Structural identity (`==`): equal shapes, and a variable equals only itself."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        if x is y:
            continue
        if isinstance(x, Var) or isinstance(y, Var):
            return False
        if isinstance(x, Atom):
            if not (isinstance(y, Atom) and x.name == y.name):
                return False
        elif isinstance(x, Int):
            if not (isinstance(y, Int) and x.value == y.value):
                return False
        elif isinstance(x, Struct):
            if not (isinstance(y, Struct) and y.name == x.name
                    and len(y.args) == len(x.args)):
                return False
            stack.extend(zip(x.args, y.args))
        else:
            return False
    return True


def term_vars(t: Term) -> list:
    """Unbound variables of t in order of first occurrence."""
    seen = {}  # a Var hashes by identity; a dict keeps the order of insertion
    stack = [t]
    while stack:
        x = deref(stack.pop())
        if isinstance(x, Var):
            seen[x] = None
        elif isinstance(x, Struct):
            stack.extend(reversed(x.args))
    return list(seen)


def copy_term(t: Term, mapping: Optional[dict] = None) -> Term:
    """Copy with fresh variables (a snapshot independent of the trail).

    Walks with an explicit stack, so the depth of a term (the length of a
    list) is not bounded by the interpreter's recursion limit.
    """
    if mapping is None:
        mapping = {}
    done: list = []  # copies, in order
    # terms still to copy; a (name, arity) entry builds a compound from the
    # last `arity` copies
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            name, n = x
            args = tuple(done[-n:])
            del done[-n:]
            done.append(Struct(name, args))
            continue
        x = deref(x)
        if isinstance(x, Var):
            got = mapping.get(id(x))
            if got is None:
                got = Var(x.name)
                mapping[id(x)] = got
            done.append(got)
        elif isinstance(x, Struct):
            todo.append((x.name, len(x.args)))
            todo.extend(reversed(x.args))
        else:
            done.append(x)
    return done[0]
