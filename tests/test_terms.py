from logicnode.engine import Database, Solver
from logicnode.terms import (
    Atom, EMPTY_LIST, INT64_MAX, INT64_MIN, Int, Struct, Var, copy_term,
    deref, list_parts, mklist, term_vars)


def identical(a, b):
    """Whether the `==` builtin holds between `a` and `b`."""
    return Solver(Database()).solve_first(Struct("==", (a, b))) is not None


def test_deref_follows_chains():
    a, b = Var("A"), Var("B")
    a.ref = b
    b.ref = Int(3)
    assert deref(a) == Int(3)


def test_mklist_roundtrip():
    items = [Atom("a"), Int(1), Atom("b")]
    t = mklist(items)
    got, tail = list_parts(t)
    assert got == items
    assert tail is EMPTY_LIST


def test_term_vars_first_occurrence_order():
    x, y = Var("X"), Var("Y")
    t = Struct("f", (x, Struct("g", (y, x))))
    assert term_vars(t) == [x, y]


def test_copy_term_shares_mapping():
    x = Var("X")
    t = Struct("f", (x, x))
    c = copy_term(t)
    assert c.args[0] is c.args[1]
    assert c.args[0] is not x


def test_copy_term_snapshots_bindings():
    x = Var("X")
    x.ref = Atom("bound")
    c = copy_term(Struct("f", (x,)))
    x.ref = None
    assert c.args[0] == Atom("bound")


def test_copy_and_compare_a_long_list():
    x = Var("X")
    long = mklist([Int(i) for i in range(99_999)] + [x])
    copy = copy_term(long)
    items, tail = list_parts(copy)
    assert [t.value for t in items[:-1]] == list(range(99_999))
    assert isinstance(items[-1], Var) and items[-1] is not x
    assert tail == EMPTY_LIST
    assert identical(long, long)
    assert not identical(long, copy)  # the last variables differ
    assert identical(copy, copy_term(copy, {id(items[-1]): items[-1]}))


def test_int64_bounds():
    assert INT64_MAX == 2**63 - 1
    assert INT64_MIN == -(2**63)
