import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicnode import engine
from logicnode.engine import Database, EngineError, SolveLimits, Solver, _first_arg_key
from logicnode.reader import Clause, parse_program, parse_term, term_text
from logicnode.runtime import NodeConfig
from logicnode.sim import SimNetwork
from logicnode.terms import INT64_MAX, INT64_MIN, Atom, Int, Struct, Var, list_parts, mklist
from term_gen import CYCLIC, disagreement, substitute, unify_terms
from timing import best_thread_s


def solver_for(src: str, max_steps: int = 10_000_000) -> Solver:
    db = Database()
    db.load_program(parse_program(src))
    return Solver(db, SolveLimits(max_steps=max_steps))


def all_answers(src: str, goal: str):
    return solver_for(src).solve_all(parse_term(goal))


def first_answer(src: str, goal: str):
    return solver_for(src).solve_first(parse_term(goal))


def test_facts_and_conjunction():
    src = "p(a). p(b). q(b).\n"
    got = all_answers(src, "p(X), q(X)")
    assert [term_text(s["X"]) for s in got] == ["b"]


def test_clause_order_is_source_order():
    src = "p(c). p(a). p(b).\n"
    got = [term_text(s["X"]) for s in all_answers(src, "p(X)")]
    assert got == ["c", "a", "b"]


def test_unknown_predicate_fails_quietly():
    assert all_answers("p(a).\n", "nosuch(X)") == []


def test_cut_commits_to_first_clause():
    src = "max(X, Y, X) :- X >= Y, !.\nmax(_, Y, Y).\n"
    got = all_answers(src, "max(3, 2, M)")
    assert [term_text(s["M"]) for s in got] == ["3"]
    got = all_answers(src, "max(1, 2, M)")
    assert [term_text(s["M"]) for s in got] == ["2"]


def test_cut_is_clause_local():
    src = "p(X) :- q(X), !.\np(z).\nq(a). q(b).\n"
    got = [term_text(s["X"]) for s in all_answers(src, "p(X)")]
    assert got == ["a"]
    # the cut inside q's caller must not stop an outer disjunction
    got2 = all_answers(src, "( p(_) ; r )")
    assert len(got2) == 1


# a dynamic predicate with a rule and a fact, for `retract`
RETRACTABLE = ":- dynamic r/1.\nr(X) :- q(X).\nr(a).\nq(b).\n"

# A cut inside an all-solutions goal (findall, count, negation, an
# if-then-else condition, a top-level query) ends that goal's solutions only;
# a cut in a condition keeps the else branch and the clause's alternatives.
# `member`, `retract` and an inner findall under a findall are resumed from
# above its barrier, and they keep their answer order; a condition or a
# negation that commits to a `retract` removes one clause only.
CUT_LOCALITY = [
    ("p(1). p(2). p(3).\n", "findall(X, (p(X), !), L)", [{"L": "[1]"}]),
    ("", "count((member(X, [a, b]), !), N)", [{"N": "1"}]),
    ("", "\\+ (X = a, !, fail), X = b", [{"X": "b"}]),
    ("", "( (X = a, !, fail) -> R = then ; R = else ), X = b",
     [{"R": "else", "X": "b"}]),
    ("p(1). p(2). p(3).\n", "(p(X), !) ; X = 9", [{"X": "1"}]),
    ("", "assert(d(1)), assert(d(2)), findall(X, (retract(d(X)), !), L), "
         "findall(Y, d(Y), Left)", [{"L": "[1]", "Left": "[2]"}]),
    ("t(R) :- ( member(X, [1, 2]), !, X > 1 -> R = yes ; R = no ).\nt(other).\n",
     "t(R)", [{"R": "no"}, {"R": "other"}]),
    ("", "assert(d(1)), assert(d(2)), assert(d(3)), findall(X, retract(d(X)), L), "
         "findall(Y, d(Y), Left)", [{"L": "[1,2,3]", "Left": "[]"}]),
    ("", "findall(f(X, Y), (member(X, [1, 2]), member(Y, [a, b])), L)",
     [{"L": "[f(1,a),f(1,b),f(2,a),f(2,b)]"}]),
    ("", "findall(f(X, L), (member(X, [1, 2]), findall(Y, member(Y, [b, X]), L)), R)",
     [{"R": "[f(1,[b,1]),f(2,[b,2])]"}]),
    ("", "findall(f(X, L), (member(X, [1, 2]), findall(Y, (member(Y, [b, X]), !), L)), R)",
     [{"R": "[f(1,[b]),f(2,[b])]"}]),
    ("", "count((member(X, [1, 2]), \\+ (member(Y, [a, b]), !, Y = b)), N)", [{"N": "2"}]),
    (RETRACTABLE, "( retract(r(a)) -> R = yes ; R = no ), findall(Y, r(Y), L)",
     [{"R": "yes", "L": "[b]"}]),
    (RETRACTABLE, "\\+ retract(r(c)), R = ok", [{"R": "ok"}]),
]


@pytest.mark.parametrize("src, goal, expected", CUT_LOCALITY)
def test_cut_stays_local_to_an_all_solutions_goal(src, goal, expected):
    got = all_answers(src, goal)
    assert [{k: term_text(a[k]) for k in expected[0]} for a in got] == expected


# Control constructs: a bare `->`, a cut in a then-branch, an else-branch
# and a plain disjunct (each commits the enclosing clause), the order in
# which a conjunction of two `member` calls backtracks, a condition that
# backtracks before it commits, if-then-else, findall, count and negation
# called through a variable, errors inside a collected goal, which leave the
# trail empty, `retract` of a rule (its body unifies with the template's),
# `member` over a list with an unbound tail, and `=` binding a clause's new
# variable again after backtracking.
CONTROL = [
    ("", "(true -> X = a)", [{"X": "a"}]),
    ("", "(fail -> X = a)", []),
    ("", "(member(X, [1, 2]) -> Y = X)", [{"X": "1", "Y": "1"}]),
    ("t(X, R) :- ( X > 0 -> !, R = pos ; R = neg ).\nt(_, other).\n",
     "t(1, R)", [{"R": "pos"}]),
    ("t(X, R) :- ( X > 0 -> R = pos ; !, R = neg ).\nt(_, other).\n",
     "t(-1, R)", [{"R": "neg"}]),
    ("t(X, R) :- ( X > 0 -> R = pos ; !, R = neg ).\nt(_, other).\n",
     "t(1, R)", [{"R": "pos"}, {"R": "other"}]),
    ("d(R) :- ( R = a, ! ; R = b ).\nd(c).\n", "d(R)", [{"R": "a"}]),
    ("d(R) :- ( R = a ; !, R = b ).\nd(c).\n", "d(R)", [{"R": "a"}, {"R": "b"}]),
    ("", "member(X, [a, b]), member(Y, [c, d])",
     [{"X": "a", "Y": "c"}, {"X": "a", "Y": "d"},
      {"X": "b", "Y": "c"}, {"X": "b", "Y": "d"}]),
    ("p(1). p(2). p(3).\nq(X, R) :- ( p(X), X > 1 -> R = X ; R = none ).\n",
     "q(X, R)", [{"X": "2", "R": "2"}]),
    ("", "G = (X > 0 -> R = pos ; R = neg), X = 1, G", [{"R": "pos"}]),
    ("c(G) :- G.\n", "G = (X > 0 -> R = pos ; R = neg), X = 0, c(G)", [{"R": "neg"}]),
    ("c(G) :- G.\n", "X = 2, c((X > 1 -> R = big))", [{"R": "big"}]),
    ("p(1). p(2).\n", "G = findall(X, p(X), L), G", [{"L": "[1,2]"}]),
    ("c(G) :- G.\np(1). p(2).\n", "c(count(p(_), N))", [{"N": "2"}]),
    ("p(1).\n", "G = (\\+ p(2)), G, R = yes", [{"R": "yes"}]),
    ("c(G) :- G.\np(1).\n", "c(\\+ p(1))", []),
    ("", "findall(X, G, L)", EngineError("type", "unbound goal")),
    ("", "findall(Y, (member(X, [1, 0]), Y is 1 // X), L)",
     EngineError("arith", "division by zero")),
    (RETRACTABLE, "retract((r(X) :- q(X))), findall(Y, r(Y), L)", [{"L": "[a]"}]),
    (RETRACTABLE, "retract((r(X) :- q(c)))", [{"X": "c"}]),
    (RETRACTABLE, "retract((r(X) :- z(X)))", []),
    (RETRACTABLE, "retract((r(X) :- true)), findall(Y, r(Y), L)", [{"X": "a", "L": "[b]"}]),
    ("", "member(X, [a|T])", [{"X": "a", "T": "_G1"}]),
    ("", "( member(X, [1, 2, 3]), X > 1 -> R = X ; R = none )", [{"X": "2", "R": "2"}]),
    ("d(R) :- ( X = a ; X = b ), X = b, R = X.\n", "d(R)", [{"R": "b"}]),
    ("d(R) :- ( f(X) = f(a) ; f(X) = f(b) ), X = b, R = X.\n", "d(R)", [{"R": "b"}]),
]


@pytest.mark.parametrize("src, goal, expected", CONTROL)
def test_control_constructs(src, goal, expected):
    s = solver_for(src)
    if isinstance(expected, EngineError):
        with pytest.raises(EngineError) as e:
            s.solve_all(parse_term(goal))
        assert (e.value.kind, e.value.message) == (expected.kind, expected.message)
        assert s.trail == []
        return
    got = s.solve_all(parse_term(goal))
    keys = expected[0] if expected else {}
    assert [{k: term_text(a[k]) for k in keys} for a in got] == expected


def test_if_then_else():
    src = "t(X, yes) :- ( X > 0 -> true ; fail ).\nt(_, no).\n"
    got = [term_text(s["R"]) for s in all_answers(src, "t(1, R)")]
    assert got == ["yes", "no"]
    got = [term_text(s["R"]) for s in all_answers(src, "t(-1, R)")]
    assert got == ["no"]


def test_if_then_else_keeps_condition_bindings():
    src = "p(a). p(b).\nq(X, R) :- ( p(X) -> R = hit ; R = miss ).\n"
    got = all_answers(src, "q(X, R)")
    # the condition commits to its first solution
    assert [(term_text(s["X"]), term_text(s["R"])) for s in got] == [("a", "hit")]


def test_negation_as_failure():
    src = "p(a).\n"
    assert first_answer(src, "\\+ p(b)") is not None
    assert first_answer(src, "\\+ p(a)") is None


def test_negation_binds_nothing():
    got = first_answer("q(a).\n", "\\+ p(X), q(X)")
    assert term_text(got["X"]) == "a"


def test_findall_collects_in_order():
    src = "p(3). p(1). p(2).\n"
    got = first_answer(src, "findall(X, p(X), L)")
    assert term_text(got["L"]) == "[3,1,2]"


def test_findall_over_a_thousand_facts():
    src = "".join("p(%d).\n" % i for i in range(1000))
    items, tail = list_parts(first_answer(src, "findall(X, p(X), L)")["L"])
    assert [t.value for t in items] == list(range(1000))
    assert tail == Atom("[]")


def test_findall_empty_on_no_solutions():
    got = first_answer("p(a).\n", "findall(X, q(X), L)")
    assert term_text(got["L"]) == "[]"


def test_count():
    src = "p(a). p(b). p(c).\n"
    got = first_answer(src, "count(p(_), N)")
    assert term_text(got["N"]) == "3"


def test_member_enumerates():
    got = all_answers("", "member(X, [1, 2, 3])")
    assert [term_text(s["X"]) for s in got] == ["1", "2", "3"]


def test_structural_equality_and_not_unifiable():
    assert first_answer("", "f(X) == f(Y)") is None  # distinct variables
    assert first_answer("", "f(X) == f(X)") is not None  # one shared variable
    assert first_answer("", "X = a, f(X) == f(a)") is not None
    assert first_answer("", "f(X, Y) == f(Y, X)") is None
    assert first_answer("", "X == X") is not None
    assert first_answer("", "X = Y, X == Y") is not None
    # unifying these would bind X to f(X) and Y to f(Y), then compare them
    assert first_answer("", "f(X, Y, g(a), X) == f(f(X), f(Y), g(b), Y)") is None
    assert first_answer("", "a \\= b") is not None
    assert first_answer("", "X \\= a") is None
    # a failed unification leaves no bindings: whichever order unify takes
    # the arguments in, one of these binds X before it fails
    assert first_answer("", "f(a, X) \\= f(c, b), X = z") is not None
    assert first_answer("", "f(X, a) \\= f(b, c), X = z") is not None


def test_assert_makes_dynamic_and_retract_is_resatisfiable():
    s = solver_for(":- dynamic p/1.\n")
    assert s.solve_first(
        parse_term("assert(p(1)), assert(p(2)), assert(p(3))")) is not None
    got = s.solve_first(parse_term("findall(X, retract(p(X)), L)"))
    assert term_text(got["L"]) == "[1,2,3]"
    assert s.solve_all(parse_term("p(X)")) == []


def test_assert_on_static_predicate_is_error():
    s = solver_for("p(a).\n")
    with pytest.raises(EngineError) as e:
        s.solve_first(parse_term("assert(p(b))"))
    assert e.value.kind == "permission"


# (program, node facts, what `retract(p(_))`, then `assert(p(a))`, then
# `retract(p(_))` again do): a predicate is static when it holds clauses and
# is not dynamic, and only then do the two builtins raise
DECLARATIONS = {
    "dynamic": (":- dynamic p/1.\n", [], ["fail", "ok", "ok"]),
    "event": (":- event p/1.\n", [], ["fail", "ok", "ok"]),
    "alarm": (":- alarm p/1.\n", [], ["fail", "ok", "ok"]),
    "consulted": ("p(b).\n", [], ["permission"] * 3),
    "node fact": ("", ["p(b)"], ["permission"] * 3),
    "handler": (":- event p/1.\np(_) :- true.\n", [], ["permission"] * 3),
    "unknown": ("", [], ["fail", "ok", "ok"]),
}


@pytest.mark.parametrize("case", DECLARATIONS)
def test_assert_and_retract_follow_the_declaration_rule(case):
    src, facts, expected = DECLARATIONS[case]
    facts = [Clause(parse_term(f), Atom("true")) for f in facts]
    node = SimNetwork().add_node(NodeConfig("n1", parse_program(src), facts=facts))
    got = []
    for goal in ("retract(p(_))", "assert(p(a))", "retract(p(_))"):
        try:
            got.append("fail" if node.solver.solve_first(parse_term(goal)) is None
                       else "ok")
        except EngineError as e:
            got.append(e.kind)
    assert got == expected


def test_assert_snapshots_current_bindings():
    s = solver_for(":- dynamic p/1.\n")
    s.solve_first(parse_term("X = f(a), assert(p(X))"))
    got = s.solve_all(parse_term("p(Y)"))
    assert [term_text(a["Y"]) for a in got] == ["f(a)"]


def test_assert_of_a_rule_keeps_head_and_body_variables_shared():
    s = solver_for("q(1). q(2).\n")
    assert s.solve_first(parse_term("assert((p(X) :- q(X)))")) is not None
    assert [a["Y"].value for a in s.solve_all(parse_term("p(Y)"))] == [1, 2]


def test_retract_removes_one_match_per_solution():
    s = solver_for(":- dynamic p/1.\np(a). p(b).\n")
    assert s.solve_first(parse_term("retract(p(a))")) is not None
    got = [term_text(a["X"]) for a in s.solve_all(parse_term("p(X)"))]
    assert got == ["b"]


def test_arithmetic():
    assert term_text(first_answer("", "X is 2 + 3 * 4")["X"]) == "14"
    assert term_text(first_answer("", "X is 7 // 2")["X"]) == "3"
    assert term_text(first_answer("", "X is -7 // 2")["X"]) == "-3"  # truncates
    assert term_text(first_answer("", "X is 7 mod 3")["X"]) == "1"
    assert term_text(first_answer("", "X is -(3 - 5)")["X"]) == "2"


def test_is_binds_a_variable_it_meets_first_again_after_backtracking():
    src = ("t(L) :- findall(Y, (member(X, [1, 2, 3]), Y is X * 10), L).\n"
           "u(Z) :- member(X, [1, 2]), Y is X, Y > 1, Z = Y.\n")
    assert term_text(first_answer(src, "t(L)")["L"]) == "[10,20,30]"
    assert term_text(first_answer(src, "u(Z)")["Z"]) == "2"


def test_comparison_operators():
    assert first_answer("", "1 < 2") is not None
    assert first_answer("", "2 =< 2") is not None
    assert first_answer("", "3 =:= 3") is not None
    assert first_answer("", "3 > 4") is None


def test_arith_division_by_zero():
    with pytest.raises(EngineError) as e:
        first_answer("", "X is 1 // 0")
    assert e.value.kind == "arith"
    with pytest.raises(EngineError):
        first_answer("", "X is 1 mod 0")


def test_arith_overflow_is_error():
    with pytest.raises(EngineError) as e:
        first_answer("", "X is 9223372036854775807 + 1")
    assert e.value.kind == "arith"


def test_arith_unbound_is_error():
    with pytest.raises(EngineError) as e:
        first_answer("", "X is Y + 1")
    assert e.value.kind == "type"


# Arithmetic: `is/2` and each comparison, run as a compiled clause body
# (over slots) and posed as a term, against a reference evaluation.  An
# expression is ("int", v), ("var", name), ("atom", name), ("neg", e) or
# (operator, e1, e2); X and Y are bound, Z is not.
INT64_EDGES = [0, 1, -1, 2, -2, 7, 2**32, -(2**32), INT64_MAX, INT64_MAX - 1,
               INT64_MIN, INT64_MIN + 1]
ARITH_LEAVES = st.one_of(
    st.sampled_from(INT64_EDGES).map(lambda v: ("int", v)),
    st.integers(INT64_MIN, INT64_MAX).map(lambda v: ("int", v)),
    st.sampled_from(["X", "Y", "Z"]).map(lambda n: ("var", n)),
    st.sampled_from(["foo", "[]"]).map(lambda n: ("atom", n)))
ARITH_EXPRS = st.recursive(ARITH_LEAVES, lambda inner: st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*", "//", "mod"]), inner, inner),
    st.tuples(st.just("neg"), inner)), max_leaves=8)
COMPARISONS = {"=:=": operator.eq, "<": operator.lt, ">": operator.gt,
               "=<": operator.le, ">=": operator.ge}


def _arith_term(e, env: dict):
    kind = e[0]
    if kind == "int":
        return Int(e[1])
    if kind in ("var", "atom"):
        return env[e[1]] if kind == "var" else Atom(e[1])
    return Struct("-" if kind == "neg" else kind,
                  tuple(_arith_term(a, env) for a in e[1:]))


def _arith_reference(e, values: dict) -> int:
    """Python's value of `e`, or the engine's error for the first fault met
    reading left to right."""
    kind = e[0]
    if kind == "int":
        return e[1]
    if kind == "var":
        if e[1] not in values:
            raise EngineError("type", "unbound variable in arithmetic")
        return values[e[1]]
    if kind == "atom":
        raise EngineError("type", "not an arithmetic expression")
    a = [_arith_reference(x, values) for x in e[1:]]
    if kind in ("//", "mod") and a[1] == 0:
        raise EngineError("arith", "division by zero")
    v = {"neg": lambda: -a[0], "+": lambda: a[0] + a[1], "-": lambda: a[0] - a[1],
         "*": lambda: a[0] * a[1], "mod": lambda: a[0] % a[1],
         "//": lambda: abs(a[0]) // abs(a[1]) * (-1 if (a[0] < 0) != (a[1] < 0) else 1),
         }[kind]()
    if not INT64_MIN <= v <= INT64_MAX:
        raise EngineError("arith", "integer overflow")
    return v


def _arith_goals(e1, e2, env: dict) -> list:
    """`R is E1`, `X is E1`, then `E1 op E2` for each comparison."""
    t1, t2 = _arith_term(e1, env), _arith_term(e2, env)
    return ([Struct("is", (env["R"], t1)), Struct("is", (env["X"], t1))]
            + [Struct(op, (t1, t2)) for op in COMPARISONS])


def _or_error(run):
    """run(), or the (kind, message) of the EngineError it raises."""
    try:
        return run()
    except EngineError as e:
        return (e.kind, e.message)


def _arith_expected(e1, e2, x: int, y: int, i: int):
    v = _arith_reference(e1, {"X": x, "Y": y})
    if i == 0:
        return str(v)
    if i == 1:
        return "yes" if v == x else None
    test = list(COMPARISONS.values())[i - 2]
    return "yes" if test(v, _arith_reference(e2, {"X": x, "Y": y})) else None


def _arith_answer(answer, i: int):
    """R's value for goal 0, "yes" for another goal that holds, None for one
    that fails."""
    return None if answer is None else term_text(answer["R"]) if i == 0 else "yes"


@settings(max_examples=300, deadline=None)
@given(ARITH_EXPRS, ARITH_EXPRS, st.sampled_from(INT64_EDGES), st.sampled_from(INT64_EDGES))
@example(("+", ("//", ("int", 1), ("int", 0)), ("atom", "foo")), ("int", 1), 0, 0)
@example(("+", ("atom", "foo"), ("//", ("int", 1), ("int", 0))), ("int", 1), 0, 0)
@example(("neg", ("var", "X")), ("-", ("var", "Y"), ("int", 1)), INT64_MIN, INT64_MIN)
@example(("*", ("var", "Z"), ("atom", "foo")), ("var", "X"), 1, 1)
def test_arithmetic_over_clause_slots_agrees_with_term_goals(e1, e2, x, y):
    expected = [_or_error(lambda: _arith_expected(e1, e2, x, y, i)) for i in range(7)]
    # compiled: X is bound by the head and Y by the body, whose last goal is the one tested
    env = {n: Var(n) for n in "XYZR"}
    db = Database()
    for i, goal in enumerate(_arith_goals(e1, e2, env)):
        db.add_clause(Clause(Struct("c%d" % i, (env["X"], env["R"])),
                             Struct(",", (Struct("=", (env["Y"], Int(y))), goal))))
    s = Solver(db)
    assert [_or_error(lambda: _arith_answer(
        s.solve_first(Struct("c%d" % i, (Int(x), Var("R")))), i)) for i in range(7)] == expected
    assert s.trail == []
    # a term: the query binds X and Y, then runs the goal
    got = []
    for i in range(7):
        env = {n: Var(n) for n in "XYZR"}
        query = Struct(",", (Struct("=", (env["X"], Int(x))), Struct(",", (
            Struct("=", (env["Y"], Int(y))), _arith_goals(e1, e2, env)[i]))))
        got.append(_or_error(lambda: _arith_answer(Solver(Database()).solve_first(query), i)))
    assert got == expected


def test_unbound_goal_is_error():
    with pytest.raises(EngineError):
        first_answer("", "X")


def test_step_limit_stops_runaway_programs():
    s = solver_for("loop :- loop.\n", max_steps=1000)
    with pytest.raises(EngineError) as e:
        s.solve_first(parse_term("loop"))
    assert e.value.kind == "step_limit"


def test_deep_recursion_reports_step_limit():
    s = solver_for("loop :- loop.\n")
    with pytest.raises(EngineError) as e:
        s.solve_first(parse_term("loop"))
    assert e.value.kind == "step_limit"


RECURSION = """count_to(N, N).
count_to(I, N) :- I < N, J is I + 1, count_to(J, N).
len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.
"""


@pytest.mark.parametrize("n", [200, 100_000])
def test_deep_recursion_within_default_limits(n):
    db = Database()
    db.load_program(parse_program(RECURSION))
    assert Solver(db).solve_first(parse_term("count_to(0, %d)" % n)) is not None


def test_non_tail_recursion_over_a_long_list():
    db = Database()
    db.load_program(parse_program(RECURSION))
    items = mklist([Int(i) for i in range(100_000)])
    got = Solver(db).solve_first(Struct("len", (items, Var("N"))))
    assert got["N"].value == 100_000


@pytest.mark.parametrize("n", [600, 100_000])
def test_call_a_stored_clause_holding_a_long_list(n):
    # the open tail makes every renamed instance rebuild the whole list
    s = Solver(Database())
    items = mklist([Int(i) for i in range(n)], Var("T"))
    assert s.solve_first(Struct("assert", (Struct("big", (Int(n), items)),))) is not None
    got = s.solve_first(parse_term("big(N, L)"))
    values, tail = list_parts(got["L"])
    assert got["N"].value == n and isinstance(tail, Var)
    assert [v.value for v in values] == list(range(n))


def test_unify_terms_helper():
    a = parse_term("f(X, b)")
    b = parse_term("f(a, Y)")
    got = unify_terms(a, b)
    assert got is not None
    rendered = sorted((v.name, term_text(t)) for v, t in got.items())
    assert rendered == [("X", "a"), ("Y", "b")]
    assert unify_terms(parse_term("f(a)"), parse_term("f(b)")) is None


def test_retract_drain_idiom():
    src = ":- dynamic pending/3, seqno/1.\nseqno(1).\n"
    s = solver_for(src)
    s.solve_first(parse_term(
        "assert(pending(1, c1, a)), assert(pending(2, c2, b))"))
    got = s.solve_first(parse_term(
        "findall((Id, Src, Rq), retract(pending(Id, Src, Rq)), Batch)"))
    assert term_text(got["Batch"]) == "[','(1,','(c1,a)),','(2,','(c2,b))]"
    assert s.solve_all(parse_term("pending(_, _, _)")) == []


# --- first-argument index ---


def ids(solver: Solver, goal: str) -> list:
    return [a["I"].value for a in solver.solve_all(parse_term(goal))]


def test_first_assert_after_index_built_on_empty_predicate():
    s = solver_for(":- dynamic p/2.\n")
    assert ids(s, "p(a, I)") == []  # builds the index while p/2 is empty
    s.solve_first(parse_term("assert(p(a, 1)), assert(p(b, 2))"))
    assert ids(s, "p(a, I)") == [1]
    assert ids(s, "p(b, I)") == [2]


def test_variable_first_argument_asserted_into_indexed_predicate():
    s = solver_for(":- dynamic p/2.\np(a, 1). p(b, 2).\n")
    assert ids(s, "p(a, I)") == [1]
    s.solve_first(parse_term("assert(p(_, 3)), assert(p(a, 4))"))
    assert ids(s, "p(a, I)") == [1, 3, 4]
    assert ids(s, "p(b, I)") == [2, 3]
    assert len(s.db.clauses_for(("p", 2), Atom("a"))) == 3
    assert s.solve_first(parse_term("retract(p(c, 3))")) is not None
    assert ids(s, "p(a, I)") == [1, 4]
    assert ids(s, "p(c, I)") == []
    # the clause without a key has left every list
    assert len(s.db.clauses_for(("p", 2), Atom("a"))) == 2


def test_retract_while_a_call_iterates_the_same_bucket():
    s = solver_for(":- dynamic p/2.\np(k, 1). p(k, 2). p(k, 3). p(j, 5).\n")
    # the running call keeps its snapshot: 3 is still found after its retract
    got = s.solve_first(parse_term(
        "findall(I, (p(k, I), (retract(p(k, 3)) ; true), assert(p(k, 9))), L)"))
    assert term_text(got["L"]) == "[1,1,2,3]"
    assert ids(s, "p(k, I)") == [1, 2, 9, 9, 9, 9]
    # a retract skips a clause another retract removed after it began
    s = solver_for(":- dynamic p/2.\np(k, 1). p(k, 2). p(k, 3).\n")
    got = [a["I"].value for a in s.solve_all(
        parse_term("retract(p(k, I)), retract(p(k, 2))"))]
    assert got == [1]
    assert ids(s, "p(k, I)") == []


def test_a_clause_asserted_during_a_call_that_merges_two_buckets_is_not_tried():
    s = solver_for(":- dynamic p/2.\np(k, 1). p(_, 2).\n")
    assert type(s.db.clauses_for(("p", 2), Atom("k"))) is tuple  # a merge
    got = s.solve_first(parse_term(
        "findall(I, (p(k, I), assert(p(k, 9)), assert(p(_, 8))), L)"))
    assert term_text(got["L"]) == "[1,2]"
    assert ids(s, "p(k, I)") == [1, 2, 9, 8, 9, 8]


def _best_retract_last_s(n: int) -> float:
    """CPU seconds for `retract(p(_, N))` on the last of n facts."""
    def prepare():
        s = solver_for(":- dynamic p/2.\n")
        for i in range(n):
            s.db.assert_clause(Clause(Struct("p", (Int(i), Int(i))), Atom("true")))
        goal = parse_term("retract(p(_, %d))" % (n - 1))

        def run():
            assert s.solve_first(goal) is not None
            assert len(s.db.preds[("p", 2)]) == n - 1
        return run
    return best_thread_s(prepare)


def test_retract_is_linear_in_the_position_of_its_match():
    # 8x the facts is about 8x the time when linear; 24x leaves margin
    small, large = _best_retract_last_s(2_000), _best_retract_last_s(16_000)
    assert large < 24 * small, (small, large)


GROW = "grow(0, L, L).\ngrow(N, L, R) :- N > 0, M is N - 1, X = [N|L], grow(M, X, R).\n"


def _best_grow_s(n: int) -> float:
    """CPU seconds for a loop that binds a new variable to a growing list."""
    def prepare():
        s, goal = solver_for(GROW), parse_term("grow(%d, [], _)" % n)
        return lambda: s.solve_first(goal, answer=False)
    return best_thread_s(prepare)


def test_unify_is_linear_in_the_term_a_new_variable_takes():
    assert term_text(first_answer(GROW, "grow(3, [], R)")["R"]) == "[1,2,3]"
    # 8x the levels is about 8x the time when linear; 24x leaves margin
    small, large = _best_grow_s(1_000), _best_grow_s(8_000)
    assert large < 24 * small, (small, large)


def test_integer_and_quoted_atom_get_different_keys():
    assert _first_arg_key(parse_term("1")) != _first_arg_key(parse_term("'1'"))
    assert _first_arg_key(parse_term("a-1")) != _first_arg_key(parse_term("a-'1'"))
    s = solver_for("p(1, 1). p('1', 2). p(a-1, 3). p(a-'1', 4).\n")
    assert [ids(s, "p(%s, I)" % q) for q in ("1", "'1'", "a-1", "a-'1'")] == [
        [1], [2], [3], [4]]


def test_one_variable_clause_does_not_disable_the_index():
    db = Database()
    for i in range(10_000):
        db.add_clause(Clause(parse_term("p(k%d, %d)" % (i, i)), Atom("true")))
    db.add_clause(parse_program("p(X, -1) :- fail.\n").clauses[0])
    got = db.clauses_for(("p", 2), Atom("k9000"))
    assert [term_text(c.head) for c in got] == ["p(k9000,9000)", "p(_G1,-1)"]


LEN_CLAUSES = ["len([], 0).", "len([_|T], N) :- len(T, M), N is M + 1."]


@pytest.mark.parametrize("order", [LEN_CLAUSES, LEN_CLAUSES[::-1]])
def test_a_list_cell_call_gets_only_the_list_clause(order):
    s = solver_for("\n".join(order) + "\n")
    cell = parse_term("[a, b]")
    assert [term_text(c.head) for c in s.db.clauses_for(("len", 2), cell)] == [
        "len([_G1|_G2],_G3)"]
    assert term_text(s.solve_first(parse_term("len([a, b, c], N)"))["N"]) == "3"


def count_renames(monkeypatch) -> list:
    renames = [0]
    rename = engine._rename

    def counted(clause):
        renames[0] += 1
        return rename(clause)

    monkeypatch.setattr(engine, "_rename", counted)
    return renames


def test_a_compound_clause_is_not_tried_by_an_atom_call(monkeypatch):
    s = solver_for("max_pair([(D, A) | T], Best) :- max_acc(T, D, A, Best).\n"
                   + "\n".join(LEN_CLAUSES) + "\n")
    renames = count_renames(monkeypatch)
    assert s.solve_first(parse_term("max_pair([], B)")) is None
    assert renames == [0]
    assert [term_text(c.head) for c in s.db.clauses_for(("len", 2), Atom("[]"))] == [
        "len([],0)"]


def test_a_keyed_compound_call_reads_its_functors_clauses_without_a_key():
    s = solver_for("p(f(X), 1). p(a, 2). p(f(b), 3). p(g(X), 4). p(Y, 5).\n")
    assert ids(s, "p(f(b), I)") == [1, 3, 5]
    assert ids(s, "p(f(c), I)") == [1, 5]  # no list of its own
    assert ids(s, "p(g(c), I)") == [4, 5]
    assert ids(s, "p(a, I)") == [2, 5]
    assert ids(s, "p(f(Z), I)") == [1, 3, 5]


def test_calls_with_new_functors_leave_the_index_at_its_clauses_buckets():
    db = Database()
    for src in ("known(a, 1).", "known(g(Y), 2).", "known(X, 3)."):
        db.add_clause(parse_program(src).clauses[0])
    assert len(db.clauses_for(("known", 2), Atom("a"))) == 2  # builds the index
    buckets = len(db.preds[("known", 2)].index)
    for i in range(10_000):
        assert db.clauses_for(("known", 2), Struct("f%d" % i, (Var("X"),))) == [
            db.preds[("known", 2)][2]]
    assert len(db.preds[("known", 2)].index) == buckets


@pytest.mark.parametrize("index_first", [False, True])
def test_a_clause_stored_twice_is_tried_and_retracted_once_per_copy(index_first):
    s = solver_for(":- dynamic p/2.\n")
    if index_first:
        assert ids(s, "p(a, I)") == []
    twice = Clause(parse_term("p(a, 1)"), Atom("true"))
    s.db.add_clause(twice)
    s.db.add_clause(Clause(parse_term("p(X, 2)"), Atom("true")))
    s.db.add_clause(twice)
    assert ids(s, "p(a, I)") == [1, 2, 1]
    assert s.solve_first(parse_term("retract(p(a, 1))")) is not None
    assert ids(s, "p(a, I)") == [2, 1]
    assert s.solve_first(parse_term("retract(p(a, 1))")) is not None
    assert ids(s, "p(a, I)") == [2]
    assert s.solve_first(parse_term("retract(p(a, 1))")) is None
    assert ids(s, "p(_, I)") == [2]


FIRST_ARGS = ["a", "b", "'1'", "1", "2", "a-1", "a-'1'", "f(a, 1)", "[]",
              "f(g(a))", "a-f(1)", "X", "f(X)", "a-X", "[a]", "[X|a]", "h(X)"]
STEPS = st.tuples(
    st.sampled_from(["assert", "add_clause", "retract", "retract_all"]),
    st.sampled_from(FIRST_ARGS), st.sampled_from(FIRST_ARGS))


def unifiable(query_first: str, fact: tuple) -> bool:
    first, i = fact
    return unify_terms(parse_term("p(%s, _)" % query_first),
                       parse_term("p(%s, %d)" % (first, i))) is not None


@settings(max_examples=150, deadline=None)
@given(st.lists(STEPS, max_size=25))
def test_indexed_database_matches_a_list_of_live_facts(steps):
    s = solver_for(":- dynamic p/2.\n")
    live = []  # (first argument text, id) in insertion order
    for n, (kind, arg, query) in enumerate(steps):
        if kind == "assert":
            assert s.solve_first(parse_term("assert(p(%s, %d))" % (arg, n))) is not None
            live.append((arg, n))
        elif kind == "add_clause":
            s.db.add_clause(Clause(parse_term("p(%s, %d)" % (arg, n)), Atom("true")))
            live.append((arg, n))
        elif kind == "retract":
            hits = [f for f in live if unifiable(arg, f)]
            got = s.solve_first(parse_term("retract(p(%s, I))" % arg))
            assert (got and got["I"].value) == (hits[0][1] if hits else None)
            if hits:
                live.remove(hits[0])
        else:
            hits = [f for f in live if unifiable(arg, f)]
            got = s.solve_first(parse_term("findall(I, retract(p(%s, I)), L)" % arg))
            assert term_text(got["L"]) == "[%s]" % ",".join(str(i) for _, i in hits)
            live = [f for f in live if f not in hits]
        assert ids(s, "p(%s, I)" % query) == [i for f, i in live if unifiable(query, (f, i))]


# --- compiled clauses: head matching and the inline if-then-else ---


def _terms(var_names):
    leaves = st.sampled_from(["a", "b", "0", "1", "[]"] + var_names)
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("f({})".format, inner),
        st.builds("f({}, {})".format, inner, inner),
        st.builds("g({}, {})".format, inner, inner),
        st.builds("[{}|{}]".format, inner, inner),
        st.builds("[{}, {}]".format, inner, inner)), max_leaves=8)


def _arg_lists(var_names, n):
    return st.lists(_terms(var_names), min_size=n, max_size=n).map(", ".join)


HEAD_AND_GOAL = st.integers(1, 3).flatmap(lambda n: st.tuples(
    _arg_lists(["A", "B", "C"], n), _arg_lists(["X", "Y", "Z"], n)))


@settings(max_examples=300, deadline=None)
@given(HEAD_AND_GOAL)
@example(("a, f(A)", "a, f(X, Y)"))  # past the first argument: no index filter
@example(("A, g(A, [A|B])", "f(X), g(Y, [f(Z)|Y])"))
def test_head_matching_binds_the_goal_as_unification_does(head_and_goal):
    head, goal = head_and_goal
    answer = "v(X, Y, Z)"
    # the oracle: the reference unifier on the goal and a renamed copy of the head
    goal_term, head_term, answer_term = parse_term(
        "t(p(%s), p(%s), %s)" % (goal, head, answer)).args
    mgu = unify_terms(goal_term, head_term)
    # the occurs check fails a unification that only a cyclic term satisfies
    expected = None if mgu in (None, CYCLIC) else term_text(substitute(answer_term, mgu))
    got = first_answer("p(%s).\n" % head, "p(%s), R = %s" % (goal, answer))
    assert (got and term_text(got["R"])) == expected


SHARED_PAIRS = st.tuples(_terms(["X", "Y", "Z"]), _terms(["X", "Y", "Z"]))


@settings(max_examples=300, deadline=None)
@given(SHARED_PAIRS)
@example(("f(X, Y)", "f(Y, X)"))
@example(("[X|Y]", "[Y, a]"))
def test_unify_and_identity_agree_with_the_reference_unifier(pair):
    a, b, answer = parse_term("t(%s, %s, v(X, Y, Z))" % pair).args
    mgu = unify_terms(a, b)
    before = term_text(answer)
    s = Solver(Database())
    assert engine.BUILTINS["==", 2](s, (a, b)) == (disagreement(a, b) is None)
    assert s.trail == [] and term_text(answer) == before
    ok = s.unify(a, b)
    if mgu is CYCLIC:  # the occurs check fails it; the caller undoes to its mark
        assert not ok
    else:
        assert (term_text(answer) if ok else None) == (
            None if mgu is None else term_text(substitute(answer, mgu)))
    s.undo(0)
    assert term_text(answer) == before


@pytest.mark.parametrize("goal", [
    "X = f(X)",
    "t(X, Y, g(a), X) = t(f(X), f(Y), g(b), Y)",
    "n(X, X)",  # the head n(A, f(A)) would bind X to f(X)
    "c",  # the body's X = f(X), where X is new
])
def test_unification_that_only_a_cyclic_term_satisfies_fails(within_2s, goal):
    s = solver_for("n(A, f(A)).\nc :- X = f(X).\n")
    assert s.solve_first(parse_term(goal)) is None
    assert s.trail == []


# each level runs the next inside a double negation, a findall or a count
NESTED = [
    "d(N) :- N > 0, M is N - 1, \\+ \\+ d(M).",
    "d(N) :- N > 0, M is N - 1, findall(N, d(M), [N]).",
    "d(N) :- N > 0, M is N - 1, count(d(M), 1).",
]


@pytest.mark.parametrize("clause", NESTED)
def test_all_solutions_goals_nested_5000_deep_succeed(clause):
    assert first_answer("d(0).\n%s\n" % clause, "d(5000)") is not None


# goals over one variable X: facts, member, unification, cut, `,` and `;`
COLLECTED_GOALS = st.recursive(
    st.sampled_from(["p(X)", "p(2)", "member(X, [3, 1])", "member(X, [])", "X = 1",
                     "X = f(Y)", "!", "true", "fail"]),
    lambda inner: st.one_of(st.builds("({}, {})".format, inner, inner),
                            st.builds("({} ; {})".format, inner, inner)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(COLLECTED_GOALS)
@example("(member(X, [3, 1]), (!, p(X) ; X = 1))")
def test_collected_solutions_match_the_top_level(goal):
    src = "p(1). p(2). p(3).\n"
    expected = [term_text(a["X"]) for a in all_answers(src, "%s, X = X" % goal)]
    got = first_answer(src, "findall(X, %s, L), count(%s, N)" % (goal, goal))
    items, _ = list_parts(got["L"])
    assert [term_text(t) for t in items] == expected
    assert got["N"].value == len(expected)
    assert (first_answer(src, "\\+ %s" % goal) is not None) == (expected == [])


def test_condition_nested_5000_deep_succeeds():
    # ( ( ... ( X = a -> true ; fail ) ... -> true ; fail ) -> true ; fail )
    x = Var("X")
    goal = Struct("=", (x, Atom("a")))
    for _ in range(5000):
        goal = Struct(";", (Struct("->", (goal, Atom("true"))), Atom("fail")))
    got = Solver(Database()).solve_first(goal)
    assert got is not None and term_text(got["X"]) == "a"


# goals over X and Y: facts, compound heads, unification, tests, arithmetic,
# cut and the all-solutions builtins, under every control construct
PARITY_SRC = "p(1). p(2). p(3). q(f(1), a). q(f(2), b). q(g, c).\n"
BODY_GOALS = st.recursive(
    st.sampled_from(["p(X)", "p(2)", "member(X, [3, 1])", "X = 1", "X = f(Y)",
                     "q(f(X), Y)", "q(X, c)", "Y = X", "X == Y", "X \\= 2",
                     "Y is X + 1", "X < 3", "!", "true", "fail",
                     "findall(Z, p(Z), X)", "count(p(_), X)"]),
    lambda inner: st.one_of(st.builds("({}, {})".format, inner, inner),
                            st.builds("({} ; {})".format, inner, inner),
                            st.builds("({} -> {})".format, inner, inner),
                            st.builds("({} -> {} ; {})".format, inner, inner, inner),
                            st.builds("\\+ {}".format, inner)),
    max_leaves=8)


def xy_answers(s: Solver, goal: str):
    """The X and Y of each answer, or the error's kind and message."""
    try:
        return [(term_text(a["X"]), term_text(a["Y"])) for a in s.solve_all(parse_term(goal))]
    except EngineError as e:
        return (e.kind, e.message)


@settings(max_examples=500, deadline=None)
@given(BODY_GOALS)
@example("(p(X) -> Y = X ; X = 1)")  # a compiled `->` under `;` is an if-then-else
@example("(q(X, Y), ! ; Y is X + 1)")
def test_a_clause_body_answers_as_the_same_goal_run_as_a_term(goal):
    # the body runs compiled, over the clause's slots; the query runs as a term
    compiled = xy_answers(solver_for(PARITY_SRC + "t(X, Y) :- %s.\n" % goal), "t(X, Y)")
    assert compiled == xy_answers(solver_for(PARITY_SRC), "%s, X = X, Y = Y" % goal)
