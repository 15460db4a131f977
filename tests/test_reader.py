import importlib.util
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicnode import reader
from logicnode.reader import (
    MAX_DEPTH, MAX_INT_DIGITS, Program, ReaderError, deserialize, parse_program,
    parse_term, serialize, term_text)
from logicnode.terms import INT64_MAX, INT64_MIN, Atom, Int, Struct, Var, deref

from term_gen import terms

_DIGEST = Path(__file__).resolve().parent.parent / "scripts" / "reader_digest.py"
_spec = importlib.util.spec_from_file_location("reader_digest", _DIGEST)
reader_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reader_digest)


def program_text(prog: Program) -> str:
    """Source text of a parsed program: its directives, then its clauses."""
    lines = []
    for d in prog.directives:
        specs = ", ".join("%s/%d" % (n, a) for n, a in d.indicators)
        lines.append(":- %s %s." % (d.kind, specs))
    for c in prog.clauses:
        names: dict = {}
        head = term_text(c.head, names)
        body = deref(c.body)
        if isinstance(body, Atom) and body.name == "true":
            lines.append("%s." % head)
        else:
            lines.append("%s :- %s." % (head, term_text(c.body, names)))
    return "\n".join(lines) + "\n"


def variant_eq(a, b, forward=None, backward=None):
    """Structural equality up to a variable bijection."""
    if forward is None:
        forward, backward = {}, {}
    a, b = deref(a), deref(b)
    if isinstance(a, Var) or isinstance(b, Var):
        if not (isinstance(a, Var) and isinstance(b, Var)):
            return False
        fa, bb = forward.get(id(a)), backward.get(id(b))
        if fa is None and bb is None:
            forward[id(a)] = b
            backward[id(b)] = a
            return True
        return fa is b and bb is a
    if isinstance(a, Atom):
        return isinstance(b, Atom) and a.name == b.name
    if isinstance(a, Int):
        return isinstance(b, Int) and a.value == b.value
    if not (isinstance(b, Struct) and a.name == b.name and len(a.args) == len(b.args)):
        return False
    return all(variant_eq(x, y, forward, backward) for x, y in zip(a.args, b.args))


def test_parse_basic_shapes():
    t = parse_term("f(a, B, 3)")
    assert variant_eq(t, Struct("f", (Atom("a"), Var("_"), Int(3))))
    assert isinstance(t.args[1], Var)


def test_operator_precedence():
    t = parse_term("X is 1 + 2 * 3")
    assert term_text(t) == "is(_G1,'+'(1,'*'(2,3)))"
    t = parse_term("1 - 2 - 3")  # left associative
    assert term_text(t) == "'-'('-'(1,2),3)"
    t = parse_term("(a , b ; c)")
    assert term_text(t) == ";(','(a,b),c)"


def test_if_then_else_shape():
    t = parse_term("( a -> b ; c )")
    assert t.name == ";"
    assert deref(t.args[0]).name == "->"


def test_negative_numbers():
    assert parse_term("-5") == Int(-5)
    assert term_text(parse_term("f(-5)")) == "f(-5)"
    assert term_text(parse_term("3 - -2")) == "'-'(3,-2)"


def test_lists():
    assert term_text(parse_term("[a, b | T]")) == "[a,b|_G1]"
    assert term_text(parse_term("[]")) == "[]"
    assert term_text(parse_term("[1,[2],x]")) == "[1,[2],x]"


def test_quoted_atoms():
    t = parse_term("'hello world'")
    assert t == Atom("hello world")
    assert term_text(t) == "'hello world'"
    assert parse_term(r"'a\'b\\c\nd\te'") == Atom("a'b\\c\nd\te")


def test_quoting_only_when_needed():
    assert term_text(Atom("abc_1")) == "abc_1"
    assert term_text(Atom("Abc")) == "'Abc'"
    assert term_text(Atom("two words")) == "'two words'"
    assert term_text(Atom("")) == "''"


def test_shared_variable_names():
    t = parse_term("f(X, g(X), Y)")
    assert term_text(t) == "f(_G1,g(_G1),_G2)"


def test_directive_forms():
    prog = parse_program(":- event p/2, q/1.\n:- dynamic(r/0).\np(a, b).\n")
    kinds = [(d.kind, d.indicators) for d in prog.directives]
    assert kinds == [("event", [("p", 2), ("q", 1)]), ("dynamic", [("r", 0)])]
    assert len(prog.clauses) == 1


def test_unknown_directive_rejected():
    with pytest.raises(ReaderError):
        parse_program(":- frobnicate p/1.\n")


def test_parse_errors_carry_position():
    with pytest.raises(ReaderError) as e:
        parse_program("p(a.\n")
    assert e.value.line == 1
    with pytest.raises(ReaderError) as e:
        parse_program("p(a).\n% note\nq(b) :-\n\t r(c) ) .\n")
    assert (e.value.line, e.value.col) == (4, 8)
    assert str(e.value).endswith("(line 4, column 8)")
    with pytest.raises(ReaderError) as e:
        parse_term("f(a,\n  'open")
    assert (e.value.line, e.value.col) == (2, 3)
    with pytest.raises(ReaderError) as e:
        parse_term("f(a")
    assert (e.value.message, e.value.line, e.value.col) == ("expected ), got 'eof'", 1, 4)


def test_only_decimal_digits_make_an_integer():
    with pytest.raises(ReaderError, match="unexpected character '²'"):
        parse_term("f(²)")
    with pytest.raises(ReaderError, match="unexpected character '²'"):
        parse_term("1²")
    assert term_text(parse_term("f(١٢)")) == "f(12)"


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=40))
@example("f(²)")
@example("p :- X is ①.")
def test_any_text_reads_or_is_a_reader_error(text):
    for read in (parse_term, parse_program):
        try:
            read(text)
        except ReaderError:
            pass


def test_trailing_text_rejected():
    with pytest.raises(ReaderError):
        parse_term("a b")


def test_clause_head_must_be_callable():
    with pytest.raises(ReaderError):
        parse_program("3 :- true.\n")


def test_program_text_round_trip():
    src = ":- event p/1.\np(a).\np(X) :- q(X), r.\n"
    prog = parse_program(src)
    again = parse_program(program_text(prog))
    assert program_text(again) == program_text(prog)


def test_comments_ignored():
    prog = parse_program("% header\np(a). % trailing\n")
    assert len(prog.clauses) == 1


@settings(max_examples=300, deadline=None)
@given(terms())
def test_serialize_round_trip(t):
    back = deserialize(serialize(t))
    assert variant_eq(t, back)


# the simulator's trace takes a payload that `serialize` wrote as the text
# of the term it reads
@settings(max_examples=300, deadline=None)
@given(terms())
def test_serialized_text_is_the_canonical_text_of_the_term_read_back(t):
    payload = serialize(t)
    assert term_text(deserialize(payload)) == payload.decode()


def test_deserialize_rejects_bad_utf8():
    with pytest.raises(ReaderError):
        deserialize(b"\xff\xfe")


def _nested(depth: int) -> str:
    return "f(" * depth + "a" + ")" * depth


@pytest.mark.parametrize("text", [
    _nested(MAX_DEPTH),
    "[" * MAX_DEPTH + "a" + "]" * MAX_DEPTH,
    "(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH,
    "a" + ",a" * MAX_DEPTH,
    "a" + "+a" * MAX_DEPTH,
    "- " * MAX_DEPTH + "a",
    "\\+ " * MAX_DEPTH + "a",
], ids=["compound", "list", "parens", "xfy", "yfx", "prefix", "fy"])
def test_nesting_past_the_cap_is_a_reader_error(text):
    with pytest.raises(ReaderError, match="nested deeper"):
        parse_term(text)


def test_nesting_up_to_the_cap_round_trips():
    t = parse_term(_nested(MAX_DEPTH - 1))
    assert term_text(deserialize(serialize(t))) == _nested(MAX_DEPTH - 1)
    chain = parse_term("a" + "+a" * (MAX_DEPTH - 2))
    assert term_text(chain).count("+") == MAX_DEPTH - 2


def test_a_clause_body_of_a_hundred_goals_parses():
    body = ", ".join("g%d" % i for i in range(100))
    prog = parse_program("h :- %s.\n" % body)
    assert len(prog.clauses) == 1


def test_integer_literals_within_int64():
    assert parse_term(str(INT64_MAX)) == Int(INT64_MAX)
    assert parse_term(str(INT64_MIN)) == Int(INT64_MIN)
    assert len(str(INT64_MIN)) == MAX_INT_DIGITS + 1
    for text in (str(INT64_MAX + 1), str(INT64_MIN - 1), "X is %d" % (INT64_MAX + 1)):
        with pytest.raises(ReaderError, match="outside int64"):
            parse_term(text)
    with pytest.raises(ReaderError, match="longer than 19 digits"):
        parse_term("1" + "0" * MAX_INT_DIGITS)
    with pytest.raises(ReaderError, match="longer than 19 digits"):
        deserialize(b"ping(c, " + b"9" * 5000 + b")")


# --- a payload reads as `parse_term` reads its text ---

def read_payload(text: str):
    return deserialize(text.encode("utf-8"))


def test_the_digest_corpus_reads_the_same_as_a_payload():
    # every 8th random text and every canonical text of the corpus whose
    # outcomes `reader_digest.py` pins, so that the test takes about 5 s
    compared = 0
    for i, (part, read, text) in enumerate(reader_digest.corpus()):
        if read is not parse_term or (part == "random" and i % 16):
            continue
        expected = reader_digest.outcome(parse_term, text)
        assert reader_digest.outcome(read_payload, text) == expected, text
        compared += 1
    assert compared == reader_digest.N_RANDOM // 8 + reader_digest.N_CANONICAL


_CANONICAL_CHARS = "abzAZ_019-'\\()[],|!;. \né"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(alphabet=st.characters(codec="utf-8"), max_size=40),
                 st.text(alphabet=_CANONICAL_CHARS, max_size=40)))
@example("f(²)")
@example("f(a)-1")
def test_any_text_reads_as_a_payload_as_parse_term_reads_it(text):
    expected = reader_digest.outcome(parse_term, text)
    assert reader_digest.outcome(read_payload, text) == expected


_NESTED = {
    "compound": _nested,
    "tail": lambda depth: "[a|" * depth + "b" + "]" * depth,
    "list": lambda depth: "[" * depth + "a" + "]" * depth,
}


@pytest.mark.parametrize("text", [
    *(pytest.param(nested(depth), id="%s-%d" % (kind, depth))
      for kind, nested in _NESTED.items()
      for depth in (MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1)),
    str(INT64_MIN), str(INT64_MIN - 1), str(INT64_MAX), str(INT64_MAX - 1),
    str(INT64_MAX + 1), "f(%d)" % INT64_MIN, "1" * 19, "9" * 19, "1" * 20, "-" + "1" * 20,
    "-0", "f(-0)", "--1", "- 1",
    "1-1", "f(a)-1", "[1,-1]", "[a|-1]", "f(a)(b)", "[](x)", "'[]'(x)", "'[]'",
    "[a|b|c]", "[a|b,c]", "[|a]", "f()", "a,b", "a|b", "X(a)", "1(a)", "(a)",
    "f(_, _)", "f(_,_)", "f(X, X)", "f(X,X)", "[X,Y|X]",
    r"'a\'b\\c\nd\te'", r"'\z'", "'open", "'a''b'", "''(x)", ";(a,!)", "'-'(1)", "'\\+'",
    "a.", "f(a).", "f(a). ", " a", "f( a)", "f(a)\n", "f(a)%c",
    "é", "'é'", "f(é)", "aé", "f(١٢)",
])
def test_a_payload_reads_as_parse_term_reads_its_text(text):
    expected = reader_digest.outcome(parse_term, text)
    assert reader_digest.outcome(read_payload, text) == expected


def _no_operator_reader(text):
    raise AssertionError("the operator reader read %r" % text)


def test_canonical_payloads_never_reach_the_operator_reader(monkeypatch):
    monkeypatch.setattr(reader, "tokenize", _no_operator_reader)

    @settings(max_examples=300, deadline=None)
    @given(terms())
    def round_trip(t):
        assert variant_eq(t, deserialize(serialize(t)))

    round_trip()
