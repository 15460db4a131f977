"""Program text parsing and the canonical wire form of terms.

The surface syntax is a small Prolog subset: clauses and directives with the
usual operators, `%` line comments, quoted atoms, bracket lists.  The wire
form is deterministic canonical text: every compound except lists is written
functionally, atoms are quoted unless they look like plain identifiers or
are `[]`, `!` or `;` (a compound named `[]` is written `'[]'(...)`), and
variables are renamed `_G1`, `_G2`, ... in order of first appearance.
The same reader parses program text and every payload a node receives.

`tokenize` turns text into plain tuples (kind, text, offset, compound) and
the parser reads them by index.  Tokens carry only their offset into the
text; the line and column in a `ReaderError` are worked out from it when
the error is raised.

Two limits keep any input, program text or a peer's payload, from reaching
the interpreter's own limits: a term may nest at most `MAX_DEPTH` levels of
brackets and operators, and an integer literal may have at most
`MAX_INT_DIGITS` digits (int64 needs 19).  Past either one the reader
raises `ReaderError`, and so it does for a literal outside int64, the range
of the engine's arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .terms import (
    Atom, EMPTY_LIST, INT64_MAX, INT64_MIN, Int, Struct, Term, Var, deref,
    list_parts,
)


class ReaderError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message = message
        self.line = line
        self.col = col


# operator name -> (priority, type)
INFIX_OPS = {
    ":-": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "=:=": (700, "xfx"),
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
    "/": (400, "yfx"),
}

PREFIX_OPS = {
    ":-": (1200, "fx"),
    "\\+": (900, "fy"),
    "-": (200, "fy"),
}

MAX_DEPTH = 200  # the shipped programs nest at most 13 levels
MAX_INT_DIGITS = 19

_NAME_RE = re.compile(r"[a-zA-Z0-9_]*")
_DIGITS_RE = re.compile(r"\d+")  # \d is str.isdecimal: `int` reads them all
_SYMBOLS_RE = re.compile(r"[-+*/\\^<>=~:.?@#&$]+")
_QUOTED_RUN_RE = re.compile(r"[^'\\]*")
_PLAIN_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_ESCAPES = {"\\": "\\", "'": "'", "n": "\n", "t": "\t"}


def _error(text: str, offset: int, message: str) -> ReaderError:
    """A `ReaderError` at the line and column of `offset` in `text`."""
    line = text.count("\n", 0, offset) + 1
    return ReaderError(message, line, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> list:
    """The tokens of `text`, each a tuple (kind, text, offset, compound).

    Kinds: atom var int punct end eof.  `compound` is true for an atom
    immediately followed by '('; an int token keeps its digits as text.
    """
    toks = []
    append = toks.append
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "%":
            i = text.find("\n", i)
            if i < 0:
                i = n
        elif c in "()[]|,":
            append(("punct", c, i, False))
            i += 1
        elif c == "_" or c.isalpha():
            j = _NAME_RE.match(text, i + 1).end()
            if c == "_" or c.isupper():
                append(("var", text[i:j], i, False))
            else:
                append(("atom", text[i:j], i, text.startswith("(", j)))
            i = j
        elif c.isdecimal():
            j = _DIGITS_RE.match(text, i).end()
            if j - i > MAX_INT_DIGITS:
                raise _error(text, i, "integer literal longer than %d digits"
                             % MAX_INT_DIGITS)
            append(("int", text[i:j], i, False))
            i = j
        elif c == "'":
            parts = []
            j = i + 1
            while True:
                k = _QUOTED_RUN_RE.match(text, j).end()
                parts.append(text[j:k])
                if k >= n:
                    raise _error(text, i, "unterminated quoted atom")
                if text[k] == "'":
                    break
                if k + 1 >= n:
                    raise _error(text, i, "dangling escape")
                rep = _ESCAPES.get(text[k + 1])
                if rep is None:
                    raise _error(text, i, "unknown escape \\%s" % text[k + 1])
                parts.append(rep)
                j = k + 2
            append(("atom", "".join(parts), i, text.startswith("(", k + 1)))
            i = k + 1
        elif c == "!" or c == ";":
            append(("atom", c, i, text.startswith("(", i + 1)))
            i += 1
        else:
            m = _SYMBOLS_RE.match(text, i)
            if m is None:
                raise _error(text, i, "unexpected character %r" % c)
            j = m.end()
            # a '.' that ends a clause: bare dot followed by layout or EOF
            if j == i + 1 and c == "." and (j >= n or text[j] in " \t\r\n%"):
                append(("end", ".", i, False))
            else:
                append(("atom", text[i:j], i, text.startswith("(", j)))
            i = j
    append(("eof", "", n, False))
    return toks


@dataclass(eq=False)
class Clause:
    head: Term
    body: Term


@dataclass
class Directive:
    kind: str  # event | alarm | dynamic
    indicators: list  # of (name, arity)


@dataclass
class Program:
    directives: list = field(default_factory=list)
    clauses: list = field(default_factory=list)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.vars: dict = {}
        self.depth = 0  # nesting of the term being read, see `parse`

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_punct(self, char: str) -> bool:
        kind, text, _, _ = self.toks[self.pos]
        return kind == "punct" and text == char

    def expect(self, kind: str, text: Optional[str] = None) -> tuple:
        t = self.peek()
        if t[0] != kind or (text is not None and t[1] != text):
            self.err("expected %s, got %r" % (text or kind, t[1] or t[0]))
        return self.next()

    def err(self, msg: str, tok: Optional[tuple] = None):
        """Raise at `tok`, by default the next token."""
        raise _error(self.text, (tok or self.peek())[2], msg)

    def getvar(self, name: str) -> Var:
        if name == "_":
            return Var("_")
        v = self.vars.get(name)
        if v is None:
            v = Var(name)
            self.vars[name] = v
        return v

    # --- expressions ---

    def parse(self, maxp: int) -> Term:
        # every bracket, prefix operator and right operand is read by a
        # nested call, and each operator applied in the loop below nests
        # `left` one level deeper: both count against MAX_DEPTH
        outer = self.depth
        if outer >= MAX_DEPTH:
            self.err("term nested deeper than %d levels" % MAX_DEPTH)
        self.depth += 1
        left, leftp = self.primary(maxp)
        while True:
            name = self.peek()[1]  # only an atom or ',' has an operator's text
            op = INFIX_OPS.get(name)
            if op is None:
                break
            p, typ = op
            if p > maxp:
                break
            la = p if typ == "yfx" else p - 1
            if leftp > la:
                break
            self.next()
            ra = p if typ == "xfy" else p - 1
            right = self.parse(ra)
            left = Struct(name, (left, right))
            leftp = p
            self.depth += 1
        self.depth = outer
        return left

    def primary(self, maxp: int):
        kind, text, _, compound = self.peek()
        if kind == "int":
            return self.int_literal(1), 0
        if kind == "var":
            self.next()
            return self.getvar(text), 0
        if kind == "punct":
            if text == "(":
                self.next()
                inner = self.parse(1200)
                self.expect("punct", ")")
                return inner, 0
            if text == "[":
                self.next()
                return self.parse_list(), 0
            self.err("unexpected %r" % text)
        if kind == "atom":
            self.next()
            if compound:
                self.next()  # the '('
                args = [self.parse(999)]
                while self.at_punct(","):
                    self.next()
                    args.append(self.parse(999))
                self.expect("punct", ")")
                return Struct(text, tuple(args)), 0
            if text in PREFIX_OPS and self.starts_term():
                p, typ = PREFIX_OPS[text]
                if p <= maxp:
                    if text == "-" and self.peek()[0] == "int":
                        return self.int_literal(-1), 0
                    arg = self.parse(p if typ == "fy" else p - 1)
                    return Struct(text, (arg,)), p
            return Atom(text), 0
        self.err("unexpected end of input" if kind == "eof" else "unexpected token")

    def int_literal(self, sign: int) -> Int:
        """The next token, an integer literal, times `sign`."""
        tok = self.next()
        value = sign * int(tok[1])
        if not INT64_MIN <= value <= INT64_MAX:
            self.err("integer literal outside int64", tok)
        return Int(value)

    def starts_term(self) -> bool:
        kind, text, _, compound = self.peek()
        if kind == "int" or kind == "var":
            return True
        if kind == "punct":
            return text in "(["
        if kind == "atom":
            # an infix-only operator cannot start an operand
            return text not in INFIX_OPS or text in PREFIX_OPS or compound
        return False

    def parse_list(self) -> Term:
        if self.at_punct("]"):
            self.next()
            return EMPTY_LIST
        items = [self.parse(999)]
        while self.at_punct(","):
            self.next()
            items.append(self.parse(999))
        tail: Term = EMPTY_LIST
        if self.at_punct("|"):
            self.next()
            tail = self.parse(999)
        self.expect("punct", "]")
        out = tail
        for item in reversed(items):
            out = Struct(".", (item, out))
        return out

    # --- clauses and directives ---

    def parse_indicator_list(self, t: Term) -> list:
        out = []

        def walk(x: Term):
            if isinstance(x, Struct) and x.name == "," and len(x.args) == 2:
                walk(x.args[0])
                walk(x.args[1])
                return
            if (isinstance(x, Struct) and x.name == "/" and len(x.args) == 2
                    and isinstance(x.args[0], Atom) and isinstance(x.args[1], Int)
                    and x.args[1].value >= 0):
                out.append((x.args[0].name, x.args[1].value))
                return
            self.err("malformed predicate indicator")

        walk(t)
        return out

    def parse_clause_or_directive(self):
        self.vars = {}
        t = self.peek()
        if t[0] == "atom" and t[1] == ":-" and not t[3]:
            nxt = self.toks[self.pos + 1]
            if (nxt[0] == "atom" and not nxt[3]
                    and self.toks[self.pos + 2][0] in ("atom", "var", "int")):
                # keyword-style directive: `:- dynamic p/1, q/2.`
                self.next()
                kw = self.next()[1]
                spec = self.parse(1150)
                self.expect("end")
                if kw not in ("event", "alarm", "dynamic"):
                    self.err("unknown directive %r" % kw, t)
                return Directive(kw, self.parse_indicator_list(spec))
        term = self.parse(1200)
        self.expect("end")
        term = deref(term)
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 1:
            body = deref(term.args[0])
            if isinstance(body, Struct) and body.name in ("event", "alarm", "dynamic"):
                if len(body.args) != 1:
                    self.err("malformed directive", t)
                return Directive(body.name, self.parse_indicator_list(body.args[0]))
            name = body.name if isinstance(body, (Atom, Struct)) else "?"
            self.err("unknown directive %r" % name, t)
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 2:
            head, body = term.args
            if not isinstance(deref(head), (Atom, Struct)):
                self.err("clause head must be callable", t)
            return Clause(deref(head), body)
        if not isinstance(term, (Atom, Struct)):
            self.err("clause must be callable", t)
        return Clause(term, Atom("true"))


def parse_program(text: str) -> Program:
    p = _Parser(text)
    prog = Program()
    while p.peek()[0] != "eof":
        item = p.parse_clause_or_directive()
        if isinstance(item, Directive):
            prog.directives.append(item)
        else:
            prog.clauses.append(item)
    return prog


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse(1200)
    if p.peek()[0] == "end":
        p.next()
    if p.peek()[0] != "eof":
        p.err("trailing text after term")
    return t


# --- canonical writing ---


def _atom_text(name: str) -> str:
    if name == "[]" or name == "!" or name == ";":
        return name
    if _PLAIN_ATOM_RE.match(name):
        return name
    body = (name.replace("\\", "\\\\").replace("'", "\\'")
            .replace("\n", "\\n").replace("\t", "\\t"))
    return "'%s'" % body


def term_text(t: Term, names: Optional[dict] = None) -> str:
    """Canonical text of a term; `names` carries the variable renaming.

    Walks with an explicit stack, so the depth of a term is not bounded by
    the interpreter's recursion limit.
    """
    if names is None:
        names = {}
    out = []
    todo: list = [t]  # terms to write and, as str, text to copy, last first
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
            continue
        x = deref(x)
        if isinstance(x, Var):
            name = names.get(id(x))
            if name is None:
                name = "_G%d" % (len(names) + 1)
                names[id(x)] = name
            out.append(name)
        elif isinstance(x, Int):
            out.append(str(x.value))
        elif isinstance(x, Atom):
            out.append(_atom_text(x.name))
        elif isinstance(x, Struct) and x.name == "." and len(x.args) == 2:
            items, tail = list_parts(x)
            out.append("[")
            todo.append("]")
            if not (isinstance(tail, Atom) and tail.name == "[]"):
                todo.append(tail)
                todo.append("|")
            _push_args(todo, items)
        elif isinstance(x, Struct):
            # `[](` would read as the empty list and then trailing text
            out.append("'[]'" if x.name == "[]" else _atom_text(x.name))
            out.append("(")
            todo.append(")")
            _push_args(todo, x.args)
        else:
            raise TypeError("not a term: %r" % (x,))
    return "".join(out)


def _push_args(todo: list, args) -> None:
    """Push `args` to be written comma-separated, the first on top."""
    for k in range(len(args) - 1, -1, -1):
        todo.append(args[k])
        if k:
            todo.append(",")


def serialize(t: Term) -> bytes:
    return term_text(t).encode("utf-8")


def deserialize(payload: bytes) -> Term:
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ReaderError("payload is not valid UTF-8: %s" % e)
    return parse_term(text)
