"""Program text parsing and the canonical wire form of terms.

The surface syntax is a small Prolog subset: clauses and directives with the
usual operators, `%` line comments, quoted atoms, bracket lists.  The wire
form is deterministic canonical text: every compound except lists is written
functionally, atoms are quoted unless they look like plain identifiers and
variables are renamed `_G1`, `_G2`, ... in order of first appearance.

Two limits keep any input, program text or a peer's payload, from reaching
the interpreter's own limits: a term may nest at most `MAX_DEPTH` levels of
brackets and operators, and an integer literal may have at most
`MAX_INT_DIGITS` digits (int64 needs 19).  Past either one the reader
raises `ReaderError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .terms import Atom, EMPTY_LIST, Int, Struct, Term, Var, deref, list_parts


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

_SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")
_SOLO = {"!", ";"}
_NAME_RE = re.compile(r"[a-zA-Z0-9_]*")
_PLAIN_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

# token kinds: atom var int punct end eof
@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int
    compound: bool = False  # atom immediately followed by '('
    value: int = 0


def tokenize(text: str) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)

    def adv(k):
        nonlocal i, line, col
        for c in text[i:i + k]:
            if c == "\n":
                line += 1
                col = 1
            else:
                col += 1
        i += k

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            adv(1)
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                adv(1)
            continue
        tl, tc = line, col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_INT_DIGITS:
                raise ReaderError("integer literal longer than %d digits"
                                  % MAX_INT_DIGITS, tl, tc)
            toks.append(Token("int", text[i:j], tl, tc, value=int(text[i:j])))
            adv(j - i)
            continue
        if c == "_" or c.isalpha():
            m = _NAME_RE.match(text, i + 1)
            j = m.end()
            word = text[i:j]
            adv(j - i)
            if c == "_" or c.isupper():
                toks.append(Token("var", word, tl, tc))
            else:
                toks.append(Token("atom", word, tl, tc,
                                  compound=(i < n and text[i] == "(")))
            continue
        if c == "'":
            buf = []
            j = i + 1
            while True:
                if j >= n:
                    raise ReaderError("unterminated quoted atom", tl, tc)
                ch = text[j]
                if ch == "\\":
                    if j + 1 >= n:
                        raise ReaderError("dangling escape", tl, tc)
                    esc = text[j + 1]
                    rep = {"\\": "\\", "'": "'", "n": "\n", "t": "\t"}.get(esc)
                    if rep is None:
                        raise ReaderError("unknown escape \\%s" % esc, tl, tc)
                    buf.append(rep)
                    j += 2
                    continue
                if ch == "'":
                    j += 1
                    break
                buf.append(ch)
                j += 1
            adv(j - i)
            toks.append(Token("atom", "".join(buf), tl, tc,
                              compound=(i < n and text[i] == "(")))
            continue
        if c in "()[]|,":
            toks.append(Token("punct", c, tl, tc))
            adv(1)
            continue
        if c in _SOLO:
            toks.append(Token("atom", c, tl, tc, compound=(i + 1 < n and text[i + 1] == "(")))
            adv(1)
            continue
        if c in _SYMBOL_CHARS:
            j = i
            while j < n and text[j] in _SYMBOL_CHARS:
                j += 1
            sym = text[i:j]
            # a '.' that ends a clause: bare dot followed by layout or EOF
            if sym[0] == "." and (sym == "." and (j >= n or text[j] in " \t\r\n%")):
                toks.append(Token("end", ".", tl, tc))
                adv(1)
                continue
            toks.append(Token("atom", sym, tl, tc, compound=(j < n and text[j] == "(")))
            adv(j - i)
            continue
        raise ReaderError("unexpected character %r" % c, tl, tc)
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass
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
    def __init__(self, tokens: list):
        self.toks = tokens
        self.pos = 0
        self.vars: dict = {}
        self.depth = 0  # nesting of the term being read, see `parse`

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise ReaderError("expected %s, got %r" % (text or kind, t.text or t.kind),
                              t.line, t.col)
        return self.next()

    def err(self, msg: str):
        t = self.peek()
        raise ReaderError(msg, t.line, t.col)

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
            t = self.peek()
            name = None
            if t.kind == "atom":
                name = t.text
            elif t.kind == "punct" and t.text == ",":
                name = ","
            if name is None or name not in INFIX_OPS:
                break
            p, typ = INFIX_OPS[name]
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
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Int(t.value), 0
        if t.kind == "var":
            self.next()
            return self.getvar(t.text), 0
        if t.kind == "punct":
            if t.text == "(":
                self.next()
                inner = self.parse(1200)
                self.expect("punct", ")")
                return inner, 0
            if t.text == "[":
                self.next()
                return self.parse_list(), 0
            self.err("unexpected %r" % t.text)
        if t.kind == "atom":
            self.next()
            if t.compound:
                self.expect("punct", "(")
                args = [self.parse(999)]
                while self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    args.append(self.parse(999))
                self.expect("punct", ")")
                return Struct(t.text, tuple(args)), 0
            if t.text in PREFIX_OPS and self.starts_term():
                p, typ = PREFIX_OPS[t.text]
                if p <= maxp:
                    if t.text == "-" and self.peek().kind == "int":
                        v = self.next()
                        return Int(-v.value), 0
                    arg = self.parse(p if typ == "fy" else p - 1)
                    return Struct(t.text, (arg,)), p
            return Atom(t.text), 0
        self.err("unexpected end of input" if t.kind == "eof" else "unexpected token")

    def starts_term(self) -> bool:
        t = self.peek()
        if t.kind in ("int", "var"):
            return True
        if t.kind == "punct" and t.text in "([":
            return True
        if t.kind == "atom":
            # an infix-only operator cannot start an operand
            return t.text not in INFIX_OPS or t.text in PREFIX_OPS or t.compound
        return False

    def parse_list(self) -> Term:
        if self.peek().kind == "punct" and self.peek().text == "]":
            self.next()
            return EMPTY_LIST
        items = [self.parse(999)]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            items.append(self.parse(999))
        tail: Term = EMPTY_LIST
        if self.peek().kind == "punct" and self.peek().text == "|":
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
        if t.kind == "atom" and t.text == ":-" and not t.compound:
            nxt = self.toks[self.pos + 1]
            if (nxt.kind == "atom" and not nxt.compound
                    and self.toks[self.pos + 2].kind in ("atom", "var", "int")):
                # keyword-style directive: `:- dynamic p/1, q/2.`
                self.next()
                kw = self.next().text
                spec = self.parse(1150)
                self.expect("end")
                if kw not in ("event", "alarm", "dynamic"):
                    raise ReaderError("unknown directive %r" % kw, t.line, t.col)
                return Directive(kw, self.parse_indicator_list(spec))
        term = self.parse(1200)
        self.expect("end")
        term = deref(term)
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 1:
            body = deref(term.args[0])
            if isinstance(body, Struct) and body.name in ("event", "alarm", "dynamic"):
                specs = body.args[0] if len(body.args) == 1 else None
                if specs is None:
                    raise ReaderError("malformed directive", t.line, t.col)
                return Directive(body.name, self.parse_indicator_list(specs))
            name = body.name if isinstance(body, (Atom, Struct)) else "?"
            raise ReaderError("unknown directive %r" % name, t.line, t.col)
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 2:
            head, body = term.args
            head = deref(head)
            if not isinstance(head, (Atom, Struct)):
                raise ReaderError("clause head must be callable", t.line, t.col)
            return Clause(head, body)
        if not isinstance(term, (Atom, Struct)):
            raise ReaderError("clause must be callable", t.line, t.col)
        return Clause(term, Atom("true"))


def parse_program(text: str) -> Program:
    p = _Parser(tokenize(text))
    prog = Program()
    while p.peek().kind != "eof":
        item = p.parse_clause_or_directive()
        if isinstance(item, Directive):
            prog.directives.append(item)
        else:
            prog.clauses.append(item)
    return prog


def parse_term(text: str) -> Term:
    p = _Parser(tokenize(text))
    t = p.parse(1200)
    if p.peek().kind == "end":
        p.next()
    if p.peek().kind != "eof":
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
            out.append(_atom_text(x.name))
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
