#!/usr/bin/env python3
"""One sha256 over what the reader makes of a fixed, seeded corpus, and a
count per outcome kind.

The corpus has three parts:

- `random`: seeded random strings, each read by both `parse_term` and
  `parse_program`.  They are drawn from single characters (non-ASCII
  letters and digits among them) and from fragments of program text, so
  that many read as terms or clauses and the rest hit each reader error.
- `programs`: the shipped `.dahl` programs, read by `parse_program`.
- `canonical`: the canonical text of seeded random terms, read by
  `parse_term`.

An outcome is the canonical text of what was read, or a `ReaderError`'s
message, line and column, or the type and message of any other exception.
Two trees of the code whose reader should behave the same print the same
digest; with `--dump` the script prints one outcome per line, so the
inputs on which two trees differ show with `diff`:

    PYTHONPATH=src python3 scripts/reader_digest.py
    PYTHONPATH=src python3 scripts/reader_digest.py --dump > outcomes.txt
"""

import argparse
import collections
import hashlib
import random
from pathlib import Path

import logicnode.protocols
from logicnode.reader import ReaderError, parse_program, parse_term, term_text
from logicnode.terms import Atom, Int, Struct, Var, deref, mklist

ASSETS = Path(logicnode.protocols.__file__).parent / "assets"

CHARS = ("abfpXY_Z019 \t\n(),[]|'\\%.!;:-+*/=<>\"éß²١Ωx")
FRAGMENTS = (
    "p", "f(", "g(a, ", ")", ")", "X", "_", "Y1", " ", " ", "\n", ", ", ";",
    " :- ", ":- ", "->", "\\+ ", "-", "- ", "1", "42", "9999999999999999999",
    "99999999999999999999", "[", "]", "[]", "|", "'q x'", "'a\\'b'", "'\\z'",
    "'", ".", ". ", ".\n", "% c\n", "event p/1", "dynamic q/2", "alarm t/0",
    "is", " is ", " mod ", "=<", "==", "\\=", "é", "²", "١٢", "Ωmega", "!",
)

OPERATOR_NAMES = (":-", ";", "->", ",", "=", "is", "+", "-", "*", "mod", "\\+", ".")
QUOTED_POOL = " '\\\n\taz[]().,:-?%0é²"
SEED = 1
N_RANDOM = 300_000  # random strings, each read as a term and as a program
N_CANONICAL = 20_000  # canonical texts of random terms


def random_text(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 24)))
    return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 12)))


def random_term(rng: random.Random, depth: int = 3):
    r = rng.random()
    if depth == 0 or r < 0.35:
        kind = rng.randrange(4)
        if kind == 0:
            return Int(rng.choice((rng.randint(-99, 99),
                                   rng.randint(-2 ** 63, 2 ** 63 - 1))))
        if kind == 1:
            return Atom(rng.choice(("a", "foo_1", "[]", "!", ";", "X", "")))
        if kind == 2:
            return Atom("".join(rng.choice(QUOTED_POOL)
                                for _ in range(rng.randint(0, 6))))
        return Var("V%d" % rng.randrange(4))
    if r < 0.8:
        name = rng.choice(OPERATOR_NAMES + ("f", "g1", "Big", "a b", "[]", ""))
        return Struct(name, tuple(random_term(rng, depth - 1)
                                  for _ in range(rng.randint(1, 3))))
    return mklist([random_term(rng, depth - 1) for _ in range(rng.randint(0, 3))])


def outcome(read, text: str) -> tuple:
    """(kind, detail) of reading `text` with `read`."""
    try:
        result = read(text)
    except ReaderError as e:
        return "reader_error", "%s @%d:%d" % (e.message, e.line, e.col)
    except Exception as e:  # any other exception is a defect worth counting
        return "other", "%s: %s" % (type(e).__name__, e)
    if read is parse_program:
        # one line per program, so that `--dump` keeps one outcome per line
        return "read", "%r %s" % (result.directives, " | ".join(
            term_text(Struct(":-", (c.head, c.body))) for c in result.clauses))
    return "read", term_text(deref(result))


def corpus():
    """(part, reader, text) for every input, in a fixed order."""
    rng = random.Random(SEED)
    for _ in range(N_RANDOM):
        text = random_text(rng)
        yield "random", parse_term, text
        yield "random", parse_program, text
    for path in sorted(ASSETS.glob("*.dahl")):
        yield "programs", parse_program, path.read_text(encoding="utf-8")
    rng = random.Random(SEED + 1)
    for _ in range(N_CANONICAL):
        yield "canonical", parse_term, term_text(random_term(rng))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", action="store_true",
                    help="print one outcome per input instead of the summary")
    args = ap.parse_args()

    digest = hashlib.sha256()
    counts = collections.Counter()
    for part, read, text in corpus():
        kind, detail = outcome(read, text)
        line = "%s %s %r %s %s" % (part, read.__name__, text, kind, detail)
        digest.update(line.encode("utf-8", "backslashreplace") + b"\n")
        counts[part, read.__name__, kind] += 1
        if args.dump:
            print(line)
    if args.dump:
        return
    print("outcomes", digest.hexdigest())
    for (part, reader, kind), n in sorted(counts.items()):
        print("%-9s %-13s %-12s %d" % (part, reader, kind, n))


if __name__ == "__main__":
    main()
