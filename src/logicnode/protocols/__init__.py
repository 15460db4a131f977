"""Shipped protocol programs and their native drivers."""

from __future__ import annotations

from pathlib import Path

from ..reader import Clause, Program, parse_program, parse_term
from ..terms import Atom

ASSET_DIR = Path(__file__).parent / "assets"


def asset_path(name: str) -> Path:
    return ASSET_DIR / ("%s.dahl" % name)


def load_asset(name: str) -> Program:
    return parse_program(asset_path(name).read_text(encoding="utf-8"))


def load_program(name: str, base: Path | str = ".") -> Program:
    """The program in the file `name`, relative to the directory `base`, or
    else the bundled asset `name`; FileNotFoundError if it is neither."""
    for p in (Path(base, name), asset_path(name)):
        if p.is_file():
            return parse_program(p.read_text(encoding="utf-8"))
    raise FileNotFoundError("no program file or asset named %r" % name)


def facts(*texts: str) -> list:
    """Build fact clauses from term texts."""
    return [Clause(parse_term(t), Atom("true")) for t in texts]
