"""Random term generators shared by the serialization tests, and a
reference unifier for the engine's tests.

Two flavors of generator: a hypothesis strategy for shrinkable property
tests and a plain seeded generator that is fast enough for large fuzz
counts.
"""

import random
import string

from hypothesis import strategies as st

from logicnode.terms import Atom, INT64_MAX, INT64_MIN, Int, Struct, Var, mklist

_PLAIN_FIRST = string.ascii_lowercase
_PLAIN_REST = string.ascii_letters + string.digits + "_"

plain_atoms = st.builds(
    lambda h, t: h + t,
    st.sampled_from(_PLAIN_FIRST),
    st.text(alphabet=_PLAIN_REST, max_size=6))

# anything printable needs quoting support, including the escape set
quoted_atoms = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=0, max_size=8)

atoms = st.one_of(plain_atoms, quoted_atoms).map(Atom)
ints = st.integers(min_value=INT64_MIN, max_value=INT64_MAX).map(Int)
variables = st.from_regex(r"[A-Z_][a-zA-Z0-9_]{0,5}", fullmatch=True).map(Var)


def terms(max_leaves: int = 20):
    return st.recursive(
        st.one_of(atoms, ints, variables),
        lambda inner: st.one_of(
            st.builds(lambda n, args: Struct(n, tuple(args)),
                      st.one_of(plain_atoms, quoted_atoms, st.just("[]")),
                      st.lists(inner, min_size=1, max_size=4)),
            st.builds(mklist, st.lists(inner, min_size=0, max_size=4)),
        ),
        max_leaves=max_leaves)


def random_term(rng: random.Random, depth: int = 3):
    """Fast generator used for high-volume round-trip fuzzing."""
    r = rng.random()
    if depth == 0 or r < 0.35:
        kind = rng.randrange(4)
        if kind == 0:
            return Int(rng.randint(INT64_MIN, INT64_MAX))
        if kind == 1:
            n = rng.randint(1, 8)
            return Atom(rng.choice(_PLAIN_FIRST)
                        + "".join(rng.choice(_PLAIN_REST) for _ in range(n - 1)))
        if kind == 2:
            pool = " '\\\n\taz[]().,:-?%0é"
            n = rng.randint(0, 8)
            return Atom("".join(rng.choice(pool) for _ in range(n)))
        return Var("V%d" % rng.randrange(6))
    if r < 0.8:
        name = rng.choice("fgh") + str(rng.randrange(3))
        arity = rng.randint(1, 4)
        return Struct(name, tuple(random_term(rng, depth - 1)
                                  for _ in range(arity)))
    return mklist([random_term(rng, depth - 1)
                   for _ in range(rng.randint(0, 4))])


# --- a reference unifier, independent of the engine's ---

CYCLIC = "cyclic"  # what `unify_terms` returns when only a cyclic term unifies


def substitute(t, subst: dict):
    """`t` with each variable that `subst` maps replaced by its term."""
    if isinstance(t, Var):
        return subst.get(t, t)
    if isinstance(t, Struct):
        return Struct(t.name, tuple(substitute(a, subst) for a in t.args))
    return t


def _occurs(v: Var, t) -> bool:
    return t is v or isinstance(t, Struct) and any(_occurs(v, a) for a in t.args)


def disagreement(a, b):
    """The leftmost pair of subterms at which `a` and `b` differ, or None when
    they are structurally identical (a variable is identical only to
    itself)."""
    if isinstance(a, Struct) and isinstance(b, Struct) and (
            a.name, len(a.args)) == (b.name, len(b.args)):
        return next((d for d in map(disagreement, a.args, b.args) if d is not None),
                    None)
    return None if a is b or a == b else (a, b)


def unify_terms(a, b):
    """Most general unifier of `a` and `b`, by Robinson's method: bind a
    variable of the leftmost disagreement and apply the substitution to both
    terms, until they agree.  Returns {Var: term} for each variable it binds,
    None when the terms do not unify, or CYCLIC when the occurs check fails.
    Reads no binding, so the variables of `a` and `b` must be unbound, and
    leaves both terms as they were."""
    subst: dict = {}
    while True:
        pair = disagreement(substitute(a, subst), substitute(b, subst))
        if pair is None:
            return subst
        v, t = pair if isinstance(pair[0], Var) else pair[::-1]
        if not isinstance(v, Var):
            return None  # different atoms, integers or functors
        if _occurs(v, t):
            return CYCLIC
        subst = {w: substitute(s, {v: t}) for w, s in subst.items()}
        subst[v] = t
