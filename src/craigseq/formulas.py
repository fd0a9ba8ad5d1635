"""First-order formulas with de Bruijn binders and their basic operations.

Variables are natural numbers.  A quantifier binds index 0 of its body; free
variables inside the body are shifted up by one.  ``bind`` and ``inst`` convert
between a named free variable and the bound index, so callers can work with
named variables and never touch raw indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Literal, NamedTuple

VarId = int
PredId = int
Quantifier = Literal["all", "ex"]


class Formula:
    """Base class of all formula nodes.  Instances are immutable and hashable.

    A node computes its hash once, when it is built, from its tag and its
    children's hashes.  Its canonical key, free variables and polarity are
    computed the first time each is asked for and kept on the node.  They are
    computed by explicit-stack walks that stop at subnodes whose value is
    already cached, so the depth of a formula is bounded by memory, not by
    the recursion limit.
    """

    __slots__ = ()

    _tag: ClassVar[int]
    _hash: int
    _key: tuple[int, ...] | None = None
    _fv: tuple[VarId, ...] | None = None
    _pol: Polarity | None = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and canonical_key(self) == canonical_key(other)


_set = object.__setattr__


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    pred: PredId
    args: tuple[VarId, ...] = ()
    _tag = 0

    def __post_init__(self) -> None:
        _set(self, "args", tuple(self.args))
        _set(self, "_hash", hash((self._tag, self.pred, self.args)))


@dataclass(frozen=True, eq=False)
class Bot(Formula):
    _tag = 1

    def __post_init__(self) -> None:
        _set(self, "_hash", hash((self._tag,)))


@dataclass(frozen=True, eq=False)
class Top(Formula):
    _tag = 2

    def __post_init__(self) -> None:
        _set(self, "_hash", hash((self._tag,)))


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula
    _tag = 3

    def __post_init__(self) -> None:
        _set(self, "_hash", hash((self._tag, self.left._hash, self.right._hash)))


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula
    _tag = 4

    def __post_init__(self) -> None:
        _set(self, "_hash", hash((self._tag, self.left._hash, self.right._hash)))


@dataclass(frozen=True, eq=False)
class Not(Formula):
    sub: Formula
    _tag = 5

    def __post_init__(self) -> None:
        _set(self, "_hash", hash((self._tag, self.sub._hash)))


@dataclass(frozen=True, eq=False)
class FAll(Formula):
    body: Formula
    _tag = 6

    def __post_init__(self) -> None:
        _set(self, "_hash", hash((self._tag, self.body._hash)))


@dataclass(frozen=True, eq=False)
class FEx(Formula):
    body: Formula
    _tag = 7

    def __post_init__(self) -> None:
        _set(self, "_hash", hash((self._tag, self.body._hash)))


BOT = Bot()
TOP = Top()


def _lift(s: Callable[[VarId], VarId]) -> Callable[[VarId], VarId]:
    """Shift a renaming under one binder: index 0 is untouched."""
    return lambda v: 0 if v == 0 else s(v - 1) + 1


def rename_vars(s: Callable[[VarId], VarId], f: Formula) -> Formula:
    """Apply the total variable renaming ``s``, lifted under binders."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(s(v) for v in f.args))
    if isinstance(f, (Bot, Top)):
        return f
    if isinstance(f, And):
        return And(rename_vars(s, f.left), rename_vars(s, f.right))
    if isinstance(f, Or):
        return Or(rename_vars(s, f.left), rename_vars(s, f.right))
    if isinstance(f, Not):
        return Not(rename_vars(s, f.sub))
    if isinstance(f, FAll):
        return FAll(rename_vars(_lift(s), f.body))
    if isinstance(f, FEx):
        return FEx(rename_vars(_lift(s), f.body))
    raise TypeError(f"not a formula: {f!r}")


def bind(q: Quantifier, a: VarId, f: Formula) -> Formula:
    """Quantify ``f`` over the named variable ``a``.

    Occurrences of ``a`` become the bound index; every other variable is
    shifted up to make room.
    """
    body = rename_vars(lambda v: 0 if v == a else v + 1, f)
    return FAll(body) if q == "all" else FEx(body)


def inst(q: Quantifier, t: VarId, f: Formula) -> Formula:
    """Open the ``q``-quantified formula ``f`` with the variable ``t``.

    Partial: ``f`` must be headed by the matching quantifier.
    """
    if q == "all":
        if not isinstance(f, FAll):
            raise ValueError(f"inst('all', ...) needs a universally quantified formula, got {f!r}")
        body = f.body
    else:
        if not isinstance(f, FEx):
            raise ValueError(f"inst('ex', ...) needs an existentially quantified formula, got {f!r}")
        body = f.body
    return rename_vars(lambda v: t if v == 0 else v - 1, body)


def pre_suc(xs: Iterable[VarId]) -> list[VarId]:
    """Drop zeros and shift the remaining indices down by one."""
    return [v - 1 for v in xs if v > 0]


def free_vars(f: Formula) -> list[VarId]:
    """Free variables of ``f`` in syntactic order, duplicates preserved."""
    fv = f._fv
    if fv is None:
        out: list[VarId] = []
        stack = [(f, 0)]  # a subformula and the number of binders above it in f
        while stack:
            g, bound = stack.pop()
            vs = g.args if isinstance(g, Atom) else g._fv
            if vs is not None:
                out += [v - bound for v in vs if v >= bound] if bound else vs
            elif isinstance(g, (And, Or)):
                stack += ((g.right, bound), (g.left, bound))
            elif isinstance(g, Not):
                stack.append((g.sub, bound))
            elif isinstance(g, (FAll, FEx)):
                stack.append((g.body, bound + 1))
        fv = tuple(out)
        _set(f, "_fv", fv)
    return list(fv)


class Polarity(NamedTuple):
    positives: frozenset[PredId]
    negatives: frozenset[PredId]


def polarity(f: Formula) -> Polarity:
    """Predicate identifiers occurring positively and negatively in ``f``."""
    p = f._pol
    if p is None:
        sides: tuple[set[PredId], set[PredId]] = (set(), set())
        stack = [(f, 0)]  # a subformula and 1 when it sits under an odd number of negations in f
        while stack:
            g, odd = stack.pop()
            if isinstance(g, Atom):
                sides[odd].add(g.pred)
            elif g._pol is not None:
                sides[odd].update(g._pol.positives)
                sides[1 - odd].update(g._pol.negatives)
            elif isinstance(g, (And, Or)):
                stack += ((g.left, odd), (g.right, odd))
            elif isinstance(g, Not):
                stack.append((g.sub, 1 - odd))
            elif isinstance(g, (FAll, FEx)):
                stack.append((g.body, odd))
        p = Polarity(frozenset(sides[0]), frozenset(sides[1]))
        _set(f, "_pol", p)
    return p


def pos(f: Formula) -> frozenset[PredId]:
    return polarity(f).positives


def neg(f: Formula) -> frozenset[PredId]:
    return polarity(f).negatives


def canonical_key(f: Formula) -> tuple[int, ...]:
    """Flat preorder encoding of ``f``: its tag, then for an atom the
    predicate, arity and arguments, else its children's keys in order.

    Lexicographic order on keys is a total order on formulas, and two formulas
    have equal keys exactly when they are equal.
    """
    k = f._key
    if k is None:
        out: list[int] = []
        stack = [f]
        while stack:
            g = stack.pop()
            if g._key is not None:
                out += g._key
                continue
            out.append(g._tag)
            if isinstance(g, Atom):
                out.append(g.pred)
                out.append(len(g.args))
                out += g.args
            elif isinstance(g, (And, Or)):
                stack += (g.right, g.left)
            elif isinstance(g, Not):
                stack.append(g.sub)
            elif isinstance(g, (FAll, FEx)):
                stack.append(g.body)
        k = tuple(out)
        _set(f, "_key", k)
    return k


def canonical_compare(a: Formula, b: Formula) -> int:
    """Three-way comparison in the canonical formula order."""
    ka = canonical_key(a)
    kb = canonical_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def match_inst(quantified: Formula, instance: Formula) -> VarId | None:
    """Find a variable ``t`` with ``inst(q, t, quantified) == instance``.

    The quantifier is read off the head of ``quantified``; ``None`` when the
    head is not a quantifier or no variable works.  When several work (the
    vacuous case) the smallest is returned.
    """
    if isinstance(quantified, FAll):
        q: Quantifier = "all"
    elif isinstance(quantified, FEx):
        q = "ex"
    else:
        return None
    limit = max(free_vars(instance), default=-1) + 2
    for t in range(limit):
        if inst(q, t, quantified) == instance:
            return t
    return None


def match_bind(quantified: Formula, body: Formula, forbidden: Iterable[VarId]) -> VarId | None:
    """Find a variable ``a`` outside ``forbidden`` with ``bind(q, a, body) == quantified``.

    The quantifier is read off the head of ``quantified``.  When the binder is
    vacuous any fresh variable works and the smallest is returned; otherwise
    the answer is the unique variable abstracted by ``quantified``.
    """
    if isinstance(quantified, FAll):
        q: Quantifier = "all"
    elif isinstance(quantified, FEx):
        q = "ex"
    else:
        return None
    bad = set(forbidden)
    fv = set(free_vars(body))
    limit = max(bad | fv, default=-1) + 2
    for a in range(limit):
        if a not in bad and bind(q, a, body) == quantified:
            return a
    return None
