"""Sequents, derivation trees, and the wellformedness checker.

A sequent is a pair of canonically ordered formula sets.  A derivation is a
tree in which every node records the sequent it claims to derive; the checker
``resolve_rule`` reconstructs, for a single node, the rule instance that
justifies the node from its premises.  ``_resolved_preorder`` does so for every
node of a tree in one explicit-stack pass; ``is_wellformed``, the interpolator
and ``craigseq check`` all read the tree through it.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator

from .formulas import (
    BOT,
    TOP,
    And,
    FAll,
    FEx,
    Formula,
    Not,
    Or,
    VarId,
    canonical_key,
    free_vars,
    match_bind,
    match_inst,
)


class FormulaSet:
    """Immutable formula set kept sorted and deduplicated in canonical order."""

    __slots__ = ("_keys", "_items", "_members")

    _keys: tuple[tuple[int, ...], ...]
    _items: tuple[Formula, ...]
    _members: frozenset[Formula]

    def __init__(self, formulas: Iterable[Formula] = ()):
        by_key = {canonical_key(f): f for f in formulas}
        pairs = sorted(by_key.items())
        self._keys = tuple(k for k, _ in pairs)
        self._items = tuple(f for _, f in pairs)
        self._members = frozenset(self._items)

    @staticmethod
    def _build(keys: tuple[tuple[int, ...], ...], items: tuple[Formula, ...]) -> "FormulaSet":
        fs = FormulaSet.__new__(FormulaSet)
        fs._keys = keys
        fs._items = items
        fs._members = frozenset(items)
        return fs

    def __contains__(self, f: object) -> bool:
        return f in self._members

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormulaSet) and self._keys == other._keys

    def __hash__(self) -> int:
        return hash(self._keys)

    def __repr__(self) -> str:
        return f"FormulaSet({list(self._items)!r})"

    def add(self, f: Formula) -> "FormulaSet":
        if f in self._members:
            return self
        k = canonical_key(f)
        i = bisect.bisect_left(self._keys, k)
        return FormulaSet._build(
            self._keys[:i] + (k,) + self._keys[i:],
            self._items[:i] + (f,) + self._items[i:],
        )

    def without(self, f: Formula) -> "FormulaSet":
        if f not in self._members:
            return self
        i = self._items.index(f)
        return FormulaSet._build(self._keys[:i] + self._keys[i + 1 :], self._items[:i] + self._items[i + 1 :])

    def __or__(self, other: "FormulaSet") -> "FormulaSet":
        if not isinstance(other, FormulaSet):
            return NotImplemented
        if not other._items:
            return self
        if not self._items:
            return other
        keys: list[tuple[int, ...]] = []
        items: list[Formula] = []
        i = j = 0
        a, b = self._keys, other._keys
        while i < len(a) and j < len(b):
            if a[i] < b[j]:
                keys.append(a[i])
                items.append(self._items[i])
                i += 1
            elif a[i] > b[j]:
                keys.append(b[j])
                items.append(other._items[j])
                j += 1
            else:
                keys.append(a[i])
                items.append(self._items[i])
                i += 1
                j += 1
        keys.extend(a[i:])
        items.extend(self._items[i:])
        keys.extend(b[j:])
        items.extend(other._items[j:])
        return FormulaSet._build(tuple(keys), tuple(items))

    def __and__(self, other: "FormulaSet") -> "FormulaSet":
        if not isinstance(other, FormulaSet):
            return NotImplemented
        keys: list[tuple[int, ...]] = []
        items: list[Formula] = []
        for k, f in zip(self._keys, self._items):
            if f in other._members:
                keys.append(k)
                items.append(f)
        return FormulaSet._build(tuple(keys), tuple(items))


def fset(*formulas: Formula) -> FormulaSet:
    """Convenience constructor for small formula sets."""
    return FormulaSet(formulas)


EMPTY = FormulaSet()


@dataclass(frozen=True)
class Sequent:
    antecedent: FormulaSet
    succedent: FormulaSet

    def free_vars(self) -> set[VarId]:
        out: set[VarId] = set()
        for f in self.antecedent:
            out.update(free_vars(f))
        for f in self.succedent:
            out.update(free_vars(f))
        return out


class Derivation:
    """Base class of derivation tree nodes; ``tag`` names the rule claimed."""

    __slots__ = ()
    tag = "?"


@dataclass(frozen=True)
class Init(Derivation):
    seq: Sequent

    tag = "Init"


@dataclass(frozen=True)
class BotL(Derivation):
    seq: Sequent

    tag = "BotL"


@dataclass(frozen=True)
class TopR(Derivation):
    seq: Sequent

    tag = "TopR"


@dataclass(frozen=True)
class AndL(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "AndL"


@dataclass(frozen=True)
class AndR(Derivation):
    seq: Sequent
    left: Derivation
    right: Derivation

    tag = "AndR"


@dataclass(frozen=True)
class OrL(Derivation):
    seq: Sequent
    left: Derivation
    right: Derivation

    tag = "OrL"


@dataclass(frozen=True)
class OrR(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "OrR"


@dataclass(frozen=True)
class NotL(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "NotL"


@dataclass(frozen=True)
class NotR(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "NotR"


@dataclass(frozen=True)
class AllL(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "AllL"


@dataclass(frozen=True)
class AllR(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "AllR"


@dataclass(frozen=True)
class ExL(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "ExL"


@dataclass(frozen=True)
class ExR(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "ExR"


@dataclass(frozen=True)
class WL(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "WL"


@dataclass(frozen=True)
class WR(Derivation):
    seq: Sequent
    sub: Derivation

    tag = "WR"


def root(d: Derivation) -> Sequent:
    """The sequent claimed at the root node."""
    return d.seq  # type: ignore[attr-defined]


def premises(d: Derivation) -> tuple[Derivation, ...]:
    """Immediate subderivations: none for leaves, two for AndR/OrL, else one."""
    if isinstance(d, (Init, BotL, TopR)):
        return ()
    if isinstance(d, (AndR, OrL)):
        return (d.left, d.right)
    return (d.sub,)  # type: ignore[attr-defined]


def size(d: Derivation) -> int:
    """Number of nodes in the tree."""
    total = 0
    stack = [d]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(premises(node))
    return total


@dataclass(frozen=True)
class RuleInstance:
    """A fully determined rule application recovered by ``resolve_rule``.

    Only the fields meaningful for ``kind`` are populated: ``analysed`` is the
    principal (or shared, or weakened) formula, ``eigen`` the eigenvariable of
    AllR/ExL, and ``term`` the instantiating variable of AllL/ExR.
    """

    kind: str
    analysed: Formula | None = None
    eigen: VarId | None = None
    term: VarId | None = None


def resolve_rule(d: Derivation) -> RuleInstance | None:
    """Reconstruct the rule instance justifying the root node of ``d``.

    Only the root is inspected; premises are taken at face value.  Candidate
    principal formulas are scanned in canonical order, so the result is
    deterministic.  ``None`` means no rule instance fits.
    """
    seq = root(d)
    gamma, delta = seq.antecedent, seq.succedent

    if isinstance(d, Init):
        for f in gamma:
            if f in delta:
                return RuleInstance("Init", analysed=f)
        return None

    if isinstance(d, BotL):
        if BOT in gamma:
            return RuleInstance("BotL", analysed=BOT)
        return None

    if isinstance(d, TopR):
        if TOP in delta:
            return RuleInstance("TopR", analysed=TOP)
        return None

    if isinstance(d, AndL):
        sub = root(d.sub)
        for f in gamma:
            if isinstance(f, And) and sub == Sequent(gamma | fset(f.left, f.right), delta):
                return RuleInstance("AndL", analysed=f)
        return None

    if isinstance(d, AndR):
        left, right = root(d.left), root(d.right)
        for f in delta:
            if (
                isinstance(f, And)
                and left == Sequent(gamma, delta.add(f.left))
                and right == Sequent(gamma, delta.add(f.right))
            ):
                return RuleInstance("AndR", analysed=f)
        return None

    if isinstance(d, OrL):
        left, right = root(d.left), root(d.right)
        for f in gamma:
            if (
                isinstance(f, Or)
                and left == Sequent(gamma.add(f.left), delta)
                and right == Sequent(gamma.add(f.right), delta)
            ):
                return RuleInstance("OrL", analysed=f)
        return None

    if isinstance(d, OrR):
        sub = root(d.sub)
        for f in delta:
            if isinstance(f, Or) and sub == Sequent(gamma, delta | fset(f.left, f.right)):
                return RuleInstance("OrR", analysed=f)
        return None

    if isinstance(d, NotL):
        sub = root(d.sub)
        for f in gamma:
            if isinstance(f, Not) and sub == Sequent(gamma, delta.add(f.sub)):
                return RuleInstance("NotL", analysed=f)
        return None

    if isinstance(d, NotR):
        sub = root(d.sub)
        for f in delta:
            if isinstance(f, Not) and sub == Sequent(gamma.add(f.sub), delta):
                return RuleInstance("NotR", analysed=f)
        return None

    if isinstance(d, AllL):
        sub = root(d.sub)
        if sub.succedent != delta:
            return None
        for f in gamma:
            if not isinstance(f, FAll):
                continue
            for e in sub.antecedent:
                if gamma.add(e) != sub.antecedent:
                    continue
                t = match_inst(f, e)
                if t is not None:
                    return RuleInstance("AllL", analysed=f, term=t)
        return None

    if isinstance(d, ExR):
        sub = root(d.sub)
        if sub.antecedent != gamma:
            return None
        for f in delta:
            if not isinstance(f, FEx):
                continue
            for e in sub.succedent:
                if delta.add(e) != sub.succedent:
                    continue
                t = match_inst(f, e)
                if t is not None:
                    return RuleInstance("ExR", analysed=f, term=t)
        return None

    if isinstance(d, AllR):
        sub = root(d.sub)
        if sub.antecedent != gamma:
            return None
        forbidden = seq.free_vars()
        for f in delta:
            if not isinstance(f, FAll):
                continue
            for e in sub.succedent:
                if delta.add(e) != sub.succedent:
                    continue
                a = match_bind(f, e, forbidden)
                if a is not None:
                    return RuleInstance("AllR", analysed=f, eigen=a)
        return None

    if isinstance(d, ExL):
        sub = root(d.sub)
        if sub.succedent != delta:
            return None
        forbidden = seq.free_vars()
        for f in gamma:
            if not isinstance(f, FEx):
                continue
            for e in sub.antecedent:
                if gamma.add(e) != sub.antecedent:
                    continue
                a = match_bind(f, e, forbidden)
                if a is not None:
                    return RuleInstance("ExL", analysed=f, eigen=a)
        return None

    if isinstance(d, WL):
        sub = root(d.sub)
        if sub.succedent != delta:
            return None
        for f in gamma:
            if sub.antecedent.add(f) == gamma:
                return RuleInstance("WL", analysed=f)
        return None

    if isinstance(d, WR):
        sub = root(d.sub)
        if sub.antecedent != gamma:
            return None
        for f in delta:
            if sub.succedent.add(f) == delta:
                return RuleInstance("WR", analysed=f)
        return None

    raise TypeError(f"not a derivation: {d!r}")


def _resolved_preorder(d: Derivation) -> Iterator[tuple[str, Derivation, RuleInstance | None]]:
    """Yield ``(path, node, resolve_rule(node))`` for every node, in preorder.

    The root's path is ``ε``; the i-th premise of the node at path ``p`` has
    path ``i`` below the root and ``p.i`` below that.  An explicit stack keeps
    the walk free of CPython's recursion limit.
    """
    stack: list[tuple[str, Derivation]] = [("", d)]
    while stack:
        path, node = stack.pop()
        yield path or "ε", node, resolve_rule(node)
        prefix = f"{path}." if path else ""
        subs = premises(node)
        for i in range(len(subs) - 1, -1, -1):
            stack.append((f"{prefix}{i}", subs[i]))


def is_wellformed(d: Derivation) -> bool:
    """True when every node of the tree is justified by some rule instance."""
    return all(rule is not None for _, _, rule in _resolved_preorder(d))
