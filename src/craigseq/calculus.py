"""Sequents, derivation trees, and the wellformedness checker.

A sequent is a pair of canonically ordered formula sets.  A derivation is a
tree in which every node records the sequent it claims to derive.  A node has
none, one or two premises, each of these three shapes is declared once, and
the 15 rule classes only name their rule.  The checker ``resolve_rule``
reconstructs, for a single node, the rule instance that justifies the node
from its premises.  Each of the 15 rules is stated once, as a row of the
table ``RULES`` that the checker, the interpolator and the parser read, and
that ``RULE_FOR`` is derived from.
``is_wellformed`` resolves the nodes of a tree in one explicit-stack pass
and stops at the first one that fails; ``_resolved_preorder`` also names each
node's path, for ``craigseq check``; the interpolator resolves each node as
its own walk reaches it.
"""
from __future__ import annotations

import bisect
from dataclasses import FrozenInstanceError, dataclass, fields
from typing import Callable, Iterable, Iterator, NamedTuple

from .formulas import (
    And,
    Bot,
    FAll,
    FEx,
    Formula,
    Not,
    Or,
    Top,
    VarId,
    canonical_key,
    free_vars,
    match_bind,
    match_inst,
)


class FormulaSet:
    """Immutable formula set kept sorted and deduplicated in canonical order.

    A formula is a member when its canonical key is among the set's sorted
    keys; a value that is not a formula is never a member.  Membership,
    ``add`` and ``without`` bisect the key tuples, so none of them hashes a
    formula, and test the key found for identity before equality: a formula
    keeps its key, so the same formula gives the same key object.  ``add``
    is the one way a set grows: ``a | b`` adds the members of ``b`` to ``a``
    one by one, so on equal keys the left operand's formula stays.
    """

    __slots__ = ("_keys", "_items")

    _keys: tuple[tuple[int, ...], ...]
    _items: tuple[Formula, ...]

    def __init__(self, formulas: Iterable[Formula] = ()):
        by_key = {canonical_key(f): f for f in formulas}
        pairs = sorted(by_key.items())
        self._keys = tuple(k for k, _ in pairs)
        self._items = tuple(f for _, f in pairs)

    @staticmethod
    def _build(keys: tuple[tuple[int, ...], ...], items: tuple[Formula, ...]) -> "FormulaSet":
        fs = FormulaSet.__new__(FormulaSet)
        fs._keys = keys
        fs._items = items
        return fs

    def _find(self, k: tuple[int, ...]) -> tuple[int, bool]:
        """Where ``k`` sits or would be inserted in the keys, and whether it is there."""
        keys = self._keys
        i = bisect.bisect_left(keys, k)
        return i, i < len(keys) and (keys[i] is k or keys[i] == k)

    def __contains__(self, f: object) -> bool:
        return isinstance(f, Formula) and self._find(canonical_key(f))[1]

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
        k = canonical_key(f)
        i, found = self._find(k)
        if found:
            return self
        return FormulaSet._build(
            self._keys[:i] + (k,) + self._keys[i:],
            self._items[:i] + (f,) + self._items[i:],
        )

    def without(self, f: Formula) -> "FormulaSet":
        i, found = self._find(canonical_key(f))
        if not found:
            return self
        return FormulaSet._build(self._keys[:i] + self._keys[i + 1 :], self._items[:i] + self._items[i + 1 :])

    def __or__(self, other: "FormulaSet") -> "FormulaSet":
        if not isinstance(other, FormulaSet):
            return NotImplemented
        return _plus(self, other._items)


def fset(*formulas: Formula) -> FormulaSet:
    """Convenience constructor for small formula sets."""
    return FormulaSet(formulas)


EMPTY = FormulaSet()


class Sequent(NamedTuple):
    antecedent: FormulaSet
    succedent: FormulaSet

    def free_vars(self) -> set[VarId]:
        out: set[VarId] = set()
        for fs in self:
            for f in fs._items:
                # the cached tuple, without the copy ``free_vars`` hands out
                out.update(f._fv if f._fv is not None else free_vars(f))
        return out


class Derivation:
    """Base class of derivation tree nodes: ``tag`` names the rule claimed,
    ``seq`` the sequent it derives and ``premises`` its immediate
    subderivations, in order.

    Two nodes are equal when they name the same rule, derive equal sequents
    and have equal premises.  ``==`` walks both trees with an explicit stack.
    The hash is computed the first time it is asked for, by an explicit-stack
    post-order walk that stops at nodes whose hash is already kept, and is
    kept on every node it reaches.  Neither is bounded by the recursion limit.
    """

    __slots__ = ()
    tag = "?"
    seq: Sequent
    premises: tuple[Derivation, ...]
    _hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a.seq != b.seq:
                return False
            todo += zip(a.premises, b.premises)
        return True

    def __hash__(self) -> int:
        if self._hash is None:
            todo: list[tuple[Derivation, bool]] = [(self, False)]
            while todo:
                node, ready = todo.pop()
                if ready:
                    # no rule tag: a str hash would differ between processes, and pickles carry _hash
                    h = hash((node.seq, *(p._hash for p in node.premises)))
                    object.__setattr__(node, "_hash", h)
                elif node._hash is None:
                    todo.append((node, True))
                    todo += ((p, False) for p in node.premises)
        return self._hash  # type: ignore[return-value]

    def __repr__(self) -> str:
        """``Tag(seq=..., sub=...)`` as the dataclass repr writes it, built
        with an explicit stack."""
        out: list[str] = []
        todo: list[str | Derivation] = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            out.append(f"{type(node).__qualname__}(seq={node.seq!r}")
            todo.append(")")
            names = [f.name for f in fields(node)[1:]]
            for name, p in zip(names[::-1], node.premises[::-1]):
                todo += (p, f", {name}=")
        return "".join(out)

    # The rule classes are not dataclasses themselves: their non-field names reach here.
    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


@dataclass(frozen=True, eq=False, repr=False)
class _NoPremise(Derivation):
    seq: Sequent

    premises = ()


@dataclass(frozen=True, eq=False, repr=False)
class _OnePremise(Derivation):
    seq: Sequent
    sub: Derivation

    @property
    def premises(self) -> tuple[Derivation, ...]:
        return (self.sub,)


@dataclass(frozen=True, eq=False, repr=False)
class _TwoPremises(Derivation):
    seq: Sequent
    left: Derivation
    right: Derivation

    @property
    def premises(self) -> tuple[Derivation, ...]:
        return (self.left, self.right)


class Init(_NoPremise):
    tag = "Init"


class BotL(_NoPremise):
    tag = "BotL"


class TopR(_NoPremise):
    tag = "TopR"


class AndL(_OnePremise):
    tag = "AndL"


class AndR(_TwoPremises):
    tag = "AndR"


class OrL(_TwoPremises):
    tag = "OrL"


class OrR(_OnePremise):
    tag = "OrR"


class NotL(_OnePremise):
    tag = "NotL"


class NotR(_OnePremise):
    tag = "NotR"


class AllL(_OnePremise):
    tag = "AllL"


class AllR(_OnePremise):
    tag = "AllR"


class ExL(_OnePremise):
    tag = "ExL"


class ExR(_OnePremise):
    tag = "ExR"


class WL(_OnePremise):
    tag = "WL"


class WR(_OnePremise):
    tag = "WR"


def root(d: Derivation) -> Sequent:
    """The sequent claimed at the root node."""
    return d.seq


def premises(d: Derivation) -> tuple[Derivation, ...]:
    """Immediate subderivations, in order."""
    return d.premises


def size(d: Derivation) -> int:
    """Number of nodes in the tree."""
    total = 0
    stack = [d]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.premises)
    return total


class RuleInstance(NamedTuple):
    """A fully determined rule application recovered by ``resolve_rule``.

    Only the fields meaningful for ``kind`` are populated: ``analysed`` is the
    principal (or shared, or weakened) formula, ``eigen`` the eigenvariable of
    AllR/ExL, and ``term`` the instantiating variable of AllL/ExR.  ``adds``
    holds the formulas the premise adds beside the conclusion's, or one per
    premise for AndR/OrL.
    """

    kind: str
    analysed: Formula | None = None
    eigen: VarId | None = None
    term: VarId | None = None
    adds: tuple[Formula, ...] = ()


class Rule(NamedTuple):
    """One row of the rule table ``RULES``.

    ``side`` ("g" antecedent, "d" succedent) is where the principal formula
    sits, ``head`` the connective that heads it (``None``: any formula), and
    ``target`` the side that the premise's new formulas go to (empty for the
    leaf rules).  ``match`` recovers the ``RuleInstance`` of a node.
    """

    cls: type[Derivation]
    arity: int
    side: str
    head: type[Formula] | None
    target: str
    match: Callable[["Rule", Derivation], RuleInstance | None]


def _sides(seq: Sequent, side: str) -> tuple[FormulaSet, FormulaSet]:
    """The formulas on ``side`` of ``seq``, then those on the other side."""
    return seq if side == "g" else (seq.succedent, seq.antecedent)


def _sequent(side: str, this: FormulaSet, other: FormulaSet) -> Sequent:
    """The sequent with ``this`` on ``side`` and ``other`` opposite: ``_sides`` inverted."""
    return Sequent(this, other) if side == "g" else Sequent(other, this)


def _plus(fs: FormulaSet, formulas: tuple[Formula, ...]) -> FormulaSet:
    """``fs`` with ``formulas`` added, one ``add`` each: on equal keys the
    formula already there stays."""
    # A rule or an interpolation step adds at most three, so this copies less
    # than building a set of them and merging.
    for f in formulas:
        fs = fs.add(f)
    return fs


def _extra(small: FormulaSet, big: FormulaSet) -> tuple[Formula, ...] | None:
    """The members of ``big`` missing from ``small``, in canonical order, or
    ``None`` when ``small`` is not a subset of ``big``: one merge of the keys,
    which tests each pair of keys for identity before equality."""
    a, b = small._keys, big._keys
    n = len(a)
    if n > len(b):
        return None
    if a == b:
        return ()
    out: list[Formula] = []
    i = 0
    for j, k in enumerate(b):
        if i < n:
            if a[i] is k or a[i] == k:
                i += 1
                continue
            if a[i] < k:
                return None
        out.append(big._items[j])
    return tuple(out) if i == n else None


def _match_axiom(row: Rule, d: Derivation) -> RuleInstance | None:
    """Init, BotL, TopR: a formula of the principal side that is the rule's
    constant, or for Init one that also sits on the other side."""
    principal, other = _sides(d.seq, row.side)
    for f in principal._items:
        if f._tag == row.head._tag if row.head else f in other:
            return RuleInstance(row.cls.tag, f)
    return None


def _match_connective(row: Rule, d: Derivation) -> RuleInstance | None:
    """AndL, OrR, NotL, NotR: the premise adds every component of the
    principal formula; AndR, OrL: premise i adds component i."""
    seq = d.seq
    kept, other = _sides(seq, row.target)
    grown: list[tuple[FormulaSet, tuple[Formula, ...]]] = []  # per premise: its side and what that adds to kept
    for sub in d.premises:
        side, same = _sides(sub.seq, row.target)
        extra = _extra(kept, side) if same._keys == other._keys else None
        if extra is None:
            return None
        grown.append((side, extra))
    for f in _sides(seq, row.side)[0]._items:
        if f._tag == row.head._tag:  # type: ignore[union-attr]
            parts = (f.sub,) if f._tag == Not._tag else (f.left, f.right)  # type: ignore[attr-defined]
            if row.arity == 1:
                fits = _grows_by(*grown[0], parts)
            else:
                fits = _grows_by(*grown[0], parts[:1]) and _grows_by(*grown[1], parts[1:])
            if fits:
                return RuleInstance(row.cls.tag, f, adds=parts)
    return None


def _grows_by(side: FormulaSet, extra: tuple[Formula, ...], parts: tuple[Formula, ...]) -> bool:
    """Whether ``side``, which adds ``extra`` to a set ``kept``, is
    ``kept | parts``: exactly when ``parts`` holds ``extra`` and ``side``
    holds ``parts``.  The first test compares at most two formulas, so it
    runs before the bisecting one."""
    for e in extra:
        if e not in parts:
            return False
    for c in parts:
        if c not in side:
            return False
    return True


def _instances(row: Rule, seq: Sequent, sub: Sequent) -> Iterator[tuple[Formula, Formula]]:
    """AllL, ExR, AllR, ExL: pairs of a principal candidate ``f`` and the one
    formula ``e`` the premise adds beside it; the other side is unchanged."""
    principal, other = _sides(seq, row.side)
    extended, same = _sides(sub, row.side)
    extra = _extra(principal, extended) if same._keys == other._keys else None
    if extra is None or len(extra) > 1:
        return
    # With nothing added, any formula of the premise's side can be the one.
    added = extra or extended._items
    for f in principal._items:
        if f._tag == row.head._tag:  # type: ignore[union-attr]
            for e in added:
                yield f, e


def _match_term(row: Rule, d: Derivation) -> RuleInstance | None:
    """AllL, ExR: the added formula instantiates the principal one at a term."""
    for f, e in _instances(row, d.seq, d.sub.seq):  # type: ignore[attr-defined]
        t = match_inst(f, e)
        if t is not None:
            return RuleInstance(row.cls.tag, f, term=t, adds=(e,))
    return None


def _match_eigen(row: Rule, d: Derivation) -> RuleInstance | None:
    """AllR, ExL: the added formula opens the principal one at a variable free
    nowhere in the conclusion."""
    forbidden: set[VarId] | None = None
    for f, e in _instances(row, d.seq, d.sub.seq):  # type: ignore[attr-defined]
        if forbidden is None:
            forbidden = d.seq.free_vars()
        a = match_bind(f, e, forbidden)
        if a is not None:
            return RuleInstance(row.cls.tag, f, eigen=a, adds=(e,))
    return None


def _match_weakening(row: Rule, d: Derivation) -> RuleInstance | None:
    """WL, WR: the conclusion adds one formula to the premise's side."""
    principal, other = _sides(d.seq, row.side)
    kept, same = _sides(d.sub.seq, row.side)  # type: ignore[attr-defined]
    extra = _extra(kept, principal) if same._keys == other._keys else None
    if extra is None or len(extra) > 1:
        return None
    # With nothing added, the weakened formula is one the premise already has.
    added = extra or principal._items
    return RuleInstance(row.cls.tag, added[0]) if added else None


#: The 15 rules of the calculus, keyed by tag.
RULES: dict[str, Rule] = {
    row.cls.tag: row
    for row in (
        Rule(Init, 0, "g", None, "", _match_axiom),
        Rule(BotL, 0, "g", Bot, "", _match_axiom),
        Rule(TopR, 0, "d", Top, "", _match_axiom),
        Rule(AndL, 1, "g", And, "g", _match_connective),
        Rule(OrR, 1, "d", Or, "d", _match_connective),
        Rule(NotL, 1, "g", Not, "d", _match_connective),
        Rule(NotR, 1, "d", Not, "g", _match_connective),
        Rule(AndR, 2, "d", And, "d", _match_connective),
        Rule(OrL, 2, "g", Or, "g", _match_connective),
        Rule(AllL, 1, "g", FAll, "g", _match_term),
        Rule(ExR, 1, "d", FEx, "d", _match_term),
        Rule(AllR, 1, "d", FAll, "d", _match_eigen),
        Rule(ExL, 1, "g", FEx, "g", _match_eigen),
        Rule(WL, 1, "g", None, "g", _match_weakening),
        Rule(WR, 1, "d", None, "d", _match_weakening),
    )
}


#: The rule that introduces a formula headed by ``head`` on ``side``, keyed
#: by ``(head, side)``; ``(None, side)`` is the weakening of that side.  Init
#: introduces no one formula, so it has no key.
RULE_FOR = {(row.head, row.side): row.cls for row in RULES.values() if row.cls is not Init}


def resolve_rule(d: Derivation) -> RuleInstance | None:
    """Reconstruct the rule instance justifying the root node of ``d``.

    Only the root is inspected; premises are taken at face value.  Candidate
    principal formulas are scanned in canonical order, so the result is
    deterministic.  ``None`` means no rule instance fits.
    """
    row = RULES.get(getattr(d, "tag", ""))
    if row is None:
        raise TypeError(f"not a derivation: {d!r}")
    return row.match(row, d)


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
        subs = node.premises
        for i in range(len(subs) - 1, -1, -1):
            stack.append((f"{prefix}{i}", subs[i]))


def is_wellformed(d: Derivation) -> bool:
    """True when every node of the tree is justified by some rule instance.

    Resolves the nodes in preorder with an explicit stack and stops at the
    first one that no rule instance justifies.
    """
    stack = [d]
    while stack:
        node = stack.pop()
        if resolve_rule(node) is None:
            return False
        stack += node.premises[::-1]
    return True
