"""Sequents, derivation trees, and the wellformedness checker.

A sequent is a pair of formula sets, and a side is an index into it: ``G``
(Γ) or ``D`` (Δ).  A formula set is the tuple of its members in canonical
order and equals that tuple; membership still bisects the members by the
canonical key each one keeps.  A derivation is a tree in which every node
records the sequent it claims to derive and stores its premises once, as a
tuple.  A node has none, one or two premises; each of these three shapes is
declared once, its named premise fields are read-only views of that tuple,
and the 15 rule classes only name their rule.  The checker ``resolve_rule``
reconstructs, for a single node, the rule instance that justifies the node
from its premises.  Each of the 15 rules is stated once, as a row of the
table ``RULES`` that the checker, the interpolator and the parser read, and
that ``RULE_FOR`` is derived from; ``_adds`` reads what a premise adds.
One explicit-stack walk, ``_preorder``, yields the nodes of a tree in
preorder, each with where it sits, and resolves and writes nothing:
``is_wellformed`` resolves each node it yields and stops at the first failing
one, ``craigseq check`` resolves and labels each node from its parent's
label, and the interpolator runs each node's step as the walk yields it and
names a failing node's ``_path``.  Only the interpolator reads or writes a
node's ``_rule``, the rule instance it keeps on the node, so that a
derivation interpolated under several splits is resolved once;
``is_wellformed``, and through it ``verify`` and ``check``, resolve every node
afresh.
``repr`` and ``syntax.print_derivation`` share one bracket walk, ``_nested``,
and ``size`` and the generator share one node count, ``_outside``.
"""
from __future__ import annotations

import bisect
import operator
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
    _Node,
    _set,
    canonical_key,
    free_vars,
    match_bind,
    match_inst,
)


class FormulaSet(tuple[Formula, ...]):
    """Immutable formula set: the tuple of its members, sorted and
    deduplicated in canonical order.

    A set equals that tuple and can be indexed and sliced like it; only this
    module indexes a set.  A value is a member when it is a formula whose
    canonical key is a member's.  Each member keeps its key, computed before
    it enters, so membership, ``add`` and ``without`` bisect the members by
    that key, hash no formula, and test the member found for identity before
    they compare keys.  They read the key of the formula looked up from that
    formula too, and compute it only when it is not kept yet.  ``add`` is the
    one way a set grows: ``a | b`` adds the members of ``b`` to ``a`` one by
    one, so on equal keys the left operand's formula stays.
    """

    __slots__ = ()

    def __new__(cls, formulas: Iterable[Formula] = ()) -> "FormulaSet":
        by_key = {canonical_key(f): f for f in formulas}
        return tuple.__new__(cls, [by_key[k] for k in sorted(by_key)])

    def __repr__(self) -> str:
        return f"FormulaSet({list(self)!r})"

    # Membership, ``add`` and ``without`` each bisect in their own frame: a
    # shared helper would cost one more Python call per test.  bisect reads a
    # tuple subclass's items through CPython's generic sequence slot, which
    # makes no Python call but is slower than its plain-tuple path, so a
    # bisect of the copy ``self[:]`` costs less.  A key is never empty, so
    # ``or`` computes only a key not kept yet.

    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Formula):
            return False
        k = f._key or canonical_key(f)
        i = bisect.bisect_left(self[:], k, key=_KEY)
        return i < len(self) and (self[i] is f or self[i]._key == k)

    def add(self, f: Formula) -> "FormulaSet":
        k = f._key or canonical_key(f)
        i = bisect.bisect_left(self[:], k, key=_KEY)
        if i < len(self) and (self[i] is f or self[i]._key == k):
            return self
        return tuple.__new__(FormulaSet, self[:i] + (f,) + self[i:])

    def without(self, f: Formula) -> "FormulaSet":
        k = f._key or canonical_key(f)
        i = bisect.bisect_left(self[:], k, key=_KEY)
        if i < len(self) and (self[i] is f or self[i]._key == k):
            return tuple.__new__(FormulaSet, self[:i] + self[i + 1 :])
        return self

    def __or__(self, other: "FormulaSet") -> "FormulaSet":
        if not isinstance(other, FormulaSet):
            return NotImplemented
        return _plus(self, other)


#: The key a member keeps, which ``FormulaSet`` bisects by.
_KEY = operator.attrgetter("_key")


def fset(*formulas: Formula) -> FormulaSet:
    """Convenience constructor for small formula sets."""
    return FormulaSet(formulas)


EMPTY = FormulaSet()

#: The sides of a sequent, as indices into ``Sequent``: Γ, the antecedent, and Δ, the succedent.
G, D = 0, 1


class Sequent(NamedTuple):
    antecedent: FormulaSet
    succedent: FormulaSet

    def free_vars(self) -> set[VarId]:
        out: set[VarId] = set()
        for fs in self:
            for f in fs:
                # the cached tuple, without the copy ``free_vars`` hands out
                out.update(f._fv if f._fv is not None else free_vars(f))
        return out


#: ``Derivation._rule`` of a node that the interpolator has not resolved
#: yet; ``None`` is kept too, and means that no rule fits.
_UNRESOLVED = object()


class Derivation(_Node):
    """Base class of derivation tree nodes: ``tag`` names the rule claimed,
    ``seq`` the sequent it derives and ``premises`` its immediate
    subderivations, in order, as the one tuple the node stores.  The named
    premise fields ``sub``, ``left`` and ``right`` are read-only views of it.

    Two nodes are equal when they name the same rule, derive equal sequents
    and have equal premises.  ``==`` walks both trees with an explicit stack.
    The hash is computed the first time it is asked for, by an explicit-stack
    post-order walk that stops at nodes whose hash is already kept, and is
    kept on every node it reaches.  Neither is bounded by the recursion limit.

    ``_rule`` is the node's rule instance as the interpolator resolved it,
    ``None`` when no rule fits, and ``_UNRESOLVED`` until the interpolator
    meets the node.  Only ``interpolation`` reads or writes it.  A pickle or
    copy carries only a node's fields, so it is hashed and resolved afresh; a
    pickle or deep copy rebuilds each sequent and formula set below the node
    once, by its constructor, so a loaded set sorts its members afresh.
    """

    __slots__ = ()
    tag = "?"
    seq: Sequent
    premises: tuple[Derivation, ...]
    _hash: int | None = None
    _rule: RuleInstance | None | object = _UNRESOLVED

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
                    # no rule tag: a str hash would differ between processes
                    h = hash((node.seq, *(p._hash for p in node.premises)))
                    object.__setattr__(node, "_hash", h)
                elif node._hash is None:
                    todo.append((node, True))
                    todo += ((p, False) for p in node.premises)
        return self._hash  # type: ignore[return-value]

    def __repr__(self) -> str:
        """``Tag(seq=..., sub=...)``, each field named as in ``_fields``."""
        return _nested(
            self,
            lambda node: f"{type(node).__qualname__}(seq={node.seq!r}",
            lambda node, i: f", {node._fields[i + 1]}=",
        )


class _NoPremise(Derivation):
    _fields = __match_args__ = ("seq",)

    premises = ()

    def __init__(self, seq: Sequent) -> None:
        _set(self, "seq", seq)


class _OnePremise(Derivation):
    _fields = __match_args__ = ("seq", "sub")
    sub = property(lambda node: node.premises[0])

    def __init__(self, seq: Sequent, sub: Derivation) -> None:
        _set(self, "seq", seq)
        _set(self, "premises", (sub,))


class _TwoPremises(Derivation):
    _fields = __match_args__ = ("seq", "left", "right")
    left = property(lambda node: node.premises[0])
    right = property(lambda node: node.premises[1])

    def __init__(self, seq: Sequent, left: Derivation, right: Derivation) -> None:
        _set(self, "seq", seq)
        _set(self, "premises", (left, right))


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
    return _outside(d, None)


def _outside(d: Derivation, sub: Derivation | None) -> int:
    """Number of nodes of ``d`` outside its subtree ``sub``; ``None``: all of them."""
    count = 0
    stack = [d]
    while stack:
        node = stack.pop()
        if node is not sub:
            count += 1
            stack += node.premises
    return count


def _nested(d: Derivation, head: Callable[[Derivation], str], sep: Callable[[Derivation, int], str]) -> str:
    """The bracketed text of ``d``: for each node ``head(node)``, then each
    premise ``i`` after ``sep(node, i)``, then ``)``.  One explicit-stack
    walk, so no tree is too deep for it."""
    out: list[str] = []
    todo: list[tuple[str, Derivation | None]] = [("", d)]  # text to write, then the node it opens
    while todo:
        text, node = todo.pop()
        out.append(text)
        if node is not None:
            out.append(head(node))
            todo.append((")", None))
            subs = node.premises
            todo += [(sep(node, i), subs[i]) for i in range(len(subs) - 1, -1, -1)]
    return "".join(out)


class RuleInstance(NamedTuple):
    """A fully determined rule application recovered by ``resolve_rule``.

    Only the fields meaningful for ``kind`` are populated: ``analysed`` is the
    principal (or shared, or weakened) formula, ``eigen`` the eigenvariable of
    AllR/ExL, and ``term`` the instantiating variable of AllL/ExR.  ``adds``
    holds the formulas the premise adds beside the conclusion's, or one per
    premise for AndR/OrL.  The matchers build it with ``tuple.__new__`` and
    every field given, which skips the Python frame of the generated
    ``__new__``; what they build is still a ``RuleInstance``.
    """

    kind: str
    analysed: Formula | None = None
    eigen: VarId | None = None
    term: VarId | None = None
    adds: tuple[Formula, ...] = ()


class Rule(NamedTuple):
    """One row of the rule table ``RULES``.

    ``side`` is where the principal formula sits, ``head`` the connective
    that heads it (``None``: any formula), and ``target`` the side that the
    premise's new formulas go to (``None`` for the leaf rules).  A side is
    an index into ``Sequent``: ``G`` or ``D``.  ``match`` recovers the
    ``RuleInstance`` of a node.
    """

    cls: type[Derivation]
    arity: int
    side: int
    head: type[Formula] | None
    target: int | None
    match: Callable[["Rule", Derivation], RuleInstance | None]


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
    ``None`` when ``small`` is not a subset of ``big``.  Two sets that are one
    object give ``()`` at once; otherwise one merge of the members, which
    tests each pair for identity before it compares their keys."""
    if small is big:
        return ()
    n = len(small)
    if n > len(big):
        return None
    out: list[Formula] = []
    i = 0
    for g in big:
        if i < n:
            f = small[i]
            if f is g or f._key == g._key:
                i += 1
                continue
            if f._key < g._key:  # type: ignore[operator]
                return None
        out.append(g)
    return tuple(out) if i == n else None


def _adds(seq: Sequent, sub: Sequent, side: int) -> tuple[Formula, ...] | None:
    """The members of ``sub[side]`` that ``seq[side]`` lacks, in canonical
    order, or ``None`` unless ``sub`` keeps all of ``seq[side]`` and the same
    other side.  The other sides are compared as one object first."""
    other, same = seq[1 - side], sub[1 - side]
    if same is not other and same != other:
        return None
    return _extra(seq[side], sub[side])


def _match_axiom(row: Rule, d: Derivation) -> RuleInstance | None:
    """Init, BotL, TopR: a formula of the principal side that is the rule's
    constant, or for Init one that also sits on the other side."""
    seq = d.seq
    other = seq[1 - row.side]
    for f in seq[row.side]:
        if f._tag == row.head._tag if row.head else f in other:
            return tuple.__new__(RuleInstance, (row.cls.tag, f, None, None, ()))
    return None


def _match_connective(row: Rule, d: Derivation) -> RuleInstance | None:
    """AndL, OrR, NotL, NotR: the premise adds every component of the
    principal formula; AndR, OrL: premise i adds component i."""
    seq, target = d.seq, row.target
    grown: list[tuple[FormulaSet, tuple[Formula, ...]]] = []  # per premise: its target side and what that adds
    for sub in d.premises:
        extra = _adds(seq, sub.seq, target)  # type: ignore[arg-type]
        if extra is None:
            return None
        grown.append((sub.seq[target], extra))  # type: ignore[index]
    for f in seq[row.side]:
        if f._tag == row.head._tag:  # type: ignore[union-attr]
            parts = (f.sub,) if f._tag == Not._tag else (f.left, f.right)  # type: ignore[attr-defined]
            if row.arity == 1:
                fits = _grows_by(*grown[0], parts)
            else:
                fits = _grows_by(*grown[0], parts[:1]) and _grows_by(*grown[1], parts[1:])
            if fits:
                return tuple.__new__(RuleInstance, (row.cls.tag, f, None, None, parts))
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
    extra = _adds(seq, sub, row.side)
    if extra is None or len(extra) > 1:
        return
    # With nothing added, any formula of the premise's side can be the one.
    added = extra or sub[row.side]
    for f in seq[row.side]:
        if f._tag == row.head._tag:  # type: ignore[union-attr]
            for e in added:
                yield f, e


def _match_term(row: Rule, d: Derivation) -> RuleInstance | None:
    """AllL, ExR: the added formula instantiates the principal one at a term."""
    for f, e in _instances(row, d.seq, d.premises[0].seq):
        t = match_inst(f, e)
        if t is not None:
            return tuple.__new__(RuleInstance, (row.cls.tag, f, None, t, (e,)))
    return None


def _match_eigen(row: Rule, d: Derivation) -> RuleInstance | None:
    """AllR, ExL: the added formula opens the principal one at a variable free
    nowhere in the conclusion."""
    forbidden: set[VarId] | None = None
    for f, e in _instances(row, d.seq, d.premises[0].seq):
        if forbidden is None:
            forbidden = d.seq.free_vars()
        a = match_bind(f, e, forbidden)
        if a is not None:
            return tuple.__new__(RuleInstance, (row.cls.tag, f, a, None, (e,)))
    return None


def _match_weakening(row: Rule, d: Derivation) -> RuleInstance | None:
    """WL, WR: the conclusion adds one formula to the premise's side."""
    extra = _adds(d.premises[0].seq, d.seq, row.side)
    if extra is None or len(extra) > 1:
        return None
    # With nothing added, the weakened formula is one the premise already has.
    added = extra or d.seq[row.side]
    return tuple.__new__(RuleInstance, (row.cls.tag, added[0], None, None, ())) if added else None


#: The 15 rules of the calculus, keyed by tag.
RULES: dict[str, Rule] = {
    row.cls.tag: row
    for row in (
        Rule(Init, 0, G, None, None, _match_axiom),
        Rule(BotL, 0, G, Bot, None, _match_axiom),
        Rule(TopR, 0, D, Top, None, _match_axiom),
        Rule(AndL, 1, G, And, G, _match_connective),
        Rule(OrR, 1, D, Or, D, _match_connective),
        Rule(NotL, 1, G, Not, D, _match_connective),
        Rule(NotR, 1, D, Not, G, _match_connective),
        Rule(AndR, 2, D, And, D, _match_connective),
        Rule(OrL, 2, G, Or, G, _match_connective),
        Rule(AllL, 1, G, FAll, G, _match_term),
        Rule(ExR, 1, D, FEx, D, _match_term),
        Rule(AllR, 1, D, FAll, D, _match_eigen),
        Rule(ExL, 1, G, FEx, G, _match_eigen),
        Rule(WL, 1, G, None, G, _match_weakening),
        Rule(WR, 1, D, None, D, _match_weakening),
    )
}


#: The rule that introduces a formula headed by ``head`` on ``side`` (``G`` or
#: ``D``), keyed by ``(head, side)``; ``(None, side)`` is the weakening of
#: that side.  Init introduces no one formula, so it has no key.
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


def _preorder(d: Derivation) -> Iterator[tuple[Derivation, tuple | None]]:
    """Yield ``(node, where)`` for every node, in preorder on an explicit
    stack: ``where`` is ``None`` at the root and ``(where, i)`` at the i-th
    premise of the node at ``where``, one tuple and no text."""
    stack: list[tuple[Derivation, tuple | None]] = [(d, None)]
    while stack:
        node, where = stack.pop()
        yield node, where
        subs = node.premises
        i = len(subs)
        while i:  # the last premise first, so the first comes off first
            i -= 1
            stack.append((subs[i], (where, i)))


def _path(where: tuple | None) -> str:
    """The path of the node at ``where``: ``ε`` at the root, else the premise
    indices from the root down, joined by ``.`` as in ``0.1``."""
    steps: list[str] = []
    while where is not None:
        where, i = where
        steps.append(str(i))
    return ".".join(reversed(steps)) or "ε"


def is_wellformed(d: Derivation) -> bool:
    """True when every node that ``_preorder`` yields has a rule instance."""
    for node, _where in _preorder(d):
        if resolve_rule(node) is None:
            return False
    return True
