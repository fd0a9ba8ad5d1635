"""Craig interpolation over wellformed derivations, with witness derivations.

``interpolate_strong`` takes a wellformed derivation of Γ ⊢ Δ together with a
split of its root into (Γ1, Γ2, Δ1, Δ2) and produces an interpolant C plus two
wellformed derivations witnessing Γ1 ⊢ Δ1, C and C, Γ2 ⊢ Δ2.  The interpolant
uses predicates positively (negatively) only where allowed by the polarities of
both halves of the split; ``verify`` checks all of that syntactically, without
trusting the construction.

The construction is an induction on the derivation, which ``_interpolate``
runs over the one preorder walk, ``calculus._preorder``: it takes each node
with its rule instance and dispatches on its tag through ``_CASES`` to one of
six steps, which read the side of the principal formula and the side of the
premise's new formulas from the rule's row of ``calculus.RULES``, and the new
formulas from the rule instance.  A side is an index into ``Sequent`` (``G``
antecedent, ``D`` succedent): part k of side s is field ``2 * s + k`` of a
``SplitSequent`` (Γ1, Γ2, Δ1, Δ2), and C sits on side ``1 - k`` of part k's
witness.  The steps cover the mirror pairs once each: ``_init``; ``_axiom``
(BotL, TopR); ``_unary`` (AndL, OrR, NotL, NotR, AllL, ExR); ``_weaken`` (WL,
WR); ``_branching`` (AndR, OrL); ``_eigen`` (AllR, ExL).  As the paper's
cases, each step is a function of its node, its split and its premises'
results: a generator that yields its case, then each premise's split, is
sent back that premise's result, and returns its own.  ``_BRANCHES`` builds
each rule's case names from its tag and the side of its row of ``RULES``,
such as ``andl-g1`` or ``wr-d2-only``; a step yields its case, mostly the
part that owns the principal formula, as an index into them, and
``_interpolate`` alone counts it.

Each step is written once, with the owning part k (0: part 1, 1: part 2) as
its parameter: part 2's construction mirrors part 1's, with ⊥/⊤, ∨/∧, ∃/∀
and C's side (Δ1 or Γ2) swapped.  The rules a witness is built with come
from ``calculus.RULE_FOR``, derived from ``RULES``.

Each witness node's root is built from the root of the witness below it, so
the work per node follows what the rule changes.  The invariant: for a node
whose split is S, part k's witness has root ``_root(S, k, C)``, down to the
formula objects in each set.  A witness node whose part of C's side is the
same object in its split as in its premise's (the rule changed neither the
principal side nor the target side that C sits on, for instance ∃L or ∨L
for part 1 and ∀R or ∧R for part 2) takes C's side from its premise's root
as that same object; any other node adds to its premise's side only what
changed.  ``_on``, ``_extend``, ``_weaken`` and ``_result`` build their
records with ``tuple.__new__``, which skips the Python frame of a
``NamedTuple``'s generated ``__new__``; the records keep their classes.

A node's rule instance depends on the node alone, not on the split, so
``_interpolate`` keeps it on the input node it resolved, as
``Derivation._rule``: a derivation interpolated under several splits is
resolved once in all.  Nothing else reads or writes ``_rule``.  ``verify``
keeps and reads none: through ``is_wellformed`` it resolves every witness
node afresh, as ``craigseq check`` resolves every node it reports.
"""
from __future__ import annotations

from collections import Counter
from typing import Generator, NamedTuple

from .calculus import (
    EMPTY,
    RULE_FOR,
    RULES,
    Derivation,
    FormulaSet,
    Init,
    NotL,
    NotR,
    Rule,
    RuleInstance,
    Sequent,
    _UNRESOLVED,
    _path,
    _plus,
    _preorder,
    is_wellformed,
    resolve_rule,
    root,
)
from .formulas import BOT, REBUILD, TOP, And, Bot, Formula, Not, Or, Top, _Node, _set, bind, fold, polarity


class InterpolationError(Exception):
    """Base class for failures of the interpolation entry points."""


class NotWellFormedError(InterpolationError):
    """The input derivation has a node no rule instance justifies; the message names its path."""


class SplitMismatchError(InterpolationError):
    """The split does not recombine to the root sequent of the derivation."""


class UnreachableCaseError(InterpolationError):
    """Internal dispatch reached a case that valid inputs cannot produce."""


class SplitSequent(NamedTuple):
    """A sequent Γ1∪Γ2 ⊢ Δ1∪Δ2 with each side split into two parts.

    Parts may overlap; a formula listed in both parts of a side is treated as
    belonging to both.
    """

    gamma1: FormulaSet
    gamma2: FormulaSet
    delta1: FormulaSet
    delta2: FormulaSet

    def sequent(self) -> Sequent:
        return Sequent(self.gamma1 | self.gamma2, self.delta1 | self.delta2)


class InterpolationResult(NamedTuple):
    """A pickle or deep copy of a result flattens its three trees together,
    as a node's does, so the interpolant stays one object with the formulas
    of the witnesses it was built from; a shallow copy holds the same three."""

    interpolant: Formula
    left_witness: Derivation
    right_witness: Derivation

    __reduce__ = _Node.__reduce__
    __copy__ = _Node.__copy__


def _case_names(row: Rule) -> tuple[str, ...]:
    """``row``'s case names, from its tag and principal side, in the order its
    step indexes them: Init's by ``2 * i + j`` for the parts i of Γ and j of Δ
    that share its formula, WL/WR's as both parts, part 1 only, part 2 only,
    neither, and any other rule's by the part that owns the principal formula."""
    t, s = row.cls.tag.lower(), "gd"[row.side]
    if row.cls is Init:
        return tuple(f"{t}-g{i}d{j}" for i in "12" for j in "12")
    if row.head is None:
        return (f"{t}-both", f"{t}-{s}1-only", f"{t}-{s}2-only", f"{t}-impossible")
    return (f"{t}-{s}1", f"{t}-{s}2")


#: Each rule's case names, keyed by its tag.
_BRANCHES = {tag: _case_names(row) for tag, row in RULES.items()}

#: Names of all interpolation case branches, used by the coverage counters,
#: in the order of ``RULES``.
CASE_NAMES = tuple(name for names in _BRANCHES.values() for name in names)

_counters: Counter[str] = Counter()


def reset_case_counters() -> None:
    _counters.clear()


def case_counters() -> dict[str, int]:
    """Snapshot of how often each case branch has run since the last reset."""
    return {name: _counters[name] for name in CASE_NAMES}


def interpolate_strong(d: Derivation, split: SplitSequent) -> InterpolationResult:
    """Interpolate a wellformed derivation along a split of its root."""
    if split.sequent() != root(d):
        raise SplitMismatchError(
            "split does not recombine to the derivation root: "
            f"{split.sequent()!r} vs {root(d)!r}"
        )
    return _interpolate(d, split)


def _weak_split(seq: Sequent) -> SplitSequent:
    """The weak split of ``seq``: its whole antecedent left, its whole succedent right."""
    return SplitSequent(seq.antecedent, EMPTY, EMPTY, seq.succedent)


def interpolate(d: Derivation) -> InterpolationResult:
    """Interpolate with the weak split of the root."""
    return interpolate_strong(d, _weak_split(root(d)))


#: The run of a step: its case's index into ``_BRANCHES[tag]``, then each
#: premise's split; it is sent back each premise's result and returns its own.
_Step = Generator[int | SplitSequent, InterpolationResult | None, InterpolationResult]


def _interpolate(d: Derivation, split: SplitSequent) -> InterpolationResult:
    """Run the step of every node that ``_preorder`` yields, with the rule
    instance its ``_rule`` keeps or, when missing, resolved and kept there,
    and count its case.  The steps waiting on a premise's result sit on a
    list, so memory rather than the recursion limit bounds depth; they ask for
    their premises in that preorder, so the next node is the one awaited."""
    stack: list[_Step] = []
    for node, where in _preorder(d):
        if (rule := node._rule) is _UNRESOLVED:
            rule = resolve_rule(node)
            _set(node, "_rule", rule)
        if rule is None:
            raise NotWellFormedError(f'derivation is not wellformed at node path "{_path(where)}"')
        step = _CASES[node.tag](node, RULES[node.tag], rule, split)
        _counters[_BRANCHES[node.tag][next(step)]] += 1
        stack.append(step)
        res = None
        while stack:  # resume the top step until it yields its next premise's split
            try:
                split = stack[-1].send(res)
                break
            except StopIteration as done:
                stack.pop()
                res = done.value
    return res


def _owner(side: int, f: Formula, split: SplitSequent) -> int:
    """The part of ``side`` that holds ``f``: 0 for part 1, 1 for part 2.  A
    formula in both parts belongs to part 1."""
    return 0 if f in split[2 * side] else 1


def _extend(split: SplitSequent, i: int, formulas: tuple[Formula, ...]) -> SplitSequent:
    """``split`` with ``formulas`` added to its ``i``-th part."""
    parts = list(split)
    parts[i] = _plus(parts[i], formulas)
    return tuple.__new__(SplitSequent, parts)


#: Per owning part k (0: part 1, 1: part 2): the interpolant of a node that
#: part k closes alone, with the axiom that gives the other part's witness,
#: whose C sits on side k.
_ALONE = tuple((c, RULE_FOR[type(c), k]) for k, c in enumerate((BOT, TOP)))


def _on(split: SplitSequent, k: int, cs: FormulaSet) -> Sequent:
    """Part ``k``'s sequent with ``cs`` as C's side.  C's side of part ``k``
    is ``split[2 - k]`` (Δ1 or Γ2) in a split, ``seq[1 - k]`` in its sequent."""
    return tuple.__new__(Sequent, (split.gamma1, cs) if k == 0 else (cs, split.delta2))


def _root(split: SplitSequent, k: int, *cs: Formula) -> Sequent:
    """Part ``k``'s sequent with ``cs`` added on C's side: Δ1 for part 1, Γ2 for part 2."""
    return _on(split, k, _plus(split[2 - k], cs))


def _above(split: SplitSequent, k: int, premise: SplitSequent, w: Derivation, c: Formula) -> Sequent:
    """``_root(split, k, c)`` for a node over ``w``, part ``k``'s witness for
    ``premise``: where both splits hold C's side of part ``k`` as one object,
    the node takes the side of ``w``'s root, which adds ``c`` to it."""
    i = 2 - k
    return _on(split, k, w.seq[1 - k] if split[i] is premise[i] else split[i].add(c))


def _result(c: Formula, k: int, own: Derivation, other: Derivation) -> InterpolationResult:
    """The result whose part-``k`` witness is ``own`` and whose other witness is ``other``."""
    return tuple.__new__(InterpolationResult, (c, own, other) if k == 0 else (c, other, own))


def _wrap(
    rule: type, split: SplitSequent, premise: SplitSequent, res: InterpolationResult, left: bool, right: bool
) -> InterpolationResult:
    """Re-apply ``rule`` below the left and/or right witness of ``res``, the result for ``premise``."""
    c, lw, rw = res
    return InterpolationResult(
        c,
        rule(_above(split, 0, premise, lw, c), lw) if left else lw,
        rule(_above(split, 1, premise, rw, c), rw) if right else rw,
    )


def _alone(split: SplitSequent, k: int, rule: type) -> InterpolationResult:
    """Part ``k`` closes by ``rule`` alone: C is ⊥ for part 1 and ⊤ for part 2,
    and the other part's witness is that unit's axiom."""
    c, axiom = _ALONE[k]
    return _result(c, k, rule(_root(split, k, c)), axiom(_root(split, 1 - k, c)))


def _introduce(split: SplitSequent, k: int, c: Formula, *witnesses: Derivation) -> Derivation:
    """Part ``k``'s witness that introduces ``c`` from ``witnesses``, each with
    a component of ``c`` (or the body of ``c`` opened) on C's side.  Each
    witness gets ``c`` weakened in, then the rule for ``c``'s head on that side
    joins them.  Every caller's witnesses have splits that agree with
    ``split`` on part ``k``, so a weakening's C's side is its witness's plus ``c``."""
    weaken = RULE_FOR[None, 1 - k]
    subs = (weaken(_on(split, k, w.seq[1 - k].add(c)), w) for w in witnesses)
    return RULE_FOR[type(c), 1 - k](_root(split, k, c), *subs)


def _init(d: Init, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """Init: case ``2 * i + j`` for the first parts i of Γ and j of Δ that share a formula."""
    g1, g2, d1, d2 = split
    for a in g1:
        if a in d1:
            yield 0
            return _alone(split, 0, Init)
    for a in g1:
        if a in d2:
            yield 1
            return InterpolationResult(
                a,
                Init(Sequent(g1, d1.add(a))),
                Init(Sequent(g2.add(a), d2)),
            )
    for a in g2:
        if a in d1:
            yield 2
            c = Not(a)
            d1c, g2c = d1.add(c), g2.add(c)
            return InterpolationResult(
                c,
                NotR(Sequent(g1, d1c), Init(Sequent(g1.add(a), d1c))),
                NotL(Sequent(g2c, d2), Init(Sequent(g2c, d2.add(a)))),
            )
    for a in g2:
        if a in d2:
            yield 3
            return _alone(split, 1, Init)
    raise UnreachableCaseError("Init node with no shared formula in any part pair")


def _axiom(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """BotL, TopR: the part that owns the constant closes alone."""
    if all(rule.analysed not in split[2 * row.side + k] for k in (0, 1)):
        raise UnreachableCaseError(f"{d.tag} node with its constant in neither part")
    k = _owner(row.side, rule.analysed, split)
    yield k
    return _alone(split, k, row.cls)


def _unary(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """AndL, OrR, NotL, NotR, AllL, ExR: the premise's new formulas join the
    part that owns the principal formula, and that part's witness re-applies
    the rule."""
    k = _owner(row.side, rule.analysed, split)
    yield k
    premise = _extend(split, 2 * row.target + k, rule.adds)
    res = yield premise
    return _wrap(row.cls, split, premise, res, k == 0, k == 1)


def _weaken(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """WL, WR: each part keeps only the premise's formulas, and every part that
    holds the weakened formula re-weakens its witness."""
    f = rule.analysed
    i, j = 2 * row.side, 2 * row.side + 1
    # ``without`` hands back the part itself when it lacks f
    kept1, kept2 = split[i].without(f), split[j].without(f)
    in1, in2 = kept1 is not split[i], kept2 is not split[j]
    yield 2 * (not in1) + (not in2)  # both, part 1 only, part 2 only, neither
    if not (in1 or in2):
        raise UnreachableCaseError(f"weakened formula missing from both {Sequent._fields[row.side]} parts")
    # Each part lies within the conclusion's side, the premise's side plus f,
    # so f is new exactly when that side is the longer.
    premise = split
    if len(d.premises[0].seq[row.side]) < len(d.seq[row.side]):
        parts = list(split)
        parts[i], parts[j] = kept1, kept2
        premise = tuple.__new__(SplitSequent, parts)
    res = yield premise
    return _wrap(row.cls, split, premise, res, in1, in2)


def _branching(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """AndR, OrL: each premise adds its component to the owning part k.

    Part 1 joins the premise interpolants into C = Cl ∨ Cr, part 2 into
    C = Cl ∧ Cr.  Part k's witness weakens C and the sibling's interpolant
    into each premise witness and introduces C, then re-applies the rule; the
    other part's witness introduces C from both premise witnesses.
    """
    k = _owner(row.side, rule.analysed, split)
    yield k
    left, right = (_extend(split, 2 * row.target + k, (a,)) for a in rule.adds)
    resl = yield left
    resr = yield right
    cl, cr = resl.interpolant, resr.interpolant
    c = (Or, And)[k](cl, cr)
    weaken, join = RULE_FOR[None, 1 - k], RULE_FOR[type(c), 1 - k]

    def owned(premise: SplitSequent, w: Derivation, cj: Formula) -> Derivation:
        # w's root holds the premise's interpolant on C's side.  Part 1
        # weakens in C first, part 2 the sibling's interpolant cj first.
        first, second = (c, cj) if k == 0 else (cj, c)
        once = w.seq[1 - k].add(first)
        w = weaken(_on(premise, k, once), w)
        w = weaken(_on(premise, k, once.add(second)), w)
        return join(_root(premise, k, c), w)

    ownl = owned(left, resl[1 + k], cr)
    own = row.cls(_above(split, k, left, ownl, c), ownl, owned(right, resr[1 + k], cl))
    return _result(c, k, own, _introduce(split, 1 - k, c, resl[2 - k], resr[2 - k]))


def _eigen(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """AllR, ExL: the premise adds the instance at the eigenvariable a to the
    owning part k.  Part 1 closes the premise interpolant C' to ∃a.C', part 2
    to ∀a.C'; each witness introduces C, and part k's then re-applies the rule."""
    k = _owner(row.side, rule.analysed, split)
    yield k
    premise = _extend(split, 2 * row.target + k, rule.adds)
    res = yield premise
    cp = res.interpolant
    c = bind(("ex", "all")[k], rule.eigen, cp)
    intro = _introduce(premise, k, c, res[1 + k])
    return _result(c, k, row.cls(_above(split, k, premise, intro, c), intro), _introduce(split, 1 - k, c, res[2 - k]))


_CASES = {
    "Init": _init,
    **dict.fromkeys(("BotL", "TopR"), _axiom),
    **dict.fromkeys(("AndL", "OrR", "NotL", "NotR", "AllL", "ExR"), _unary),
    **dict.fromkeys(("WL", "WR"), _weaken),
    **dict.fromkeys(("AndR", "OrL"), _branching),
    **dict.fromkeys(("AllR", "ExL"), _eigen),
}


class VerifyReport(NamedTuple):
    conjuncts: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.conjuncts.values())


def _allowed(ante: FormulaSet, succ: FormulaSet) -> tuple[frozenset[int], frozenset[int]]:
    """The predicates an interpolant may use positively and negatively when it
    sits in the succedent of ``ante ⊢ succ``: those of the same polarity in
    ``ante``, of the opposite one in ``succ``."""
    pos: frozenset[int] = frozenset()
    neg: frozenset[int] = frozenset()
    for f in ante:
        p = polarity(f)
        pos, neg = pos | p.positives, neg | p.negatives
    for f in succ:
        p = polarity(f)
        pos, neg = pos | p.negatives, neg | p.positives
    return pos, neg


def verify(split: SplitSequent, result: InterpolationResult) -> VerifyReport:
    """Check an interpolation result syntactically, trusting nothing.

    The report has one conjunct per requirement: both witnesses wellformed,
    both witness roots equal to the expected split sequents, and the positive
    and negative predicates of the interpolant within the polarity bounds of
    each half of the split.
    """
    c = result.interpolant
    cpos, cneg = polarity(c)
    pos_left, neg_left = _allowed(split.gamma1, split.delta1)
    # C sits in the antecedent of C, Γ2 ⊢ Δ2: the bounds are those of Δ2 ⊢ Γ2.
    pos_right, neg_right = _allowed(split.delta2, split.gamma2)
    conjuncts = {  # in the order reports print them
        "wellformed_left": is_wellformed(result.left_witness),
        "wellformed_right": is_wellformed(result.right_witness),
        "root_left": root(result.left_witness) == Sequent(split.gamma1, split.delta1.add(c)),
        "root_right": root(result.right_witness) == Sequent(split.gamma2.add(c), split.delta2),
        "pos_left": cpos <= pos_left,
        "pos_right": cpos <= pos_right,
        "neg_left": cneg <= neg_left,
        "neg_right": cneg <= neg_right,
    }
    return VerifyReport(conjuncts)


def _simplify_binary(g: Formula, c: None, left: Formula, right: Formula) -> Formula:
    # ⊤ is the unit of ∧ and ⊥ absorbs it; the other way round for ∨
    unit, zero = (Top._tag, Bot._tag) if g._tag == And._tag else (Bot._tag, Top._tag)
    if left._tag == zero:
        return left
    if right._tag == zero:
        return right
    if left._tag == unit:
        return right
    if right._tag == unit:
        return left
    return REBUILD[g._tag](g, c, left, right)


def _simplify_unary(g: Formula, c: None, sub: Formula) -> Formula:
    if sub._tag not in (Bot._tag, Top._tag):
        return REBUILD[g._tag](g, c, sub)
    return sub if g._tag != Not._tag else TOP if sub._tag == Bot._tag else BOT  # a quantifier keeps its constant


def simplify_bool(f: Formula) -> Formula:
    """Remove constant subformulas using the unit and absorption laws of ⊥/⊤.

    A single bottom-up pass; the result contains Bot/Top only as the whole
    formula.
    """
    return fold(f, (*REBUILD[:3], _simplify_binary, _simplify_binary, *[_simplify_unary] * 3), None)
