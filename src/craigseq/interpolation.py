"""Craig interpolation over wellformed derivations, with witness derivations.

``interpolate_strong`` takes a wellformed derivation of Γ ⊢ Δ together with a
split of its root into (Γ1, Γ2, Δ1, Δ2) and produces an interpolant C plus two
wellformed derivations witnessing Γ1 ⊢ Δ1, C and C, Γ2 ⊢ Δ2.  The interpolant
uses predicates positively (negatively) only where allowed by the polarities of
both halves of the split; ``verify`` checks all of that syntactically, without
trusting the construction.

The construction is an induction on the derivation, which ``_interpolate``
runs as one explicit-stack walk.  It resolves each node through
``calculus.resolve_rule`` as the node's step starts and dispatches on its tag
through ``_CASES`` to one of six steps, which read the side ("g" antecedent,
"d" succedent) of the principal formula and the side of the premise's new
formulas from the rule's row of ``calculus.RULES``, and the new formulas
from the rule instance.  The steps cover the mirror pairs once each:
``_init``; ``_axiom`` (BotL, TopR); ``_unary`` (AndL, OrR, NotL, NotR, AllL,
ExR); ``_weaken`` (WL, WR); ``_branching`` (AndR, OrL); ``_eigen`` (AllR,
ExL).  All but the first two are generators: they yield each premise with its
split and are sent back its result.  In each step the part of the split that
owns the principal formula decides the case, named ``<rule>-<side><part>`` in
``CASE_NAMES``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Generator

from .calculus import (
    AllL,
    AllR,
    AndL,
    AndR,
    BotL,
    Derivation,
    ExL,
    ExR,
    FormulaSet,
    Init,
    NotL,
    NotR,
    OrL,
    OrR,
    RULES,
    Rule,
    RuleInstance,
    Sequent,
    TopR,
    WL,
    WR,
    _plus,
    _sides,
    fset,
    is_wellformed,
    resolve_rule,
    root,
)
from .formulas import BOT, REBUILD, TOP, And, Formula, Not, Or, bind, fold, polarity


class InterpolationError(Exception):
    """Base class for failures of the interpolation entry points."""


class NotWellFormedError(InterpolationError):
    """The input derivation has a node no rule instance justifies."""


class SplitMismatchError(InterpolationError):
    """The split does not recombine to the root sequent of the derivation."""


class UnreachableCaseError(InterpolationError):
    """Internal dispatch reached a case that valid inputs cannot produce."""


@dataclass(frozen=True)
class SplitSequent:
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


@dataclass(frozen=True)
class InterpolationResult:
    interpolant: Formula
    left_witness: Derivation
    right_witness: Derivation


#: Names of all interpolation case branches, used by the coverage counters.
CASE_NAMES = (
    "init-g1d1",
    "init-g1d2",
    "init-g2d1",
    "init-g2d2",
    "botl-g1",
    "botl-g2",
    "topr-d1",
    "topr-d2",
    "andl-g1",
    "andl-g2",
    "andr-d1",
    "andr-d2",
    "orl-g1",
    "orl-g2",
    "orr-d1",
    "orr-d2",
    "notl-g1",
    "notl-g2",
    "notr-d1",
    "notr-d2",
    "alll-g1",
    "alll-g2",
    "allr-d1",
    "allr-d2",
    "exl-g1",
    "exl-g2",
    "exr-d1",
    "exr-d2",
    "wl-both",
    "wl-g1-only",
    "wl-g2-only",
    "wl-impossible",
    "wr-both",
    "wr-d1-only",
    "wr-d2-only",
    "wr-impossible",
)

_counters: Counter[str] = Counter()


def reset_case_counters() -> None:
    _counters.clear()


def case_counters() -> dict[str, int]:
    """Snapshot of how often each case branch has run since the last reset."""
    return {name: _counters[name] for name in CASE_NAMES}


def _hit(name: str) -> None:
    _counters[name] += 1


def interpolate_strong(d: Derivation, split: SplitSequent) -> InterpolationResult:
    """Interpolate a wellformed derivation along a split of its root."""
    if split.sequent() != root(d):
        raise SplitMismatchError(
            "split does not recombine to the derivation root: "
            f"{split.sequent()!r} vs {root(d)!r}"
        )
    return _interpolate(d, split)


def interpolate(d: Derivation) -> InterpolationResult:
    """Interpolate with the weak split: whole antecedent left, succedent right."""
    seq = root(d)
    return interpolate_strong(d, SplitSequent(seq.antecedent, FormulaSet(), FormulaSet(), seq.succedent))


#: The run of a premise-taking step: it yields each premise with its split and
#: is sent back that premise's result.
_Step = Generator[tuple[Derivation, SplitSequent], InterpolationResult, InterpolationResult]


def _interpolate(d: Derivation, split: SplitSequent) -> InterpolationResult:
    """Run the step of every node of ``d``; the steps waiting on a premise's
    result sit on a list, so memory rather than the recursion limit bounds depth."""
    stack: list[_Step] = []
    res: InterpolationResult | None = None  # the result to send on, or None to start d
    while True:
        if res is None:
            row, rule = RULES[d.tag], resolve_rule(d)
            if rule is None:
                raise NotWellFormedError("derivation is not wellformed")
            if not row.arity:
                res = _CASES[d.tag](d, row, rule, split)
                continue
            stack.append(_CASES[d.tag](d, row, rule, split))
        elif not stack:
            return res
        try:
            d, split = stack[-1].send(res)
            res = None
        except StopIteration as done:
            stack.pop()
            res = done.value


# A split's parts are named by side and part: "g1", "g2" (antecedent) and
# "d1", "d2" (succedent).
_INDEX = {"g1": 0, "g2": 1, "d1": 2, "d2": 3}


def _parts(split: SplitSequent) -> list[FormulaSet]:
    """The four parts of ``split``, in the order of ``_INDEX``."""
    return [split.gamma1, split.gamma2, split.delta1, split.delta2]


def _owner(d: Derivation, side: str, f: Formula, split: SplitSequent) -> str:
    """Count and return the part, "1" or "2", of ``side`` that holds ``f``.

    A formula in both parts belongs to part 1.
    """
    k = "1" if f in _parts(split)[_INDEX[side + "1"]] else "2"
    _hit(f"{d.tag.lower()}-{side}{k}")
    return k


def _extend(split: SplitSequent, part: str, formulas: tuple[Formula, ...]) -> SplitSequent:
    """``split`` with ``formulas`` added to one part."""
    parts = _parts(split)
    i = _INDEX[part]
    parts[i] = _plus(parts[i], formulas)
    return SplitSequent(*parts)


def _wrap(rule: type, split: SplitSequent, res: InterpolationResult, left: bool, right: bool) -> InterpolationResult:
    """Re-apply ``rule`` below the left and/or right witness of ``res``."""
    c = res.interpolant
    return InterpolationResult(
        c,
        rule(Sequent(split.gamma1, split.delta1.add(c)), res.left_witness) if left else res.left_witness,
        rule(Sequent(split.gamma2.add(c), split.delta2), res.right_witness) if right else res.right_witness,
    )


def _init(d: Init, row: Rule, rule: RuleInstance, split: SplitSequent) -> InterpolationResult:
    g1, g2 = split.gamma1, split.gamma2
    d1, d2 = split.delta1, split.delta2
    for a in g1:
        if a in d1:
            _hit("init-g1d1")
            return InterpolationResult(
                BOT,
                Init(Sequent(g1, d1.add(BOT))),
                BotL(Sequent(g2.add(BOT), d2)),
            )
    for a in g1:
        if a in d2:
            _hit("init-g1d2")
            return InterpolationResult(
                a,
                Init(Sequent(g1, d1.add(a))),
                Init(Sequent(g2.add(a), d2)),
            )
    for a in g2:
        if a in d1:
            _hit("init-g2d1")
            c = Not(a)
            return InterpolationResult(
                c,
                NotR(Sequent(g1, d1.add(c)), Init(Sequent(g1.add(a), d1.add(c)))),
                NotL(Sequent(g2.add(c), d2), Init(Sequent(g2.add(c), d2.add(a)))),
            )
    for a in g2:
        if a in d2:
            _hit("init-g2d2")
            return InterpolationResult(
                TOP,
                TopR(Sequent(g1, d1.add(TOP))),
                Init(Sequent(g2.add(TOP), d2)),
            )
    raise UnreachableCaseError("Init node with no shared formula in any part pair")


def _axiom(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> InterpolationResult:
    """BotL, TopR: the constant in part 1 gives the interpolant ⊥, in part 2 ⊤."""
    g1, g2 = split.gamma1, split.gamma2
    d1, d2 = split.delta1, split.delta2
    parts = _parts(split)
    if all(rule.analysed not in parts[_INDEX[row.side + k]] for k in "12"):
        raise UnreachableCaseError(f"{d.tag} node with its constant in neither part")
    if _owner(d, row.side, rule.analysed, split) == "1":
        return InterpolationResult(BOT, row.cls(Sequent(g1, d1.add(BOT))), BotL(Sequent(g2.add(BOT), d2)))
    return InterpolationResult(TOP, TopR(Sequent(g1, d1.add(TOP))), row.cls(Sequent(g2.add(TOP), d2)))


def _unary(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """AndL, OrR, NotL, NotR, AllL, ExR: the premise's new formulas join the
    part that owns the principal formula, and that part's witness re-applies
    the rule."""
    k = _owner(d, row.side, rule.analysed, split)
    res = yield d.sub, _extend(split, row.target + k, rule.adds)
    return _wrap(row.cls, split, res, k == "1", k == "2")


def _weaken(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """WL, WR: each part keeps only the premise's formulas, and every part that
    holds the weakened formula re-weakens its witness."""
    f = rule.analysed
    i, j = _INDEX[row.side + "1"], _INDEX[row.side + "2"]
    parts = _parts(split)
    in1, in2 = f in parts[i], f in parts[j]
    name = d.tag.lower()
    if in1 and in2:
        _hit(f"{name}-both")
    elif in1 or in2:
        _hit(f"{name}-{row.side}{1 if in1 else 2}-only")
    else:
        _hit(f"{name}-impossible")
        side = "antecedent" if row.side == "g" else "succedent"
        raise UnreachableCaseError(f"weakened formula missing from both {side} parts")
    # Each part lies within the conclusion's side, the premise's side plus f.
    kept = _sides(root(d.sub), row.side)[0]
    premise = split
    if f not in kept:
        parts[i], parts[j] = parts[i].without(f), parts[j].without(f)
        premise = SplitSequent(*parts)
    res = yield d.sub, premise
    return _wrap(row.cls, split, res, in1, in2)


def _branching(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """AndR, OrL: each premise adds its component to the owning part.

    Part 1 joins the premise interpolants into C = Cl ∨ Cr, part 2 into
    C = Cl ∧ Cr; the other part's witness combines both premise witnesses with
    OrL or AndR.
    """
    k = _owner(d, row.side, rule.analysed, split)
    left, right = (_extend(split, row.target + k, (a,)) for a in rule.adds)
    resl = yield d.left, left
    resr = yield d.right, right
    cl, cr = resl.interpolant, resr.interpolant
    g1, g2 = split.gamma1, split.gamma2
    d1, d2 = split.delta1, split.delta2
    if k == "1":
        c = Or(cl, cr)

        def disjoin(premise: SplitSequent, w: Derivation, ci: Formula, cj: Formula) -> Derivation:
            g, dp = premise.gamma1, premise.delta1
            w = WR(Sequent(g, dp | fset(ci, c)), w)
            w = WR(Sequent(g, dp | fset(ci, c, cj)), w)
            return OrR(Sequent(g, dp.add(c)), w)

        dl = row.cls(
            Sequent(g1, d1.add(c)),
            disjoin(left, resl.left_witness, cl, cr),
            disjoin(right, resr.left_witness, cr, cl),
        )
        dr = OrL(
            Sequent(g2.add(c), d2),
            WL(Sequent(g2 | fset(c, cl), d2), resl.right_witness),
            WL(Sequent(g2 | fset(c, cr), d2), resr.right_witness),
        )
        return InterpolationResult(c, dl, dr)
    c = And(cl, cr)

    def conjoin(premise: SplitSequent, w: Derivation, ci: Formula, cj: Formula) -> Derivation:
        g, dp = premise.gamma2, premise.delta2
        w = WL(Sequent(g | fset(cj, ci), dp), w)
        w = WL(Sequent(g | fset(c, cj, ci), dp), w)
        return AndL(Sequent(g.add(c), dp), w)

    dl = AndR(
        Sequent(g1, d1.add(c)),
        WR(Sequent(g1, d1 | fset(cl, c)), resl.left_witness),
        WR(Sequent(g1, d1 | fset(cr, c)), resr.left_witness),
    )
    dr = row.cls(
        Sequent(g2.add(c), d2),
        conjoin(left, resl.right_witness, cl, cr),
        conjoin(right, resr.right_witness, cr, cl),
    )
    return InterpolationResult(c, dl, dr)


def _eigen(d: Derivation, row: Rule, rule: RuleInstance, split: SplitSequent) -> _Step:
    """AllR, ExL: the premise adds the instance at the eigenvariable a to the
    owning part.  Part 1 closes the premise interpolant C' to ∃a.C', part 2
    to ∀a.C'."""
    k = _owner(d, row.side, rule.analysed, split)
    premise = _extend(split, row.target + k, rule.adds)
    res = yield d.sub, premise
    cp = res.interpolant
    g1, g2 = split.gamma1, split.gamma2
    d1, d2 = split.delta1, split.delta2
    if k == "1":
        c = bind("ex", rule.eigen, cp)
        g, dp = premise.gamma1, premise.delta1
        w = WR(Sequent(g, dp | fset(cp, c)), res.left_witness)
        w = ExR(Sequent(g, dp.add(c)), w)
        dl = row.cls(Sequent(g1, d1.add(c)), w)
        dr = ExL(Sequent(g2.add(c), d2), WL(Sequent(g2 | fset(c, cp), d2), res.right_witness))
        return InterpolationResult(c, dl, dr)
    c = bind("all", rule.eigen, cp)
    dl = AllR(Sequent(g1, d1.add(c)), WR(Sequent(g1, d1 | fset(cp, c)), res.left_witness))
    g, dp = premise.gamma2, premise.delta2
    w = WL(Sequent(g | fset(c, cp), dp), res.right_witness)
    w = AllL(Sequent(g.add(c), dp), w)
    dr = row.cls(Sequent(g2.add(c), d2), w)
    return InterpolationResult(c, dl, dr)


_CASES = {
    "Init": _init,
    **dict.fromkeys(("BotL", "TopR"), _axiom),
    **dict.fromkeys(("AndL", "OrR", "NotL", "NotR", "AllL", "ExR"), _unary),
    **dict.fromkeys(("WL", "WR"), _weaken),
    **dict.fromkeys(("AndR", "OrL"), _branching),
    **dict.fromkeys(("AllR", "ExL"), _eigen),
}


#: Conjunct names of the verifier report, in output order.
VERIFY_CONJUNCTS = (
    "wellformed_left",
    "wellformed_right",
    "root_left",
    "root_right",
    "pos_left",
    "pos_right",
    "neg_left",
    "neg_right",
)


@dataclass
class VerifyReport:
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
    conjuncts = {
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
    unit = 2 if g._tag == 3 else 1  # ⊤ for ∧, ⊥ for ∨; the other constant absorbs
    if left._tag == 3 - unit:
        return left
    if right._tag == 3 - unit:
        return right
    if left._tag == unit:
        return right
    if right._tag == unit:
        return left
    return REBUILD[g._tag](g, c, left, right)


def _simplify_unary(g: Formula, c: None, sub: Formula) -> Formula:
    if sub._tag not in (1, 2):  # neither ⊥ nor ⊤
        return REBUILD[g._tag](g, c, sub)
    return sub if g._tag > 5 else TOP if sub._tag == 1 else BOT


def simplify_bool(f: Formula) -> Formula:
    """Remove constant subformulas using the unit and absorption laws of ⊥/⊤.

    A single bottom-up pass; the result contains Bot/Top only as the whole
    formula.
    """
    return fold(f, (*REBUILD[:3], _simplify_binary, _simplify_binary, *[_simplify_unary] * 3), None)
