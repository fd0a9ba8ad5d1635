"""Shared test helpers: an independent wellformedness oracle, deterministic
random samplers, and hypothesis strategies.

``brute_is_deriv`` re-states every rule clause directly, with existential
quantifiers enumerated by brute force, so it shares no candidate-scanning or
matching logic with the library checker.  ``recursion_limit`` runs a block
at a given recursion limit.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

from hypothesis import strategies as st

from craigseq.calculus import (
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
    Sequent,
    TopR,
    WL,
    WR,
    fset,
    premises,
    root,
)
from craigseq.formulas import (
    BOT,
    TOP,
    And,
    Atom,
    FAll,
    FEx,
    Formula,
    Not,
    Or,
    bind,
    free_vars,
    inst,
)
from craigseq.oracle import SplitMix64


@contextmanager
def recursion_limit(n: int) -> Iterator[None]:
    """Set the recursion limit to ``n`` for the block, and restore it on exit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _max_var(*seqs: Sequent) -> int:
    out = -1
    for seq in seqs:
        for v in seq.free_vars():
            out = max(out, v)
    return out


def brute_is_deriv(d: Derivation) -> bool:
    """Clause-by-clause wellformedness, existentials enumerated exhaustively."""
    seq = root(d)
    gamma, delta = seq.antecedent, seq.succedent

    if isinstance(d, Init):
        return any(a in delta for a in gamma)
    if isinstance(d, BotL):
        return BOT in gamma
    if isinstance(d, TopR):
        return TOP in delta

    if isinstance(d, AndL):
        sub = root(d.sub)
        return any(
            isinstance(f, And) and sub == Sequent(gamma | fset(f.left, f.right), delta)
            for f in gamma
        ) and brute_is_deriv(d.sub)
    if isinstance(d, AndR):
        left, right = root(d.left), root(d.right)
        return any(
            isinstance(f, And)
            and left == Sequent(gamma, delta.add(f.left))
            and right == Sequent(gamma, delta.add(f.right))
            for f in delta
        ) and brute_is_deriv(d.left) and brute_is_deriv(d.right)
    if isinstance(d, OrL):
        left, right = root(d.left), root(d.right)
        return any(
            isinstance(f, Or)
            and left == Sequent(gamma.add(f.left), delta)
            and right == Sequent(gamma.add(f.right), delta)
            for f in gamma
        ) and brute_is_deriv(d.left) and brute_is_deriv(d.right)
    if isinstance(d, OrR):
        sub = root(d.sub)
        return any(
            isinstance(f, Or) and sub == Sequent(gamma, delta | fset(f.left, f.right))
            for f in delta
        ) and brute_is_deriv(d.sub)
    if isinstance(d, NotL):
        sub = root(d.sub)
        return any(
            isinstance(f, Not) and sub == Sequent(gamma, delta.add(f.sub)) for f in gamma
        ) and brute_is_deriv(d.sub)
    if isinstance(d, NotR):
        sub = root(d.sub)
        return any(
            isinstance(f, Not) and sub == Sequent(gamma.add(f.sub), delta) for f in delta
        ) and brute_is_deriv(d.sub)

    if isinstance(d, AllL):
        sub = root(d.sub)
        bound = _max_var(seq, sub) + 2
        return any(
            isinstance(f, FAll)
            and any(sub == Sequent(gamma.add(inst("all", t, f)), delta) for t in range(bound))
            for f in gamma
        ) and brute_is_deriv(d.sub)
    if isinstance(d, ExR):
        sub = root(d.sub)
        bound = _max_var(seq, sub) + 2
        return any(
            isinstance(f, FEx)
            and any(sub == Sequent(gamma, delta.add(inst("ex", t, f))) for t in range(bound))
            for f in delta
        ) and brute_is_deriv(d.sub)
    if isinstance(d, AllR):
        sub = root(d.sub)
        bound = _max_var(seq, sub) + 2
        fv = seq.free_vars()
        return any(
            isinstance(f, FAll)
            and any(
                a not in fv
                and bind("all", a, inst("all", a, f)) == f
                and sub == Sequent(gamma, delta.add(inst("all", a, f)))
                for a in range(bound)
            )
            for f in delta
        ) and brute_is_deriv(d.sub)
    if isinstance(d, ExL):
        sub = root(d.sub)
        bound = _max_var(seq, sub) + 2
        fv = seq.free_vars()
        return any(
            isinstance(f, FEx)
            and any(
                a not in fv
                and bind("ex", a, inst("ex", a, f)) == f
                and sub == Sequent(gamma.add(inst("ex", a, f)), delta)
                for a in range(bound)
            )
            for f in gamma
        ) and brute_is_deriv(d.sub)

    if isinstance(d, WL):
        sub = root(d.sub)
        return any(
            sub.antecedent.add(f) == gamma and sub.succedent == delta for f in gamma
        ) and brute_is_deriv(d.sub)
    if isinstance(d, WR):
        sub = root(d.sub)
        return any(
            sub.succedent.add(f) == delta and sub.antecedent == gamma for f in delta
        ) and brute_is_deriv(d.sub)
    raise TypeError(f"not a derivation: {d!r}")


def shift_preds(f: Formula, offset: int) -> Formula:
    """Rename every predicate id by ``offset`` (separating languages)."""
    if isinstance(f, Atom):
        return Atom(f.pred + offset, f.args)
    if isinstance(f, (And, Or)):
        return type(f)(shift_preds(f.left, offset), shift_preds(f.right, offset))
    if isinstance(f, Not):
        return Not(shift_preds(f.sub, offset))
    if isinstance(f, (FAll, FEx)):
        return type(f)(shift_preds(f.body, offset))
    return f


def shift_derivation_preds(d: Derivation, offset: int) -> Derivation:
    """Apply ``shift_preds`` to every formula of every node."""
    seq = root(d)
    shifted = Sequent(
        FormulaSet(shift_preds(f, offset) for f in seq.antecedent),
        FormulaSet(shift_preds(f, offset) for f in seq.succedent),
    )
    kids = [shift_derivation_preds(p, offset) for p in premises(d)]
    cls = type(d)
    if not kids:
        return cls(shifted)
    if len(kids) == 1:
        return cls(shifted, kids[0])
    return cls(shifted, kids[0], kids[1])


def sample_formula(rng: SplitMix64, max_depth: int = 6, max_pred: int = 4, max_var: int = 3) -> Formula:
    """Random formula over all constructors, for round-trip exercising."""
    k = rng.below(3 if max_depth == 0 else 8)
    if k == 0:
        nargs = rng.below(3)
        return Atom(rng.below(max_pred), tuple(rng.below(max_var) for _ in range(nargs)))
    if k == 1:
        return BOT
    if k == 2:
        return TOP
    if k == 3:
        return Not(sample_formula(rng, max_depth - 1, max_pred, max_var))
    if k == 4:
        return And(
            sample_formula(rng, max_depth - 1, max_pred, max_var),
            sample_formula(rng, max_depth - 1, max_pred, max_var),
        )
    if k == 5:
        return Or(
            sample_formula(rng, max_depth - 1, max_pred, max_var),
            sample_formula(rng, max_depth - 1, max_pred, max_var),
        )
    if k == 6:
        return FAll(sample_formula(rng, max_depth - 1, max_pred, max_var))
    return FEx(sample_formula(rng, max_depth - 1, max_pred, max_var))


def formulas(max_pred: int = 3, max_var: int = 3, quantifiers: bool = True) -> st.SearchStrategy[Formula]:
    atoms = st.builds(
        Atom,
        st.integers(0, max_pred),
        st.lists(st.integers(0, max_var), max_size=2).map(tuple),
    )
    base = st.one_of(atoms, st.just(BOT), st.just(TOP))

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        options = [
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
        ]
        if quantifiers:
            options += [st.builds(FAll, children), st.builds(FEx, children)]
        return st.one_of(*options)

    return st.recursive(base, extend, max_leaves=8)


def formula_sets(max_size: int = 3) -> st.SearchStrategy[FormulaSet]:
    return st.lists(formulas(), max_size=max_size).map(FormulaSet)


def sequents() -> st.SearchStrategy[Sequent]:
    return st.builds(Sequent, formula_sets(), formula_sets())


def derivations() -> st.SearchStrategy[Derivation]:
    """Arbitrary derivation trees, wellformed or not."""
    leaves = st.one_of(
        st.builds(Init, sequents()),
        st.builds(BotL, sequents()),
        st.builds(TopR, sequents()),
    )

    def extend(children: st.SearchStrategy[Derivation]) -> st.SearchStrategy[Derivation]:
        unary = st.one_of(
            *[st.builds(cls, sequents(), children) for cls in (AndL, OrR, NotL, NotR, AllL, AllR, ExL, ExR, WL, WR)]
        )
        binary = st.one_of(
            st.builds(AndR, sequents(), children, children),
            st.builds(OrL, sequents(), children, children),
        )
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=4)
