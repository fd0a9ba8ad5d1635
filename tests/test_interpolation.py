"""Interpolation: case-by-case expected results, verifier, simplification."""
from __future__ import annotations

import copy
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings

from craigseq import calculus, interpolation
from craigseq.calculus import (
    AllL,
    AllR,
    AndL,
    AndR,
    BotL,
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
    is_wellformed,
    premises,
    root,
)
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Formula, Not, Or, bind, free_vars, inst
from craigseq.interpolation import (
    CASE_NAMES,
    NotWellFormedError,
    SplitMismatchError,
    SplitSequent,
    UnreachableCaseError,
    _interpolate,
    case_counters,
    interpolate,
    interpolate_strong,
    reset_case_counters,
    simplify_bool,
    verify,
)
from craigseq.oracle import (
    GenConfig,
    eval_formula,
    gen_derivation,
    is_valid_sequent,
    random_split,
    semantic_verify,
)
from craigseq.syntax import parse_formula, print_formula
from support import formulas, recursion_limit
from test_check_golden import _alter

p = Atom(0)
q = Atom(1)

EMPTY = FormulaSet()


def split(g1=(), g2=(), d1=(), d2=()):
    return SplitSequent(FormulaSet(g1), FormulaSet(g2), FormulaSet(d1), FormulaSet(d2))


def assert_verified(sp, res):
    report = verify(sp, res)
    assert report.ok, report.conjuncts


# ------------------------------------------------------------ the Init suite

def test_init_shared_in_part1_part1():
    d = Init(Sequent(fset(p), fset(p)))
    res = interpolate_strong(d, split(g1=[p], d1=[p]))
    assert res.interpolant == BOT
    assert res.left_witness == Init(Sequent(fset(p), fset(p, BOT)))
    assert res.right_witness == BotL(Sequent(fset(BOT), EMPTY))
    assert_verified(split(g1=[p], d1=[p]), res)


def test_init_shared_in_part1_part2():
    d = Init(Sequent(fset(p), fset(p)))
    res = interpolate_strong(d, split(g1=[p], d2=[p]))
    assert res.interpolant == p
    assert res.left_witness == Init(Sequent(fset(p), fset(p)))
    assert res.right_witness == Init(Sequent(fset(p), fset(p)))
    assert_verified(split(g1=[p], d2=[p]), res)


def test_init_shared_in_part2_part1():
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g2=[p], d1=[p])
    res = interpolate_strong(d, sp)
    assert res.interpolant == Not(p)
    assert res.left_witness == NotR(
        Sequent(EMPTY, fset(p, Not(p))), Init(Sequent(fset(p), fset(p, Not(p))))
    )
    assert res.right_witness == NotL(
        Sequent(fset(Not(p), p), EMPTY), Init(Sequent(fset(Not(p), p), fset(p)))
    )
    assert_verified(sp, res)


def test_init_shared_in_part2_part2():
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g2=[p], d2=[p])
    res = interpolate_strong(d, sp)
    assert res.interpolant == TOP
    assert res.left_witness == TopR(Sequent(EMPTY, fset(TOP)))
    assert res.right_witness == Init(Sequent(fset(TOP, p), fset(p)))
    assert_verified(sp, res)


def test_init_subcase_preference_with_overlap():
    # p occurs in both antecedent parts: the part-1 subcase wins
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g1=[p], g2=[p], d2=[p])
    res = interpolate_strong(d, sp)
    assert res.interpolant == p
    assert_verified(sp, res)


def test_init_two_shared_formulas_canonical_scan():
    d = Init(Sequent(fset(p, q), fset(q)))
    sp = split(g1=[p], g2=[q], d2=[q])
    res = interpolate_strong(d, sp)
    assert res.interpolant == TOP
    assert res.left_witness == TopR(Sequent(fset(p), fset(TOP)))
    assert res.right_witness == Init(Sequent(fset(TOP, q), fset(q)))
    assert_verified(sp, res)


# --------------------------------------------------------------- leaf rules

def test_botl_cases():
    d = BotL(Sequent(fset(BOT), EMPTY))
    res = interpolate_strong(d, split(g1=[BOT]))
    assert res.interpolant == BOT
    assert res.left_witness == BotL(Sequent(fset(BOT), fset(BOT)))
    assert res.right_witness == BotL(Sequent(fset(BOT), EMPTY))
    assert_verified(split(g1=[BOT]), res)

    res2 = interpolate_strong(d, split(g2=[BOT]))
    assert res2.interpolant == TOP
    assert res2.left_witness == TopR(Sequent(EMPTY, fset(TOP)))
    assert res2.right_witness == BotL(Sequent(fset(TOP, BOT), EMPTY))
    assert_verified(split(g2=[BOT]), res2)


def test_topr_cases():
    d = TopR(Sequent(EMPTY, fset(TOP)))
    res = interpolate_strong(d, split(d1=[TOP]))
    assert res.interpolant == BOT
    assert res.left_witness == TopR(Sequent(EMPTY, fset(TOP, BOT)))
    assert res.right_witness == BotL(Sequent(fset(BOT), EMPTY))
    assert_verified(split(d1=[TOP]), res)

    res2 = interpolate_strong(d, split(d2=[TOP]))
    assert res2.interpolant == TOP
    assert res2.left_witness == TopR(Sequent(EMPTY, fset(TOP)))
    assert res2.right_witness == TopR(Sequent(fset(TOP), fset(TOP)))
    assert_verified(split(d2=[TOP]), res2)


# ---------------------------------------------------------- connective rules

def test_andl_example():
    d = AndL(
        Sequent(fset(And(p, q)), fset(p)),
        Init(Sequent(fset(p, q, And(p, q)), fset(p))),
    )
    sp = split(g1=[And(p, q)], d2=[p])
    res = interpolate_strong(d, sp)
    assert res.interpolant == p
    assert res.left_witness == AndL(
        Sequent(fset(And(p, q)), fset(p)),
        Init(Sequent(fset(p, q, And(p, q)), fset(p))),
    )
    assert res.right_witness == Init(Sequent(fset(p), fset(p)))
    assert_verified(sp, res)


def test_andl_principal_in_part2():
    d = AndL(
        Sequent(fset(And(p, q)), fset(p)),
        Init(Sequent(fset(p, q, And(p, q)), fset(p))),
    )
    sp = split(g2=[And(p, q)], d1=[p])
    res = interpolate_strong(d, sp)
    assert res.interpolant == Not(p)
    assert_verified(sp, res)
    assert semantic_verify(sp, res.interpolant)


def test_andr_interpolants_combine():
    s = Sequent(fset(p, q), fset(And(p, q)))
    d = AndR(
        s,
        Init(Sequent(fset(p, q), fset(And(p, q), p))),
        Init(Sequent(fset(p, q), fset(And(p, q), q))),
    )
    pq = And(p, q)
    sp1 = split(g1=[p, q], d1=[pq])
    res1 = interpolate_strong(d, sp1)
    c = Or(BOT, BOT)
    assert res1.interpolant == c

    def disjoined(a):
        # part 1 weakens in C, then the sibling's interpolant (here both are ⊥)
        return OrR(
            Sequent(fset(p, q), fset(a, pq, c)),
            WR(
                Sequent(fset(p, q), fset(a, BOT, pq, c)),
                WR(Sequent(fset(p, q), fset(a, BOT, pq, c)), Init(Sequent(fset(p, q), fset(a, BOT, pq)))),
            ),
        )

    assert res1.left_witness == AndR(Sequent(fset(p, q), fset(pq, c)), disjoined(p), disjoined(q))
    assert res1.right_witness == OrL(
        Sequent(fset(c), EMPTY),
        WL(Sequent(fset(BOT, c), EMPTY), BotL(Sequent(fset(BOT), EMPTY))),
        WL(Sequent(fset(BOT, c), EMPTY), BotL(Sequent(fset(BOT), EMPTY))),
    )
    assert_verified(sp1, res1)

    sp2 = split(g1=[p], g2=[q], d2=[pq])
    res2 = interpolate_strong(d, sp2)
    c = And(p, TOP)
    assert res2.interpolant == c
    assert res2.left_witness == AndR(
        Sequent(fset(p), fset(c)),
        WR(Sequent(fset(p), fset(p, c)), Init(Sequent(fset(p), fset(p)))),
        WR(Sequent(fset(p), fset(TOP, c)), TopR(Sequent(fset(p), fset(TOP)))),
    )
    # part 2 weakens in the sibling's interpolant, then C
    assert res2.right_witness == AndR(
        Sequent(fset(q, c), fset(pq)),
        AndL(
            Sequent(fset(q, c), fset(p, pq)),
            WL(
                Sequent(fset(p, q, TOP, c), fset(p, pq)),
                WL(Sequent(fset(p, q, TOP), fset(p, pq)), Init(Sequent(fset(p, q), fset(p, pq)))),
            ),
        ),
        AndL(
            Sequent(fset(q, c), fset(q, pq)),
            WL(
                Sequent(fset(p, q, TOP, c), fset(q, pq)),
                WL(Sequent(fset(p, q, TOP), fset(q, pq)), Init(Sequent(fset(q, TOP), fset(q, pq)))),
            ),
        ),
    )
    assert_verified(sp2, res2)
    assert semantic_verify(sp2, res2.interpolant)


def test_orl_interpolants_combine():
    s = Sequent(fset(Or(p, q)), fset(p, q))
    d = OrL(
        s,
        Init(Sequent(fset(Or(p, q), p), fset(p, q))),
        Init(Sequent(fset(Or(p, q), q), fset(p, q))),
    )
    pq = Or(p, q)
    sp1 = split(g1=[pq], d2=[p, q])
    res1 = interpolate_strong(d, sp1)
    assert res1.interpolant == pq  # C = p ∨ q, here the principal formula itself

    def disjoined(a):
        # part 1 weakens in C, then the sibling's interpolant
        return OrR(
            Sequent(fset(a, pq), fset(pq)),
            WR(
                Sequent(fset(a, pq), fset(p, q, pq)),
                WR(Sequent(fset(a, pq), fset(a, pq)), Init(Sequent(fset(a, pq), fset(a)))),
            ),
        )

    assert res1.left_witness == OrL(Sequent(fset(pq), fset(pq)), disjoined(p), disjoined(q))
    assert res1.right_witness == OrL(
        Sequent(fset(pq), fset(p, q)),
        WL(Sequent(fset(p, pq), fset(p, q)), Init(Sequent(fset(p), fset(p, q)))),
        WL(Sequent(fset(q, pq), fset(p, q)), Init(Sequent(fset(q), fset(p, q)))),
    )
    assert_verified(sp1, res1)
    assert semantic_verify(sp1, res1.interpolant)

    sp2 = split(g2=[pq], d1=[p], d2=[q])
    res2 = interpolate_strong(d, sp2)
    c, np = And(Not(p), TOP), Not(p)
    assert res2.interpolant == c
    assert res2.left_witness == AndR(
        Sequent(EMPTY, fset(p, c)),
        WR(Sequent(EMPTY, fset(p, np, c)), NotR(Sequent(EMPTY, fset(p, np)), Init(Sequent(fset(p), fset(p, np))))),
        WR(Sequent(EMPTY, fset(p, TOP, c)), TopR(Sequent(EMPTY, fset(p, TOP)))),
    )
    assert res2.right_witness == OrL(
        Sequent(fset(c, pq), fset(q)),
        AndL(
            Sequent(fset(p, c, pq), fset(q)),
            WL(
                Sequent(fset(p, TOP, c, pq, np), fset(q)),
                WL(
                    Sequent(fset(p, TOP, pq, np), fset(q)),
                    NotL(Sequent(fset(p, pq, np), fset(q)), Init(Sequent(fset(p, pq, np), fset(p, q)))),
                ),
            ),
        ),
        AndL(
            Sequent(fset(q, c, pq), fset(q)),
            WL(
                Sequent(fset(q, TOP, c, pq, np), fset(q)),
                WL(Sequent(fset(q, TOP, pq, np), fset(q)), Init(Sequent(fset(q, TOP, pq), fset(q)))),
            ),
        ),
    )
    assert_verified(sp2, res2)
    assert semantic_verify(sp2, res2.interpolant)


def test_not_rules():
    d = NotL(Sequent(fset(Not(p), p), EMPTY), Init(Sequent(fset(Not(p), p), fset(p))))
    sp = split(g1=[Not(p)], g2=[p])
    res = interpolate_strong(d, sp)
    assert res.interpolant == Not(p)
    assert_verified(sp, res)
    assert semantic_verify(sp, res.interpolant)

    d2 = NotR(Sequent(EMPTY, fset(Not(p), p)), Init(Sequent(fset(p), fset(Not(p), p))))
    sp2 = split(d1=[Not(p)], d2=[p])
    res2 = interpolate_strong(d2, sp2)
    assert res2.interpolant == p
    assert_verified(sp2, res2)
    assert semantic_verify(sp2, res2.interpolant)


# --------------------------------------------------------- quantifier rules

QA = FAll(Atom(0, (0,)))  # forall x. P0(x)
QE = FEx(Atom(0, (0,)))  # exists x. P0(x)
A0 = Atom(0, (0,))
E1 = Atom(0, (1,))


def _alll_deriv():
    return AllL(Sequent(fset(QA), fset(E1)), Init(Sequent(fset(E1, QA), fset(E1))))


def test_alll_part1():
    d = _alll_deriv()
    sp = split(g1=[QA], d2=[E1])
    res = interpolate_strong(d, sp)
    assert res.interpolant == E1
    assert res.left_witness == AllL(
        Sequent(fset(QA), fset(E1)), Init(Sequent(fset(QA, E1), fset(E1)))
    )
    assert res.right_witness == Init(Sequent(fset(E1), fset(E1)))
    assert_verified(sp, res)


def test_alll_part2():
    d = _alll_deriv()
    sp = split(g2=[QA], d2=[E1])
    res = interpolate_strong(d, sp)
    assert res.interpolant == TOP
    assert_verified(sp, res)


def _allr_deriv():
    return AllR(
        Sequent(fset(QA), fset(QA)),
        AllL(Sequent(fset(QA), fset(QA, A0)), Init(Sequent(fset(A0, QA), fset(QA, A0)))),
    )


def test_allr_part1():
    d = _allr_deriv()
    sp = split(g2=[QA], d1=[QA])
    res = interpolate_strong(d, sp)
    c, na = FEx(Not(Atom(0, (0,)))), Not(A0)
    assert res.interpolant == c
    assert res.left_witness == AllR(
        Sequent(EMPTY, fset(QA, c)),
        ExR(
            Sequent(EMPTY, fset(A0, QA, c)),
            WR(
                Sequent(EMPTY, fset(A0, na, QA, c)),
                NotR(Sequent(EMPTY, fset(A0, na, QA)), Init(Sequent(fset(A0), fset(A0, na, QA)))),
            ),
        ),
    )
    assert res.right_witness == ExL(
        Sequent(fset(QA, c), EMPTY),
        WL(
            Sequent(fset(na, QA, c), EMPTY),
            AllL(
                Sequent(fset(na, QA), EMPTY),
                NotL(Sequent(fset(A0, na, QA), EMPTY), Init(Sequent(fset(A0, na, QA), fset(A0)))),
            ),
        ),
    )
    assert_verified(sp, res)


def test_allr_part2():
    d = _allr_deriv()
    sp = split(g1=[QA], d2=[QA])
    res = interpolate_strong(d, sp)
    assert res.interpolant == QA
    assert res.left_witness == AllR(
        Sequent(fset(QA), fset(QA)),
        WR(Sequent(fset(QA), fset(A0, QA)), AllL(Sequent(fset(QA), fset(A0)), Init(Sequent(fset(A0, QA), fset(A0))))),
    )
    assert res.right_witness == AllR(
        Sequent(fset(QA), fset(QA)),
        AllL(Sequent(fset(QA), fset(A0, QA)), WL(Sequent(fset(A0, QA), fset(A0, QA)), Init(Sequent(fset(A0), fset(A0, QA))))),
    )
    assert_verified(sp, res)


def _exl_deriv():
    return ExL(
        Sequent(fset(QE), fset(QE)),
        ExR(Sequent(fset(A0, QE), fset(QE)), Init(Sequent(fset(A0, QE), fset(QE, A0)))),
    )


def test_exl_part1():
    d = _exl_deriv()
    sp = split(g1=[QE], d2=[QE])
    res = interpolate_strong(d, sp)
    assert res.interpolant == QE
    assert res.left_witness == ExL(
        Sequent(fset(QE), fset(QE)),
        ExR(Sequent(fset(A0, QE), fset(QE)), WR(Sequent(fset(A0, QE), fset(A0, QE)), Init(Sequent(fset(A0, QE), fset(A0))))),
    )
    assert res.right_witness == ExL(
        Sequent(fset(QE), fset(QE)),
        WL(Sequent(fset(A0, QE), fset(QE)), ExR(Sequent(fset(A0), fset(QE)), Init(Sequent(fset(A0), fset(A0, QE))))),
    )
    assert_verified(sp, res)


def test_exl_part2():
    d = _exl_deriv()
    sp = split(g2=[QE], d1=[QE])
    res = interpolate_strong(d, sp)
    c, na = FAll(Not(Atom(0, (0,)))), Not(A0)
    assert res.interpolant == c
    assert res.left_witness == AllR(
        Sequent(EMPTY, fset(c, QE)),
        WR(
            Sequent(EMPTY, fset(na, c, QE)),
            ExR(
                Sequent(EMPTY, fset(na, QE)),
                NotR(Sequent(EMPTY, fset(A0, na, QE)), Init(Sequent(fset(A0), fset(A0, na, QE)))),
            ),
        ),
    )
    assert res.right_witness == ExL(
        Sequent(fset(c, QE), EMPTY),
        AllL(
            Sequent(fset(A0, c, QE), EMPTY),
            WL(
                Sequent(fset(A0, na, c, QE), EMPTY),
                NotL(Sequent(fset(A0, na, QE), EMPTY), Init(Sequent(fset(A0, na, QE), fset(A0)))),
            ),
        ),
    )
    assert_verified(sp, res)


def _exr_deriv():
    quant = bind("ex", 1, E1)
    return ExR(Sequent(fset(E1), fset(quant)), Init(Sequent(fset(E1), fset(quant, E1))))


def test_exr_part1():
    d = _exr_deriv()
    quant = bind("ex", 1, E1)
    sp = split(g2=[E1], d1=[quant])
    res = interpolate_strong(d, sp)
    assert res.interpolant == Not(E1)
    assert_verified(sp, res)


def test_exr_part2():
    d = _exr_deriv()
    quant = bind("ex", 1, E1)
    sp = split(g1=[E1], d2=[quant])
    res = interpolate_strong(d, sp)
    assert res.interpolant == E1
    assert res.left_witness == Init(Sequent(fset(E1), fset(E1)))
    assert res.right_witness == ExR(
        Sequent(fset(E1), fset(quant)), Init(Sequent(fset(E1), fset(quant, E1)))
    )
    assert_verified(sp, res)


# ------------------------------------------------------------- entry points

def test_weak_interpolation():
    res = interpolate(Init(Sequent(fset(p), fset(p))))
    assert res.interpolant == p
    res2 = interpolate(BotL(Sequent(fset(BOT), EMPTY)))
    assert res2.interpolant == BOT
    assert res2.left_witness == BotL(Sequent(fset(BOT), fset(BOT)))
    assert res2.right_witness == BotL(Sequent(fset(BOT), EMPTY))


def test_rejects_non_wellformed():
    with pytest.raises(NotWellFormedError):
        interpolate(Init(Sequent(fset(p), fset(q))))


def test_rejects_mismatched_split():
    d = Init(Sequent(fset(p), fset(p)))
    with pytest.raises(SplitMismatchError):
        interpolate_strong(d, split(g1=[q], d1=[p]))
    with pytest.raises(SplitMismatchError):
        interpolate_strong(d, split(g1=[p]))


def test_errors_name_a_formula_deeper_than_the_recursion_limit():
    # Both messages hold the formula's repr, a fold without recursion, so the
    # caller gets the error and not RecursionError.
    chain: Formula = p
    for _ in range(5000):
        chain = Not(chain)
    with recursion_limit(1000):
        with pytest.raises(SplitMismatchError):
            interpolate_strong(Init(Sequent(fset(chain), fset(chain))), split(g1=[chain]))
        with pytest.raises(ValueError):
            inst("all", 0, chain)


def test_overlapping_split_accepted():
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g1=[p], g2=[p], d1=[p], d2=[p])
    res = interpolate_strong(d, sp)
    assert_verified(sp, res)


# ------------------------------------------------------------ case counters

def test_case_counters_track_hits():
    reset_case_counters()
    assert all(v == 0 for v in case_counters().values())
    interpolate_strong(Init(Sequent(fset(p), fset(p))), split(g1=[p], d2=[p]))
    counters = case_counters()
    assert counters["init-g1d2"] == 1
    assert sum(counters.values()) == 1
    reset_case_counters()
    assert sum(case_counters().values()) == 0


def test_case_names_complete():
    assert len(CASE_NAMES) == 36
    assert len(set(CASE_NAMES)) == 36
    # the set of names, in any order
    digest = hashlib.sha256(",".join(sorted(CASE_NAMES)).encode()).hexdigest()
    assert digest == "98208adf63adef1b930b38cc0ff155b9e6615bd28290606d8a4fba2297d8ce51"


def test_every_counted_case_is_named():
    # case_counters() reports only CASE_NAMES, so a misspelt name counted by
    # a step would be dropped without a trace; the Counter keeps it as a key.
    reset_case_counters()
    cfgs = [
        GenConfig(max_nodes=4 + seed % 9, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=quant)
        for seed in range(200)
        for quant in (False, True)
    ]
    cfgs += [GenConfig(max_nodes=120, max_pred=4, seed=seed, allow_quantifiers=True) for seed in range(5)]
    for i, cfg in enumerate(cfgs):
        d = gen_derivation(cfg)
        for j in range(3):
            interpolate_strong(d, random_split(root(d), 3 * i + j))
    hits = set(interpolation._counters)
    assert hits <= set(CASE_NAMES)
    assert set(CASE_NAMES) - hits == {"wl-impossible", "wr-impossible"}


def test_weakening_defensive_cases():
    reset_case_counters()
    d = WL(Sequent(fset(p, q), fset(p)), Init(Sequent(fset(p), fset(p))))
    assert is_wellformed(d)
    # a split that does not cover the weakened formula cannot arise through
    # the validated entry point; the dispatch refuses it
    bad = split(g1=[p], d1=[p])
    with pytest.raises(UnreachableCaseError):
        _interpolate(d, bad)
    assert case_counters()["wl-impossible"] == 1

    d2 = WR(Sequent(fset(p), fset(p, q)), Init(Sequent(fset(p), fset(p))))
    assert is_wellformed(d2)
    with pytest.raises(UnreachableCaseError):
        _interpolate(d2, split(g1=[p], d2=[p]))
    assert case_counters()["wr-impossible"] == 1


def test_axiom_defensive_cases():
    # an Init node whose split parts share no formula, or a BotL/TopR node
    # whose constant is in no part of its side, cannot arise through the
    # validated entry point; the dispatch refuses it before counting a case
    reset_case_counters()
    cases = [
        (Init(Sequent(fset(p), fset(p))), split(g1=[p], d2=[q]), "Init node with no shared formula in any part pair"),
        (BotL(Sequent(fset(BOT), EMPTY)), split(g1=[p]), "BotL node with its constant in neither part"),
        (TopR(Sequent(EMPTY, fset(TOP))), split(d2=[p]), "TopR node with its constant in neither part"),
    ]
    for d, sp, message in cases:
        assert is_wellformed(d)
        with pytest.raises(UnreachableCaseError) as info:
            _interpolate(d, sp)
        assert str(info.value) == message
    assert sum(case_counters().values()) == 0


def test_weakening_that_adds_nothing():
    # each premise already holds the weakened formula p, so the conclusion is
    # the premise; the split puts p in part 1, in part 2 and in both
    wl = WL(Sequent(fset(p, q), fset(p)), Init(Sequent(fset(p, q), fset(p))))
    wr = WR(Sequent(fset(p), fset(p, q)), Init(Sequent(fset(p), fset(p, q))))
    np = Not(p)
    cases = [
        (wl, split(g1=[p], g2=[q], d2=[p]), "wl-g1-only", p,
         WL(Sequent(fset(p), fset(p)), Init(Sequent(fset(p), fset(p)))),
         Init(Sequent(fset(p, q), fset(p)))),
        (wl, split(g1=[q], g2=[p], d1=[p]), "wl-g2-only", np,
         NotR(Sequent(fset(q), fset(p, np)), Init(Sequent(fset(p, q), fset(p, np)))),
         WL(Sequent(fset(p, np), EMPTY), NotL(Sequent(fset(p, np), EMPTY), Init(Sequent(fset(p, np), fset(p)))))),
        (wl, split(g1=[p], g2=[p, q], d2=[p]), "wl-both", p,
         WL(Sequent(fset(p), fset(p)), Init(Sequent(fset(p), fset(p)))),
         WL(Sequent(fset(p, q), fset(p)), Init(Sequent(fset(p, q), fset(p))))),
        (wr, split(g1=[p], d1=[p], d2=[q]), "wr-d1-only", BOT,
         WR(Sequent(fset(p), fset(p, BOT)), Init(Sequent(fset(p), fset(p, BOT)))),
         BotL(Sequent(fset(BOT), fset(q)))),
        (wr, split(g2=[p], d1=[q], d2=[p]), "wr-d2-only", TOP,
         TopR(Sequent(EMPTY, fset(q, TOP))),
         WR(Sequent(fset(p, TOP), fset(p)), Init(Sequent(fset(p, TOP), fset(p))))),
        (wr, split(g1=[p], d1=[p], d2=[p, q]), "wr-both", BOT,
         WR(Sequent(fset(p), fset(p, BOT)), Init(Sequent(fset(p), fset(p, BOT)))),
         WR(Sequent(fset(BOT), fset(p, q)), BotL(Sequent(fset(BOT), fset(p, q))))),
    ]
    for d, sp, case, c, left, right in cases:
        assert root(d) == root(premises(d)[0])
        reset_case_counters()
        res = interpolate_strong(d, sp)
        assert case_counters()[case] == 1
        assert res.interpolant == c
        assert res.left_witness == left
        assert res.right_witness == right
        assert_verified(sp, res)


# ------------------------------------------------------------------- verify

def test_verify_detects_corrupt_witness():
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g1=[p], d2=[p])
    res = interpolate_strong(d, sp)
    tampered = type(res)(res.interpolant, res.left_witness, Init(Sequent(fset(p), fset(q))))
    report = verify(sp, tampered)
    assert not report.ok
    assert not report.conjuncts["wellformed_right"]


def test_verify_trusts_no_kept_rule():
    # verify resolves every witness node afresh: a tampered witness fails
    # however its nodes are forged to keep a rule instance, and verify leaves
    # none kept on the witnesses it checks.
    forged = Init(Sequent(fset(p), fset(q)))
    object.__setattr__(forged, "_rule", calculus.RuleInstance("Init", p))
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g1=[p], d2=[p])
    res = interpolate_strong(d, sp)
    assert not verify(sp, res._replace(right_witness=forged)).conjuncts["wellformed_right"]
    tampered = 0
    for seed in range(20):
        d = gen_derivation(GenConfig(max_nodes=30, max_pred=3, seed=seed, allow_quantifiers=seed % 2 == 1))
        sp = random_split(root(d), seed)
        res = interpolate_strong(d, sp)
        assert len(_kept(d)) == len(_preorder(d))
        assert_verified(sp, res)
        assert _kept(res.left_witness) == _kept(res.right_witness) == []
        for side in ("left", "right"):
            bad = _alter(getattr(res, f"{side}_witness"), seed)
            if is_wellformed(bad):
                continue
            tampered += 1
            for node in _preorder(bad):
                object.__setattr__(node, "_rule", calculus.RuleInstance(node.tag))
            report = verify(sp, res._replace(**{f"{side}_witness": bad}))
            assert [name for name, ok in report.conjuncts.items() if not ok] == [f"wellformed_{side}"]
    assert tampered > 20


def test_verify_detects_foreign_predicates():
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g1=[p], d2=[p])
    res = interpolate_strong(d, sp)
    tampered = type(res)(Atom(9), res.left_witness, res.right_witness)
    report = verify(sp, tampered)
    assert not report.ok
    assert not report.conjuncts["pos_left"]
    assert not report.conjuncts["pos_right"]
    assert not report.conjuncts["root_left"]


def test_verify_conjunct_names_and_order():
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g1=[p], d2=[p])
    report = verify(sp, interpolate_strong(d, sp))
    assert list(report.conjuncts) == [
        "wellformed_left",
        "wellformed_right",
        "root_left",
        "root_right",
        "pos_left",
        "pos_right",
        "neg_left",
        "neg_right",
    ]
    assert report.ok


# ------------------------------------------------------------ random corpus

def test_random_corpus_verifies():
    for seed in range(60):
        cfg = GenConfig(max_nodes=4 + seed % 7, max_pred=1 + seed % 3, seed=seed, allow_quantifiers=seed % 2 == 1)
        d = gen_derivation(cfg)
        for j in range(2):
            sp = random_split(root(d), 1000 * seed + j)
            res = interpolate_strong(d, sp)
            assert_verified(sp, res)


# ---------------------------------------------------------------- simplify

def test_simplify_bool_examples():
    assert simplify_bool(And(p, TOP)) == p
    assert simplify_bool(And(TOP, p)) == p
    assert simplify_bool(And(p, BOT)) == BOT
    assert simplify_bool(Or(BOT, p)) == p
    assert simplify_bool(Or(p, TOP)) == TOP
    assert simplify_bool(Not(BOT)) == TOP
    assert simplify_bool(Not(TOP)) == BOT
    assert simplify_bool(Not(p)) == Not(p)
    assert simplify_bool(Or(BOT, BOT)) == BOT
    assert simplify_bool(And(TOP, And(p, TOP))) == p
    assert simplify_bool(FAll(And(TOP, TOP))) == TOP
    assert simplify_bool(FEx(Or(BOT, BOT))) == BOT
    assert simplify_bool(FAll(Atom(0, (0,)))) == FAll(Atom(0, (0,)))


@given(formulas())
def test_simplify_bool_idempotent(f):
    once = simplify_bool(f)
    assert simplify_bool(once) == once


@settings(max_examples=150)
@given(formulas(quantifiers=False))
def test_simplify_bool_preserves_truth_tables(f):
    simplified = simplify_bool(f)
    # f <-> simplified is valid on both implications
    assert is_valid_sequent([f], [simplified])
    assert is_valid_sequent([simplified], [f])



def _preorder(d):
    """The nodes of ``d`` in preorder, the first premise first."""
    nodes, stack = [], [d]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(premises(node)))
    return nodes


def _kept(d):
    """The nodes of ``d`` that keep a rule instance."""
    return [node for node in _preorder(d) if "_rule" in vars(node)]


def test_each_node_resolved_once(monkeypatch):
    calls: Counter[int] = Counter()
    real = calculus.resolve_rule

    def counting(node):
        calls[id(node)] += 1
        return real(node)

    monkeypatch.setattr(calculus, "resolve_rule", counting)
    # also catch a module that binds the checker under its own name
    monkeypatch.setattr(interpolation, "resolve_rule", counting, raising=False)
    for seed in range(20):
        d = gen_derivation(GenConfig(max_nodes=40, max_pred=3, seed=seed, allow_quantifiers=seed % 2 == 1))
        nodes = _preorder(d)
        assert len({id(node) for node in nodes}) == len(nodes)  # no node object is shared
        # Three splits resolve each node once in all: the first call keeps
        # each node's rule instance on the node and the later two read it.
        splits = [random_split(root(d), 3 * seed + j) for j in range(3)]
        calls.clear()
        results = [interpolate_strong(d, sp) for sp in splits]
        assert calls == Counter(id(node) for node in nodes)
        # A deep copy keeps no rule instance, and gives the same results.
        fresh = copy.deepcopy(d)
        assert _kept(fresh) == []
        assert [interpolate_strong(fresh, sp) for sp in splits] == results
    # A refused derivation resolves each node up to the failing one once and
    # no node after it: a 51-node chain that fails at its last node, and
    # seeded derivations with one node altered.  Interpolated again, it
    # raises the same error without resolving any node: the failing node
    # keeps its ``None``.
    seq = Sequent(fset(p), fset(q))
    chain = Init(seq)  # no rule justifies P0() ⊢ P1()
    for _ in range(50):
        chain = WL(seq, chain)
    refused = [(chain, split(g1=[p], d2=[q]))]
    for seed in range(40):
        d = gen_derivation(GenConfig(max_nodes=5 + seed % 30, max_pred=3, seed=seed, allow_quantifiers=seed % 2 == 1))
        d = _alter(d, seed)
        if not is_wellformed(d):
            refused.append((d, random_split(root(d), seed)))
    assert len(refused) > 20
    for d, sp in refused:
        nodes = _preorder(d)
        failing = next(i for i, node in enumerate(nodes) if real(node) is None)
        calls.clear()
        with pytest.raises(NotWellFormedError) as first:
            interpolate_strong(d, sp)
        assert calls == Counter(id(node) for node in nodes[: failing + 1])
        calls.clear()
        with pytest.raises(NotWellFormedError) as again:
            interpolate_strong(d, sp)
        assert calls == Counter()
        assert str(again.value) == str(first.value)


def _verified_at_recursion_limit_1000(d, sp):
    with recursion_limit(1000):
        return verify(sp, interpolate_strong(d, sp)).ok


def test_interpolates_deep_chain_without_recursion():
    seq = Sequent(fset(p), fset(p))
    d = Init(seq)
    for _ in range(5000):
        d = WL(seq, d)
    assert _verified_at_recursion_limit_1000(d, split(g1=[p], d2=[p]))


def test_interpolates_large_generated_derivation_without_recursion():
    d = gen_derivation(GenConfig(3200, max_pred=4, seed=1, allow_quantifiers=True))
    assert _verified_at_recursion_limit_1000(d, random_split(root(d), 1))


def test_rejects_malformed_node_deep_in_tree():
    seq = Sequent(fset(p), fset(q))
    d = Init(seq)  # no rule justifies P0() ⊢ P1()
    for _ in range(600):
        d = WL(seq, d)
    with recursion_limit(1000), pytest.raises(NotWellFormedError) as exc:
        interpolate_strong(d, split(g1=[p], d2=[q]))
    assert str(exc.value) == f'derivation is not wellformed at node path "{".".join(["0"] * 600)}"'


def test_a_passing_walk_builds_no_node_path(monkeypatch):
    def no_path(where):
        raise AssertionError("a node path was built")

    monkeypatch.setattr(calculus, "_path", no_path)
    # also catch a module that binds it under its own name
    monkeypatch.setattr(interpolation, "_path", no_path, raising=False)
    for seed in range(20):
        d = gen_derivation(GenConfig(max_nodes=40, max_pred=3, seed=seed, allow_quantifiers=seed % 2 == 1))
        sp = random_split(root(d), seed)
        assert is_wellformed(d)
        assert verify(sp, interpolate_strong(d, sp)).ok
    assert not is_wellformed(Init(Sequent(fset(p), fset(q))))
    # the patch reaches the interpolator: a failing call names a path
    with pytest.raises(AssertionError, match="node path"):
        interpolate(Init(Sequent(fset(p), fset(q))))


def _uncached(f: Formula) -> Formula:
    """An equal formula read back from its text, so that it caches nothing."""
    return parse_formula(print_formula(f))


def test_bound_interpolants_keep_the_free_variables_a_walk_finds():
    bound = 0
    for seed in range(40):
        d = gen_derivation(GenConfig(max_nodes=60, max_pred=4, seed=seed, allow_quantifiers=True))
        c = interpolate_strong(d, random_split(root(d), seed)).interpolant
        # every subformula the interpolator built with bind keeps its free variables
        stack = [c]
        while stack:
            g = stack.pop()
            if isinstance(g, (FAll, FEx)) and g._fv is not None:
                bound += 1
                assert g._fv == tuple(free_vars(_uncached(g)))
            stack += [getattr(g, name) for name in ("left", "right", "sub", "body") if hasattr(g, name)]
        for a in sorted(set(free_vars(c))) + [max(free_vars(c), default=-1) + 1]:
            for quantifier in ("all", "ex"):
                b = bind(quantifier, a, c)
                assert b._fv == tuple(free_vars(_uncached(b)))
    assert bound > 40  # the corpus closes interpolants over eigenvariables


# ------------------------------------------------------------ witness roots

def test_witness_nodes_share_the_side_their_rule_leaves_alone():
    # C sits in the succedent of the left witness and in the antecedent of the
    # right one; a node whose rule puts neither its principal formula nor its
    # premise's new formulas on C's side holds its premise's set there
    checked: Counter[str] = Counter()
    for seed in range(20):
        d = gen_derivation(GenConfig(60, 4, seed, True))
        res = interpolate_strong(d, random_split(root(d), seed))
        for w, c_side, i in ((res.left_witness, calculus.D, 1), (res.right_witness, calculus.G, 0)):
            stack = [w]
            while stack:
                node = stack.pop()
                row = calculus.RULES[node.tag]
                if node.premises and c_side not in (row.side, row.target):
                    assert node.seq[i] is node.premises[0].seq[i], (seed, node.tag)
                    checked[node.tag] += 1
                stack += node.premises
    assert set(checked) == {"AndL", "OrL", "AllL", "ExL", "WL", "AndR", "OrR", "AllR", "ExR", "WR"}, checked
