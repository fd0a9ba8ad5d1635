"""Interpolation: case-by-case expected results, verifier, simplification."""
from __future__ import annotations

import sys
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
    Sequent,
    TopR,
    WL,
    WR,
    fset,
    is_wellformed,
    premises,
    root,
)
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Formula, Not, Or, bind, free_vars
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
from support import formulas

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
    sp1 = split(g1=[p, q], d1=[And(p, q)])
    res1 = interpolate_strong(d, sp1)
    assert res1.interpolant == Or(BOT, BOT)
    assert_verified(sp1, res1)

    sp2 = split(g1=[p], g2=[q], d2=[And(p, q)])
    res2 = interpolate_strong(d, sp2)
    assert res2.interpolant == And(p, TOP)
    assert_verified(sp2, res2)
    assert semantic_verify(sp2, res2.interpolant)


def test_orl_interpolants_combine():
    s = Sequent(fset(Or(p, q)), fset(p, q))
    d = OrL(
        s,
        Init(Sequent(fset(Or(p, q), p), fset(p, q))),
        Init(Sequent(fset(Or(p, q), q), fset(p, q))),
    )
    sp1 = split(g1=[Or(p, q)], d2=[p, q])
    res1 = interpolate_strong(d, sp1)
    assert res1.interpolant == Or(p, q)
    assert_verified(sp1, res1)
    assert semantic_verify(sp1, res1.interpolant)

    sp2 = split(g2=[Or(p, q)], d1=[p], d2=[q])
    res2 = interpolate_strong(d, sp2)
    assert res2.interpolant == And(Not(p), TOP)
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
    assert res.interpolant == FEx(Not(Atom(0, (0,))))
    assert_verified(sp, res)


def test_allr_part2():
    d = _allr_deriv()
    sp = split(g1=[QA], d2=[QA])
    res = interpolate_strong(d, sp)
    assert res.interpolant == QA
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
    assert_verified(sp, res)


def test_exl_part2():
    d = _exl_deriv()
    sp = split(g2=[QE], d1=[QE])
    res = interpolate_strong(d, sp)
    assert res.interpolant == FAll(Not(Atom(0, (0,))))
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


def test_every_counted_case_is_named(monkeypatch):
    # case_counters() reports only CASE_NAMES, so a misspelt name built by
    # _owner or _weaken would be dropped without a trace.
    hits: Counter[str] = Counter()
    real = interpolation._hit

    def recording(name):
        hits[name] += 1
        real(name)

    monkeypatch.setattr(interpolation, "_hit", recording)
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
    assert set(hits) <= set(CASE_NAMES)
    assert set(CASE_NAMES) - set(hits) == {"wl-impossible", "wr-impossible"}


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


# ------------------------------------------------------------------- verify

def test_verify_detects_corrupt_witness():
    d = Init(Sequent(fset(p), fset(p)))
    sp = split(g1=[p], d2=[p])
    res = interpolate_strong(d, sp)
    tampered = type(res)(res.interpolant, res.left_witness, Init(Sequent(fset(p), fset(q))))
    report = verify(sp, tampered)
    assert not report.ok
    assert not report.conjuncts["wellformed_right"]


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
        nodes = Counter()
        stack = [d]
        while stack:
            node = stack.pop()
            nodes[id(node)] += 1
            stack.extend(premises(node))
        assert set(nodes.values()) == {1}  # no node object is shared
        calls.clear()
        interpolate_strong(d, random_split(root(d), seed))
        assert calls == nodes


def _verified_at_recursion_limit_1000(d, sp):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return verify(sp, interpolate_strong(d, sp)).ok
    finally:
        sys.setrecursionlimit(limit)


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
    with pytest.raises(NotWellFormedError):
        interpolate_strong(d, split(g1=[p], d2=[q]))


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

