"""Acceptance suite: one test per advertised guarantee.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
``pytest -v`` listing gives the same one-line-per-criterion view.
"""
from __future__ import annotations

import random
import time

import pytest

from craigseq.calculus import (
    BotL,
    Init,
    NotL,
    NotR,
    Sequent,
    TopR,
    WL,
    WR,
    FormulaSet,
    fset,
    is_wellformed,
    root,
)
from craigseq.formulas import BOT, TOP, Atom, FAll, FEx, Not, neg, pos
from craigseq.interpolation import (
    CASE_NAMES,
    SplitMismatchError,
    SplitSequent,
    UnreachableCaseError,
    _interpolate,
    case_counters,
    interpolate_strong,
    reset_case_counters,
    simplify_bool,
    verify,
)
from craigseq.oracle import (
    GenConfig,
    SplitMix64,
    gen_derivation,
    is_valid_sequent,
    random_split,
    semantic_verify,
)
from craigseq.syntax import (
    ParseError,
    decode,
    parse_derivation,
    parse_formula,
    parse_problem,
    print_derivation,
    print_formula,
)
from support import sample_formula, shift_derivation_preds

p = Atom(0)

EMPTY = FormulaSet()


def _line(n: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok


# --------------------------------------------------------------- the corpus

@pytest.fixture(scope="module")
def corpus():
    """1,000 propositional derivations (size <= 12, <= 4 predicates), each
    paired with 3 random splits of its root."""
    instances = []
    for seed in range(1000):
        cfg = GenConfig(max_nodes=4 + seed % 9, max_pred=1 + seed % 4, seed=seed)
        d = gen_derivation(cfg)
        splits = [random_split(root(d), seed * 3 + j) for j in range(3)]
        instances.append((d, splits))
    return instances


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """interpolate_strong output for every (derivation, split) pair."""
    out = []
    for d, splits in corpus:
        for sp in splits:
            out.append((d, sp, interpolate_strong(d, sp)))
    return out


# ------------------------------------------------------------- criterion 1

def test_criterion_1_init_suite():
    start = time.perf_counter()
    d = Init(Sequent(fset(p), fset(p)))

    res = interpolate_strong(d, SplitSequent(fset(p), EMPTY, fset(p), EMPTY))
    ok = (
        res.interpolant == BOT
        and res.left_witness == Init(Sequent(fset(p), fset(p, BOT)))
        and res.right_witness == BotL(Sequent(fset(BOT), EMPTY))
    )

    res = interpolate_strong(d, SplitSequent(fset(p), EMPTY, EMPTY, fset(p)))
    ok = ok and (
        res.interpolant == p
        and res.left_witness == Init(Sequent(fset(p), fset(p)))
        and res.right_witness == Init(Sequent(fset(p), fset(p)))
    )

    res = interpolate_strong(d, SplitSequent(EMPTY, fset(p), fset(p), EMPTY))
    ok = ok and (
        res.interpolant == Not(p)
        and res.left_witness
        == NotR(Sequent(EMPTY, fset(p, Not(p))), Init(Sequent(fset(p), fset(p, Not(p)))))
        and res.right_witness
        == NotL(Sequent(fset(Not(p), p), EMPTY), Init(Sequent(fset(Not(p), p), fset(p))))
    )

    res = interpolate_strong(d, SplitSequent(EMPTY, fset(p), EMPTY, fset(p)))
    ok = ok and (
        res.interpolant == TOP
        and res.left_witness == TopR(Sequent(EMPTY, fset(TOP)))
        and res.right_witness == Init(Sequent(fset(TOP, p), fset(p)))
    )

    elapsed = time.perf_counter() - start
    _line(1, "Init suite", ok and elapsed < 1.0, f"4 subcases, {elapsed:.3f}s < 1s")


# ------------------------------------------------------------- criterion 2

def test_criterion_2_contract_property(corpus_results):
    start = time.perf_counter()
    failures = 0
    for d, sp, res in corpus_results:
        report = verify(sp, res)
        if not report.ok:
            failures += 1
    elapsed = time.perf_counter() - start
    _line(
        2,
        "contract property",
        failures == 0 and elapsed < 60.0,
        f"{len(corpus_results)} instances, {failures} failures, {elapsed:.1f}s < 60s",
    )


# ------------------------------------------------------------- criterion 3

def test_criterion_3_semantic_oracle(corpus_results):
    start = time.perf_counter()
    failures = sum(
        1 for _, sp, res in corpus_results if not semantic_verify(sp, res.interpolant)
    )
    elapsed = time.perf_counter() - start
    _line(
        3,
        "semantic oracle",
        failures == 0 and elapsed < 60.0,
        f"{len(corpus_results)} instances, {failures} failures, {elapsed:.1f}s < 60s",
    )


# ------------------------------------------------------------- criterion 4

def _weave(spine, other_root):
    d = spine
    for f in other_root.antecedent:
        s = root(d)
        if f not in s.antecedent:
            d = WL(Sequent(s.antecedent.add(f), s.succedent), d)
    for f in other_root.succedent:
        s = root(d)
        if f not in s.succedent:
            d = WR(Sequent(s.antecedent, s.succedent.add(f)), d)
    return d


def test_criterion_4_disjoint_language_collapse():
    failures = 0
    for seed in range(200):
        d1 = gen_derivation(GenConfig(max_nodes=6, max_pred=2, seed=seed))
        d2 = shift_derivation_preds(
            gen_derivation(GenConfig(max_nodes=6, max_pred=2, seed=seed + 1000)), 2
        )
        r1, r2 = root(d1), root(d2)
        if SplitMix64(seed).below(2) == 0:
            woven = _weave(d1, r2)
        else:
            woven = _weave(d2, r1)
        sp = SplitSequent(r1.antecedent, r2.antecedent, r1.succedent, r2.succedent)
        res = interpolate_strong(woven, sp)
        c = res.interpolant
        good = (
            verify(sp, res).ok
            and pos(c) == frozenset()
            and neg(c) == frozenset()
            and simplify_bool(c) in (BOT, TOP)
        )
        if not good:
            failures += 1
    _line(
        4,
        "disjoint-language collapse",
        failures == 0,
        f"200 instances, {failures} failures",
    )


# ------------------------------------------------------------- criterion 5

def test_criterion_5_quantifier_cases():
    QA = FAll(Atom(0, (0,)))
    QE = FEx(Atom(0, (0,)))
    A0 = Atom(0, (0,))
    E1 = Atom(0, (1,))
    from craigseq.calculus import AllL, AllR, ExL, ExR
    from craigseq.formulas import bind

    d_alll = AllL(Sequent(fset(QA), fset(E1)), Init(Sequent(fset(E1, QA), fset(E1))))
    d_allr = AllR(
        Sequent(fset(QA), fset(QA)),
        AllL(Sequent(fset(QA), fset(QA, A0)), Init(Sequent(fset(A0, QA), fset(QA, A0)))),
    )
    d_exl = ExL(
        Sequent(fset(QE), fset(QE)),
        ExR(Sequent(fset(A0, QE), fset(QE)), Init(Sequent(fset(A0, QE), fset(QE, A0)))),
    )
    qe1 = bind("ex", 1, E1)
    d_exr = ExR(Sequent(fset(E1), fset(qe1)), Init(Sequent(fset(E1), fset(qe1, E1))))

    cases = [
        # (derivation, split, expected interpolant)
        (d_alll, SplitSequent(fset(QA), EMPTY, EMPTY, fset(E1)), E1),
        (d_alll, SplitSequent(EMPTY, fset(QA), EMPTY, fset(E1)), TOP),
        (d_allr, SplitSequent(EMPTY, fset(QA), fset(QA), EMPTY), FEx(Not(Atom(0, (0,))))),
        (d_allr, SplitSequent(fset(QA), EMPTY, EMPTY, fset(QA)), QA),
        (d_exl, SplitSequent(fset(QE), EMPTY, EMPTY, fset(QE)), QE),
        (d_exl, SplitSequent(EMPTY, fset(QE), fset(QE), EMPTY), FAll(Not(Atom(0, (0,))))),
        (d_exr, SplitSequent(EMPTY, fset(E1), fset(qe1), EMPTY), Not(E1)),
        (d_exr, SplitSequent(fset(E1), EMPTY, EMPTY, fset(qe1)), E1),
    ]
    failures = 0
    for d, sp, want in cases:
        res = interpolate_strong(d, sp)
        good = (
            res.interpolant == want
            and is_wellformed(res.left_witness)
            and is_wellformed(res.right_witness)
            and verify(sp, res).ok
        )
        if not good:
            failures += 1
    _line(5, "quantifier cases", failures == 0, f"8 fixtures, {failures} failures")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_case_coverage():
    reset_case_counters()
    for seed in range(400):
        for quant in (False, True):
            d = gen_derivation(
                GenConfig(max_nodes=4 + seed % 9, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=quant)
            )
            for j in range(3):
                sp = random_split(root(d), seed * 3 + j)
                interpolate_strong(d, sp)

    # the two defensive subcases cannot arise through the validated entry
    # point; exercise them against the internal dispatch directly
    d = WL(Sequent(fset(p, Atom(1)), fset(p)), Init(Sequent(fset(p), fset(p))))
    with pytest.raises(UnreachableCaseError):
        _interpolate(d, SplitSequent(fset(p), EMPTY, fset(p), EMPTY))
    d = WR(Sequent(fset(p), fset(p, Atom(1))), Init(Sequent(fset(p), fset(p))))
    with pytest.raises(UnreachableCaseError):
        _interpolate(d, SplitSequent(fset(p), EMPTY, EMPTY, fset(p)))

    counters = case_counters()
    algorithm_branches = [
        name for name in CASE_NAMES if not name.startswith(("botl-", "topr-"))
    ]
    assert len(algorithm_branches) == 32
    hit = sum(1 for name in algorithm_branches if counters[name] > 0)
    missing = [name for name in algorithm_branches if counters[name] == 0]
    extra_hit = sum(1 for name in CASE_NAMES if counters[name] > 0)
    _line(
        6,
        "case coverage",
        hit == 32,
        f"{hit}/32 branches" + (f", missing {missing}" if missing else "")
        + f"; {extra_hit}/{len(CASE_NAMES)} counters overall",
    )


# ------------------------------------------------------------- criterion 7

def test_criterion_7_checker_soundness(corpus):
    failures = 0
    for d, _ in corpus:
        if not is_wellformed(d):
            failures += 1
            continue
        s = root(d)
        if not is_valid_sequent(s.antecedent, s.succedent):
            failures += 1
    _line(
        7,
        "checker soundness",
        failures == 0,
        f"{len(corpus)} derivations, {failures} failures",
    )


# ------------------------------------------------------------- criterion 8

def test_criterion_8_round_trips_and_fuzz(corpus):
    sample_rng = SplitMix64(12345)
    rng = random.Random(12345)
    failures = 0
    for _ in range(10_000):
        f = sample_formula(sample_rng, max_depth=6)
        if parse_formula(print_formula(f)) != f:
            failures += 1
    for d, _ in corpus:
        if parse_derivation(print_derivation(d)) != d:
            failures += 1

    crashes = 0
    parsers = (parse_formula, parse_derivation, parse_problem)
    for i in range(100_000):
        blob = rng.randbytes(rng.randrange(0, 60))
        try:
            parsers[i % 3](decode(blob))
        except (ParseError, SplitMismatchError):
            pass
        except Exception:
            crashes += 1
    _line(
        8,
        "round-trips and fuzz",
        failures == 0 and crashes == 0,
        f"11,000 round-trips ({failures} failures), 100,000 fuzz inputs ({crashes} crashes)",
    )
