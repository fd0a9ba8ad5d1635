"""Semantic oracle, RNG, and random derivation generator."""
from __future__ import annotations

import hashlib

import pytest

from craigseq.calculus import is_wellformed, root, size
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Formula, Not, Or
from craigseq.interpolation import SplitSequent
from craigseq.calculus import FormulaSet, fset
from craigseq.oracle import (
    GenConfig,
    MAX_VALIDITY_ATOMS,
    SplitMix64,
    atom_keys,
    eval_formula,
    gen_derivation,
    is_valid_sequent,
    random_split,
    semantic_verify,
)
from craigseq.syntax import print_derivation
from support import brute_is_deriv

p = Atom(0)
q = Atom(1)


# -------------------------------------------------------------------- RNG

def test_splitmix64_reference_vectors():
    # published reference stream for the standard splitmix64 constants
    assert [SplitMix64(0).next_u64() for _ in range(1)] == [0xE220A8397B1DCDAF]
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r1 = SplitMix64(1)
    assert [r1.next_u64() for _ in range(3)] == [
        0x910A2DEC89025CC1,
        0xBEEB8DA1658EEC67,
        0xF893A2EEFB32555E,
    ]


def test_splitmix64_below_and_choice():
    r = SplitMix64(7)
    draws = [r.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) > 1
    r2 = SplitMix64(7)
    assert [r2.below(10) for _ in range(200)] == draws
    r3 = SplitMix64(3)
    items = ["a", "b", "c"]
    assert all(r3.choice(items) in items for _ in range(50))


# ------------------------------------------------------------- truth tables

def test_atom_keys():
    f = And(Atom(0, (1,)), Or(Atom(0), Not(Atom(2, (1, 2)))))
    assert atom_keys(f) == {(0, (1,)), (0, ()), (2, (1, 2))}


def test_eval_formula():
    v = {(0, ()): True, (1, ()): False}
    assert eval_formula(p, v) is True
    assert eval_formula(q, v) is False
    assert eval_formula(BOT, v) is False
    assert eval_formula(TOP, v) is True
    assert eval_formula(And(p, q), v) is False
    assert eval_formula(Or(p, q), v) is True
    assert eval_formula(Not(q), v) is True
    with pytest.raises(ValueError):
        eval_formula(FAll(Atom(0, (0,))), v)
    with pytest.raises(ValueError):
        eval_formula(And(p, FEx(q)), v)
    # no short circuit past a quantifier
    with pytest.raises(ValueError):
        eval_formula(Or(p, FEx(Atom(1, (0,)))), {(0, ()): True})


def test_is_valid_sequent_examples():
    assert is_valid_sequent([And(p, q)], [p]) is True
    assert is_valid_sequent([p], [q]) is False
    assert is_valid_sequent([], [p, Not(p)]) is True
    assert is_valid_sequent([Or(p, q)], [p, q]) is True
    assert is_valid_sequent([BOT], []) is True
    assert is_valid_sequent([], [TOP]) is True
    assert is_valid_sequent([], []) is False
    assert is_valid_sequent([p], [p]) is True


def test_is_valid_sequent_atom_limit():
    atoms: list[Formula] = [Atom(i) for i in range(MAX_VALIDITY_ATOMS)]
    assert is_valid_sequent(atoms, [atoms[0]]) is True
    too_many = atoms + [Atom(MAX_VALIDITY_ATOMS)]
    with pytest.raises(ValueError):
        is_valid_sequent(too_many, [too_many[0]])


def test_semantic_verify_examples():
    sp = SplitSequent(fset(p), FormulaSet(), FormulaSet(), fset(p))
    assert semantic_verify(sp, p) is True
    assert semantic_verify(sp, TOP) is False
    sp2 = SplitSequent(fset(p), FormulaSet(), fset(p), FormulaSet())
    assert semantic_verify(sp2, BOT) is True


# ---------------------------------------------------------------- generator

def test_gen_derivation_deterministic():
    cfg = GenConfig(max_nodes=8, max_pred=3, seed=5)
    assert gen_derivation(cfg) == gen_derivation(cfg)


def test_gen_derivation_golden_seed():
    d = gen_derivation(GenConfig(max_nodes=6, max_pred=2, seed=42))
    assert print_derivation(d) == (
        "(NotL [~~bot] => [] (WL [~~bot] => [~bot] (NotR [] => [~bot] "
        "(WR [bot] => [~bot] (BotL [bot] => [])))))"
    )


def _has_quantifier(f: Formula) -> bool:
    if isinstance(f, (FAll, FEx)):
        return True
    if isinstance(f, Not):
        return _has_quantifier(f.sub)
    if isinstance(f, (And, Or)):
        return _has_quantifier(f.left) or _has_quantifier(f.right)
    return False


def test_gen_derivation_wellformed_and_bounded():
    for seed in range(200):
        cfg = GenConfig(max_nodes=2 + seed % 10, max_pred=1 + seed % 4, seed=seed)
        d = gen_derivation(cfg)
        assert is_wellformed(d)
        assert brute_is_deriv(d)
        assert 1 <= size(d) <= cfg.max_nodes
        s = root(d)
        for f in list(s.antecedent) + list(s.succedent):
            assert not _has_quantifier(f)


def test_gen_derivation_with_quantifiers():
    saw_quantifier = False
    for seed in range(200):
        cfg = GenConfig(max_nodes=2 + seed % 10, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=True)
        d = gen_derivation(cfg)
        assert is_wellformed(d)
        assert brute_is_deriv(d)
        assert size(d) <= cfg.max_nodes
        s = root(d)
        if any(_has_quantifier(f) for f in list(s.antecedent) + list(s.succedent)):
            saw_quantifier = True
    assert saw_quantifier


def test_gen_derivation_config_validation():
    with pytest.raises(ValueError):
        gen_derivation(GenConfig(max_nodes=0, max_pred=1, seed=0))
    with pytest.raises(ValueError):
        gen_derivation(GenConfig(max_nodes=3, max_pred=0, seed=0))


def test_gen_derivation_size_one():
    d = gen_derivation(GenConfig(max_nodes=1, max_pred=1, seed=9))
    assert size(d) == 1
    assert is_wellformed(d)


GEN_DIGEST_SHA256 = "fe67cc1ec4e09af17314670a526af44f6ba5450721f70ee26051f298315b4b1f"


def test_gen_derivation_digest():
    # Pins every RNG draw of the generator at the sizes the benchmark uses
    # (the goldens stop at 34 nodes), quantifiers off and on.
    h = hashlib.sha256()
    for seed in range(20):
        for n in (60, 150):
            for quant in (False, True):
                cfg = GenConfig(max_nodes=n, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=quant)
                h.update(print_derivation(gen_derivation(cfg)).encode())
                h.update(b"\n")
    assert h.hexdigest() == GEN_DIGEST_SHA256


# -------------------------------------------------------------- random_split

def test_random_split_deterministic_and_covering():
    for seed in range(100):
        d = gen_derivation(GenConfig(max_nodes=6, max_pred=2, seed=seed))
        s = root(d)
        sp = random_split(s, seed * 17)
        assert sp == random_split(s, seed * 17)
        assert (sp.gamma1 | sp.gamma2) == s.antecedent
        assert (sp.delta1 | sp.delta2) == s.succedent


def test_random_split_varies():
    from craigseq.calculus import Init, Sequent

    s = Sequent(fset(p), fset(p))
    seen = set()
    for seed in range(30):
        sp = random_split(s, seed)
        seen.add((tuple(sp.gamma1), tuple(sp.gamma2), tuple(sp.delta1), tuple(sp.delta2)))
    # the dealer reaches several distinct splits, including the two-sided one
    assert ((p,), (), (), (p,)) in seen
    assert len(seen) >= 4
