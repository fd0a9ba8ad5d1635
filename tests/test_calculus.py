"""Formula sets, sequents, derivations, and the rule checker."""
from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import craigseq
from craigseq.calculus import (
    RULES,
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
    _plus,
    fset,
    is_wellformed,
    premises,
    resolve_rule,
    root,
    size,
)
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Formula, Not, Or, bind, canonical_key
from craigseq.interpolation import interpolate_strong
from craigseq.oracle import GenConfig, SplitMix64, _random_formula, gen_derivation, random_split
from craigseq.syntax import parse_formula, print_formula
from support import brute_is_deriv, derivations, formula_sets, formulas

p = Atom(0)
q = Atom(1)
r = Atom(2)


# ---------------------------------------------------------------- FormulaSet

def test_formula_set_sorts_and_dedups():
    assert tuple(FormulaSet([TOP, BOT, BOT])) == (BOT, TOP)
    assert tuple(fset(q, p, q)) == (p, q)
    assert len(fset(p, p, p)) == 1


def test_formula_set_membership_and_equality():
    s = fset(p, And(p, q))
    assert p in s and And(p, q) in s and q not in s
    assert s == fset(And(p, q), p)
    assert s != fset(p)
    assert hash(s) == hash(fset(And(p, q), p))


def test_formula_set_operations():
    s = fset(p, q)
    assert s.add(p) is s
    assert tuple(s.add(r)) == (p, q, r)
    assert tuple(s.without(q)) == (p,)
    assert s.without(r) is s
    assert tuple(fset(p, q) | fset(q, r)) == (p, q, r)
    assert not FormulaSet()
    assert bool(s)


@given(st.lists(formulas(), max_size=4), st.lists(formulas(), max_size=4))
def test_formula_set_ops_stay_canonical(xs, ys):
    a, b = FormulaSet(xs), FormulaSet(ys)
    assert a | b == FormulaSet(xs + ys)
    for f in ys:
        assert a.add(f) == FormulaSet(xs + [f])
        assert a.without(f) == FormulaSet([g for g in xs if g != f])


@given(st.lists(formulas(), max_size=4))
def test_formula_set_order_independent(xs):
    assert FormulaSet(xs) == FormulaSet(reversed(xs))


def test_formula_set_ops_hash_no_formula(monkeypatch):
    a, b, c = And(p, q), Or(q, r), Not(r)
    # equal formulas built anew: their keys are equal tuples, not the same ones
    a2, b2, q2 = (parse_formula(print_formula(f)) for f in (a, b, q))
    for f in (p, q, r, a, b, c, a2, b2, q2):
        canonical_key(f)  # keys are cached before hashing is switched off

    def no_hash(f: Formula) -> int:
        raise AssertionError("a formula set hashed a formula")

    monkeypatch.setattr(Formula, "__hash__", no_hash)
    s = FormulaSet([c, p, a, p])
    assert tuple(s) == (p, a, c)
    assert tuple(s.add(q)) == (p, q, a, c)
    assert s.add(a) is s
    assert tuple(s.without(a)) == (p, c)
    assert s.without(b) is s
    assert tuple(s | fset(b, p)) == (p, a, b, c)
    assert a in s and q not in s and b not in s
    assert [] not in s and 3 not in s
    assert canonical_key(a2) is not canonical_key(a)
    assert a2 in s and q2 not in s and b2 not in s
    assert s.add(a2) is s
    assert [f is g for f, g in zip(s.add(q2), (p, q2, a, c))] == [True] * 4
    assert tuple(s.without(a2)) == (p, c)
    assert s.without(b2) is s


@pytest.mark.parametrize("width", range(41))
def test_formula_set_union_inserts_like_a_reference_union(width):
    rng = SplitMix64(width)
    pool = [_random_formula(rng, 3) for _ in range(60)]
    for _ in range(5):
        xs = [pool[rng.below(len(pool))] for _ in range(width)]
        # equal formulas built anew, so the objects tell the operands apart
        ys = [parse_formula(print_formula(pool[rng.below(len(pool))])) for _ in range(rng.below(41))]
        for left, right in ((xs, ys), (ys, xs)):
            a, b = FormulaSet(left), FormulaSet(right)
            ref = {canonical_key(f): f for f in b}
            ref.update((canonical_key(f), f) for f in a)  # the left operand's objects stay
            union = list(a | b)
            assert [canonical_key(f) for f in union] == sorted(ref)
            assert all(f is ref[canonical_key(f)] for f in union)


def test_plus_adds_like_a_union():
    rng = SplitMix64(7)
    pool = [_random_formula(rng, 3) for _ in range(30)]
    for width in range(20):
        fs = FormulaSet(pool[rng.below(len(pool))] for _ in range(width))
        for n in (1, 2):
            # equal formulas built anew, so the objects tell fs and t apart
            t = tuple(parse_formula(print_formula(pool[rng.below(len(pool))])) for _ in range(n))
            ref: dict[tuple[int, ...], Formula] = {}
            for f in (*fs, *t):  # on equal keys the first stays, so fs's own object
                ref.setdefault(canonical_key(f), f)
            plus = list(_plus(fs, t))
            assert [canonical_key(f) for f in plus] == sorted(ref)
            assert all(f is ref[canonical_key(f)] for f in plus)


# ----------------------------------------------------------- tree structure

def test_root_premises_size():
    s = Sequent(fset(p), fset(p))
    d = Init(s)
    assert root(d) == s
    assert premises(d) == ()
    assert size(d) == 1
    d2 = AndR(s, Init(s), AndL(s, Init(s)))
    assert premises(d2) == (Init(s), AndL(s, Init(s)))
    assert size(d2) == 4


def test_rule_nodes_are_frozen_values():
    s, s2 = Sequent(fset(p), fset(p)), Sequent(fset(q), fset(q))
    kids = (Init(s), AndL(s, Init(s)))
    for tag, row in RULES.items():
        node = row.cls(s, *kids[: row.arity])
        names = tuple(f.name for f in dataclasses.fields(row.cls))
        assert row.arity == len(names) - 1 == len(premises(node))
        assert row.cls.__match_args__ == names
        assert repr(node).startswith(f"{tag}(seq=")
        twin = row.cls(s, *(Init(s), AndL(s, Init(s)))[: row.arity])
        assert node == twin and hash(node) == hash(twin)
        assert pickle.loads(pickle.dumps(node)) == node
        assert dataclasses.replace(node, seq=s2) == row.cls(s2, *kids[: row.arity])
        for name in names + ("extra",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, s2)


def test_derivation_eq_and_hash_without_recursion():
    s = Sequent(fset(p), fset(p))

    def chain(leaf):
        d = leaf
        for _ in range(5000):
            d = WL(s, d)
        return d

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a, b, c = chain(Init(s)), chain(Init(s)), chain(BotL(s))
        assert "_hash" not in vars(a)  # nothing is hashed when a tree is built
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert a != c and not a == c
        assert a != WR(s, a.sub)
        assert len({a, b, c}) == 2
    finally:
        sys.setrecursionlimit(limit)


#: Builds ``values``: a few formulas and a seeded derivation, the same in every process.
_BUILD_VALUES = """
from craigseq.calculus import root
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Not, Or
from craigseq.oracle import GenConfig, gen_derivation
d = gen_derivation(GenConfig(40, 3, 7, True))
a, b = Atom(0, (1, 0)), Atom(2)
values = [BOT, TOP, a, Or(Not(a), b), FAll(FEx(And(a, b))), *root(d).antecedent, *root(d).succedent, d]
"""

#: Run in another process: loads the pickled values from stdin and compares
#: them with fresh copies; argv[1] is the parent's hash of a string.
_CHECK_LOADED = """
import pickle, sys
loaded = pickle.load(sys.stdin.buffer)
assert hash("craigseq") != int(sys.argv[1]), "the child must hash strings differently"
assert len(loaded) == len(values)
fresh = {v: v for v in values}
kept = {v: v for v in loaded}
for old, new in zip(loaded, values):
    assert old._hash is not None  # the pickle carried the hash
    assert hash(old) == hash(new) and old == new and new == old
    assert fresh[old] == old and kept[new] == new
"""


def test_pickled_hashes_hold_in_a_process_with_another_hash_seed():
    ns: dict = {}
    exec(_BUILD_VALUES, ns)
    values = ns["values"]
    for v in values:
        hash(v)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(craigseq.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", _BUILD_VALUES + _CHECK_LOADED, str(hash("craigseq"))],
        input=pickle.dumps(values),
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        check=True,
    )


def test_derivation_repr_without_recursion():
    s = Sequent(fset(p), fset(p))
    d = Init(s)
    for _ in range(5000):
        d = WL(s, d)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = repr(d)
    finally:
        sys.setrecursionlimit(limit)
    assert text == f"WL(seq={s!r}, sub=" * 5000 + f"Init(seq={s!r})" + ")" * 5000


def test_same_shape_rules_differ():
    s = Sequent(fset(p), fset(p))
    x, y = Init(s), TopR(s)
    assert Init(s) != BotL(s)
    assert AndL(s, x) != WL(s, x)
    assert AndR(s, x, y) != OrL(s, x, y)
    assert repr(WL(s, x)) == f"WL(seq={s!r}, sub={x!r})"
    match AndR(s, x, y):
        case OrL():
            assert False
        case AndR(seq, left, right):
            assert (seq, left, right) == (s, x, y)


# ------------------------------------------------------------- resolve_rule

def test_resolve_init():
    inst_ = resolve_rule(Init(Sequent(fset(p, q), fset(q))))
    assert inst_ is not None and inst_.kind == "Init" and inst_.analysed == q
    assert resolve_rule(Init(Sequent(fset(p), fset(q)))) is None


def test_resolve_bot_top():
    assert resolve_rule(BotL(Sequent(fset(BOT, p), fset()))).kind == "BotL"
    assert resolve_rule(BotL(Sequent(fset(p), fset()))) is None
    assert resolve_rule(TopR(Sequent(fset(), fset(TOP)))).kind == "TopR"
    assert resolve_rule(TopR(Sequent(fset(), fset(p)))) is None


def test_resolve_andl():
    d = AndL(
        Sequent(fset(And(p, q)), fset(p)),
        Init(Sequent(fset(p, q, And(p, q)), fset(p))),
    )
    inst_ = resolve_rule(d)
    assert inst_.kind == "AndL"
    assert inst_.analysed == And(p, q)
    assert inst_.eigen is None and inst_.term is None


def test_resolve_andr_orl():
    s = Sequent(fset(p, q), fset(And(p, q)))
    d = AndR(s, Init(Sequent(fset(p, q), fset(And(p, q), p))), Init(Sequent(fset(p, q), fset(And(p, q), q))))
    assert resolve_rule(d).analysed == And(p, q)
    s2 = Sequent(fset(Or(p, q)), fset(p, q))
    d2 = OrL(s2, Init(Sequent(fset(Or(p, q), p), fset(p, q))), Init(Sequent(fset(Or(p, q), q), fset(p, q))))
    assert resolve_rule(d2).analysed == Or(p, q)
    # premises swapped: the sides no longer line up
    d3 = OrL(s2, Init(Sequent(fset(Or(p, q), q), fset(p, q))), Init(Sequent(fset(Or(p, q), p), fset(p, q))))
    assert resolve_rule(d3) is None


def test_resolve_not_rules():
    d = NotL(Sequent(fset(Not(p)), fset()), Init(Sequent(fset(Not(p)), fset(p))))
    assert resolve_rule(d).analysed == Not(p)
    d2 = NotR(Sequent(fset(), fset(Not(p))), Init(Sequent(fset(p), fset(Not(p)))))
    assert resolve_rule(d2).analysed == Not(p)


def test_resolve_alll_term():
    quant = FAll(Atom(0, (0,)))
    e = Atom(0, (1,))
    d = AllL(Sequent(fset(quant), fset(e)), Init(Sequent(fset(e, quant), fset(e))))
    inst_ = resolve_rule(d)
    assert inst_.kind == "AllL"
    assert inst_.analysed == quant
    assert inst_.term == 1
    assert inst_.eigen is None


def test_resolve_exr_term():
    e = Atom(0, (1,))
    quant = bind("ex", 1, e)
    d = ExR(Sequent(fset(e), fset(quant)), Init(Sequent(fset(e), fset(quant, e))))
    inst_ = resolve_rule(d)
    assert inst_.kind == "ExR"
    assert inst_.term == 1


def test_resolve_allr_eigen():
    quant = FAll(Atom(0, (0,)))
    body = Atom(0, (0,))
    d = AllR(Sequent(fset(quant), fset(quant)), Init(Sequent(fset(quant), fset(quant, body))))
    inst_ = resolve_rule(d)
    assert inst_.kind == "AllR"
    assert inst_.analysed == quant
    assert inst_.eigen == 0
    assert inst_.term is None


def test_resolve_allr_eigen_occurs_free():
    # the only candidate eigenvariable occurs free in the conclusion
    quant = FAll(Atom(0, (0,)))
    other = Atom(1, (0,))
    d = AllR(
        Sequent(fset(other), fset(quant)),
        Init(Sequent(fset(other), fset(quant, Atom(0, (0,))))),
    )
    assert resolve_rule(d) is None


def test_resolve_exl_eigen():
    quant = FEx(Atom(0, (0,)))
    body = Atom(0, (0,))
    d = ExL(Sequent(fset(quant), fset(quant)), ExR(Sequent(fset(body, quant), fset(quant)), Init(Sequent(fset(body, quant), fset(quant, body)))))
    inst_ = resolve_rule(d)
    assert inst_.kind == "ExL"
    assert inst_.eigen == 0


def test_resolve_weakening():
    d = WL(Sequent(fset(p, q), fset(r)), Init(Sequent(fset(q), fset(r))))
    assert resolve_rule(d).analysed == p
    # premise antecedent is not a subset of the conclusion antecedent
    d0 = WL(Sequent(fset(p, q), fset(r)), Init(Sequent(fset(r), fset(r))))
    assert resolve_rule(d0) is None
    d2 = WL(Sequent(fset(p, r), fset(r)), Init(Sequent(fset(r), fset(r))))
    assert resolve_rule(d2).analysed == p
    # weakening in a formula that the premise already contains
    d3 = WL(Sequent(fset(p), fset(p)), Init(Sequent(fset(p), fset(p))))
    assert resolve_rule(d3).analysed == p
    d4 = WR(Sequent(fset(p), fset(p, q)), Init(Sequent(fset(p), fset(p))))
    assert resolve_rule(d4).analysed == q
    d5 = WR(Sequent(fset(p), fset(q)), Init(Sequent(fset(p), fset(p))))
    assert resolve_rule(d5) is None


def _rule_digest_lines(d):
    """One line per node of ``d``, rule and choice of premises of that rule's
    arity: the rule instance ``resolve_rule`` finds for the node relabelled
    to that rule.  The premises are the node's own, the node's conclusion
    standing for each premise, and each premise's premise standing for all."""
    stack = [d]
    while stack:
        node = stack.pop()
        seq, subs = root(node), premises(node)
        tries = [subs, (Init(seq),) * len(subs)] if subs else [subs]
        tries += [(g,) * len(subs) for sub in subs for g in premises(sub)]
        for row in RULES.values():
            for ps in tries:
                if row.arity == len(ps):
                    r = resolve_rule(row.cls(seq, *ps))
                    yield repr(None if r is None else (
                        r.kind,
                        None if r.analysed is None else canonical_key(r.analysed),
                        r.eigen,
                        r.term,
                        tuple(canonical_key(f) for f in r.adds),
                    ))
        stack.extend(subs)


RESOLVE_DIGEST_SHA256 = "54446fd629fb682a4aca95aba9ee3e41a2e82a0a41ef3b780c59b0b6461e8ed4"


def test_resolve_rule_digest():
    # Pins resolve_rule's answers, None included, on 60-node derivations with
    # quantifiers off and on and on their witnesses: about 193,000 answers.
    h = hashlib.sha256()
    for seed in range(20):
        for quant in (False, True):
            d = gen_derivation(GenConfig(max_nodes=60, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=quant))
            res = interpolate_strong(d, random_split(root(d), seed))
            for tree in (d, res.left_witness, res.right_witness):
                for line in _rule_digest_lines(tree):
                    h.update(line.encode())
                    h.update(b"\n")
    assert h.hexdigest() == RESOLVE_DIGEST_SHA256


def _rebuilt(d):
    """``d`` with each formula occurrence of each sequent built anew, so that
    no two occurrences share an object, nor any occurrence one of ``d``'s."""
    seq = Sequent(*(FormulaSet(parse_formula(print_formula(f)) for f in fs) for fs in root(d)))
    return type(d)(seq, *map(_rebuilt, premises(d)))


def test_resolve_rule_answers_do_not_rest_on_shared_objects():
    # Shared formulas let _find and _extra compare keys by identity; built
    # anew, the same formulas take the equality test on every key instead.
    for seed in range(6):
        d = gen_derivation(GenConfig(max_nodes=60, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=True))
        res = interpolate_strong(d, random_split(root(d), seed))
        for tree in (d, res.left_witness, res.right_witness):
            copy = _rebuilt(tree)
            assert copy == tree
            assert is_wellformed(copy) and is_wellformed(tree)
            assert list(_rule_digest_lines(copy)) == list(_rule_digest_lines(tree))


def test_resolve_rule_deterministic():
    d = AndL(
        Sequent(fset(And(p, q), And(q, p)), fset(p, q)),
        Init(Sequent(fset(And(p, q), And(q, p), p, q), fset(p, q))),
    )
    first = resolve_rule(d)
    second = resolve_rule(d)
    assert first == second
    assert first.analysed == And(p, q)  # canonically first candidate wins


# ------------------------------------------------------------ is_wellformed

def test_is_wellformed_allr_clause():
    quant = bind("all", 0, Atom(0, (0,)))
    body = Atom(0, (0,))
    d = AllR(Sequent(fset(quant), fset(quant)), Init(Sequent(fset(quant), fset(quant, body))))
    assert is_wellformed(d)


def test_is_wellformed_counterexamples():
    assert not is_wellformed(Init(Sequent(fset(p), fset(q))))
    assert not is_wellformed(
        AndL(Sequent(fset(And(p, q)), fset(p)), Init(Sequent(fset(p, q), fset(p))))
    )
    quant = FAll(Atom(0, (0,)))
    bad_eigen = AllR(
        Sequent(fset(Atom(1, (0,))), fset(quant)),
        Init(Sequent(fset(Atom(1, (0,))), fset(quant, Atom(0, (0,))))),
    )
    assert not is_wellformed(bad_eigen)


def test_is_wellformed_weakening_chain():
    d = WR(
        Sequent(fset(BOT), fset(p, q)),
        WL(Sequent(fset(BOT), fset(p)), BotL(Sequent(fset(BOT), fset(p)))),
    )
    assert is_wellformed(d)
    d2 = WR(
        Sequent(fset(BOT), fset(p)),
        BotL(Sequent(fset(p), fset())),
    )
    assert not is_wellformed(d2)  # inner BotL node has no falsum


def test_is_wellformed_stops_at_a_bad_leaf_without_recursion():
    s = Sequent(fset(p), fset(q))
    d = Init(s)  # no rule justifies P0() ⊢ P1()
    for _ in range(5000):
        d = WL(s, d)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert not is_wellformed(d)
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=200)
@given(derivations())
def test_is_wellformed_agrees_with_brute_force(d):
    assert is_wellformed(d) == brute_is_deriv(d)


def test_generated_corpus_agrees_with_brute_force():
    for seed in range(150):
        cfg = GenConfig(max_nodes=5, max_pred=2, seed=seed, allow_quantifiers=seed % 2 == 1)
        d = gen_derivation(cfg)
        assert is_wellformed(d)
        assert brute_is_deriv(d)
