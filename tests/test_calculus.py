"""Formula sets, sequents, derivations, and the rule checker."""
from __future__ import annotations

import base64
import copy
import dataclasses
import hashlib
import os
import pickle
import random
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
    D,
    G,
    _adds,
    _extra,
    _plus,
    fset,
    is_wellformed,
    premises,
    resolve_rule,
    root,
    size,
)
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Formula, Not, Or, bind, canonical_key
from craigseq.interpolation import InterpolationResult, interpolate_strong, verify
from craigseq.oracle import GenConfig, SplitMix64, _random_formula, gen_derivation, random_split
from craigseq.syntax import ProblemFile, parse_formula, parse_problem, print_derivation, print_formula, print_problem
from support import brute_is_deriv, derivations, formula_sets, formulas, recursion_limit

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


def test_formula_set_is_the_tuple_of_its_members():
    members = [p, q, r, And(p, q), Or(q, r), Not(r), FAll(Atom(0, (0,))), BOT, TOP]
    xs = members * 2
    random.Random(0).shuffle(xs)
    s = FormulaSet(xs)
    assert s == tuple(sorted(members, key=canonical_key))
    t = Atom(3)
    for made in (FormulaSet(), s.add(t), s.without(p), s | fset(t), fset(p, q)):
        assert type(made) is FormulaSet
    for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert type(back) is FormulaSet
        assert back == s
        assert [canonical_key(f) for f in back] == [canonical_key(f) for f in s]
    assert hash(s) == hash(tuple(s))
    assert [] not in s and 3 not in s


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


def _anew(f: Formula) -> Formula:
    """An equal formula built anew, with no canonical key kept yet (the
    constants ⊥ and ⊤ come back as themselves)."""
    g = parse_formula(print_formula(f))
    assert g is f or g._key is None
    return g


def test_formula_set_ops_agree_with_a_reference_dict():
    # Each probe is a member, a non-member, or either built anew, whose key a
    # set must compute before it bisects; a fresh probe serves one test only,
    # since the first test keeps its key.
    rng = SplitMix64(29)
    pool = [_random_formula(rng, 3) for _ in range(40)]
    pool += [FAll(Atom(0, (0,))), FEx(And(Atom(1, (0, 1)), Atom(2)))]
    fresh_members = 0
    for _ in range(150):
        s = FormulaSet(pool[rng.below(len(pool))] for _ in range(rng.below(12)))
        ref = {canonical_key(f): f for f in s}
        assert list(ref) == sorted(ref)
        for f in pool:
            key = canonical_key(f)
            member = key in ref
            fresh_members += member and _anew(f) is not f
            for probe in (f, _anew(f)):
                assert (probe in s) is member
            for probe in (f, _anew(f)):
                added = s.add(probe)
                assert type(added) is FormulaSet
                if member:  # the member object stays
                    assert added is s
                else:
                    want = {**ref, key: probe}
                    assert len(added) == len(want)
                    assert all(g is want[k] for g, k in zip(added, sorted(want)))
            for probe in (f, _anew(f)):
                removed = s.without(probe)
                assert type(removed) is FormulaSet
                if not member:
                    assert removed is s
                else:
                    rest = sorted(k for k in ref if k != key)
                    assert len(removed) == len(rest)
                    assert all(g is ref[k] for g, k in zip(removed, rest))
            other = FormulaSet([_anew(f)])
            union = s | other
            want = {key: other[0], **ref}  # on equal keys the left operand's formula stays
            assert type(union) is FormulaSet
            assert len(union) == len(want)
            assert all(g is want[k] for g, k in zip(union, sorted(want)))
    assert fresh_members > 100


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


def _drawn_set(rng: SplitMix64, pool: list[Formula], width: int) -> FormulaSet:
    """Up to ``width`` draws from ``pool``, about half of them built anew, so
    that a member and an equal formula elsewhere need not be one object."""
    drawn = (pool[rng.below(len(pool))] for _ in range(width))
    return FormulaSet(parse_formula(print_formula(f)) if rng.below(2) else f for f in drawn)


def _reference_extra(small: FormulaSet, big: FormulaSet) -> tuple[Formula, ...] | None:
    keys = {canonical_key(f) for f in small}
    if not keys <= {canonical_key(f) for f in big}:
        return None
    return tuple(f for f in big if canonical_key(f) not in keys)


def _same(got: tuple[Formula, ...] | None, want: tuple[Formula, ...] | None) -> bool:
    """Whether ``got`` is ``want``, down to the formula objects."""
    if got is None or want is None:
        return got is want
    return len(got) == len(want) and all(f is g for f, g in zip(got, want))


def test_extra_and_adds_agree_with_a_reference():
    rng = SplitMix64(11)
    pool = [_random_formula(rng, 3) for _ in range(12)]
    outcomes = set()
    for _ in range(300):
        small = _drawn_set(rng, pool, rng.below(6))
        big = _drawn_set(rng, pool, rng.below(8))
        if rng.below(2):  # a superset of small, whose own objects may differ from small's
            big = _plus(big, tuple(_drawn_set(rng, list(small), 2 * len(small))) + tuple(small))
        want = _reference_extra(small, big)
        outcomes.add(None if want is None else min(len(want), 2))
        assert _same(_extra(small, big), want), (small, big)
        other = _drawn_set(rng, pool, rng.below(4))
        rebuilt = FormulaSet(parse_formula(print_formula(f)) for f in other)  # equal, not one object
        changed = other.without(next(iter(other))) if other else fset(TOP)
        for side in (G, D):
            seq = Sequent(small, other) if side == G else Sequent(other, small)
            for opposite in (other, rebuilt):
                sub = Sequent(big, opposite) if side == G else Sequent(opposite, big)
                assert _same(_adds(seq, sub, side), want)
            sub = Sequent(big, changed) if side == G else Sequent(changed, big)
            assert _adds(seq, sub, side) is None
    assert outcomes == {None, 0, 1, 2}


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


def test_rule_nodes_keep_the_dataclass_contract():
    s = Sequent(fset(p), fset(p))
    kids = (Init(s), AndL(s, Init(s)))
    for row in RULES.values():
        node = row.cls(s, *kids[: row.arity])
        names = row.cls.__match_args__
        values = tuple(getattr(node, name) for name in names)
        assert row.cls(**dict(zip(names, values))) == node
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        for twin in (copy.copy(node), copy.deepcopy(node)):
            assert twin == node and type(twin) is row.cls
        if row.arity == 0:
            match node:
                case row.cls(seq):
                    bound = (seq,)
        elif row.arity == 1:
            match node:
                case row.cls(seq, sub):
                    bound = (seq, sub)
        else:
            match node:
                case row.cls(seq, left, right):
                    bound = (seq, left, right)
        assert len(bound) == len(values) and all(x is y for x, y in zip(bound, values))
        assert dataclasses.is_dataclass(row.cls) and dataclasses.is_dataclass(node)
        assert [f.name for f in dataclasses.fields(node)] == [f.name for f in dataclasses.fields(row.cls)]
        twin = dataclasses.replace(node)
        assert twin == node and twin is not node and type(twin) is row.cls
        # the node stores its premises once, and each named premise is a view of them
        assert node.premises is node.premises and len(node.premises) == row.arity
        other = BotL(s)
        for i, name in enumerate(names[1:]):
            assert getattr(node, name) is node.premises[i]
            assert dataclasses.replace(node, **{name: other}).premises[i] is other
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.premises = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.premises


def test_derivation_eq_and_hash_without_recursion():
    s = Sequent(fset(p), fset(p))

    def chain(leaf):
        d = leaf
        for _ in range(5000):
            d = WL(s, d)
        return d

    with recursion_limit(1000):
        a, b, c = chain(Init(s)), chain(Init(s)), chain(BotL(s))
        assert "_hash" not in vars(a)  # nothing is hashed when a tree is built
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert a != c and not a == c
        assert a != WR(s, a.sub)
        assert len({a, b, c}) == 2


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
#: them with fresh copies; argv[1] is the parent's hash of a string, and
#: argv[2:] are the parent's hashes of the values.
_CHECK_LOADED = """
import pickle, sys
loaded = pickle.load(sys.stdin.buffer)
assert hash("craigseq") != int(sys.argv[1]), "the child must hash strings differently"
assert len(loaded) == len(values)
assert not any("_hash" in vars(old) for old in loaded)  # the pickle carried no hash
fresh = {v: v for v in values}
kept = {v: v for v in loaded}
for old, new in zip(loaded, values):
    assert hash(old) == hash(new) and old == new and new == old
    assert fresh[old] == old and kept[new] == new
assert [hash(v) for v in loaded] == [int(h) for h in sys.argv[2:]]
"""


def test_pickled_hashes_hold_in_a_process_with_another_hash_seed():
    ns: dict = {}
    exec(_BUILD_VALUES, ns)
    values = ns["values"]
    hashes = [str(hash(v)) for v in values]
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(craigseq.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", _BUILD_VALUES + _CHECK_LOADED, str(hash("craigseq")), *hashes],
        input=pickle.dumps(values),
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        check=True,
    )


def test_every_operation_on_a_3200_node_derivation_and_its_result_at_the_default_recursion_limit():
    # The seed-1 derivation nests 2,956 deep and its left witness 3,423, and
    # the interpolant nests too: no operation may recurse once per level.
    d = gen_derivation(GenConfig(3200, max_pred=4, seed=1, allow_quantifiers=True))
    sp = random_split(root(d), 1)
    with recursion_limit(1000):
        res = interpolate_strong(d, sp)
        assert verify(sp, res).ok
        for x in (d, res.left_witness, res.right_witness):
            assert is_wellformed(x)
            assert print_derivation(x).startswith(f"({x.tag} [")
        # ``repr`` folds each formula again in every sequent: 20 s on ``d``,
        # 8 s on the right witness, which nests 1,856 deep.
        x = res.right_witness
        assert repr(x).startswith(f"{x.tag}(seq=Sequent(antecedent=FormulaSet([")
        shallow = (copy.copy(d), InterpolationResult(*map(copy.copy, res)))
        for twin_d, twin_res in (pickle.loads(pickle.dumps((d, res))), copy.deepcopy((d, res)), shallow):
            for twin, x in ((twin_d, d), *zip(twin_res, res)):
                assert twin is not x and type(twin) is type(x)
                assert twin == x and hash(twin) == hash(x)
            assert verify(sp, twin_res).ok
        assert interpolate_strong(twin_d, sp) == res


def _formula_objects(d) -> int:
    """The number of distinct formula objects in the sequents of ``d``, subformulas included."""
    seen: dict[int, Formula] = {}
    todo = [f for node in _nodes(d) for side in node.seq for f in side]
    while todo:
        f = todo.pop()
        if id(f) not in seen:
            seen[id(f)] = f
            todo += [getattr(f, name) for name in f._fields if isinstance(getattr(f, name), Formula)]
    return len(seen)


def _objects(value) -> int:
    """The number of distinct objects reached from ``value`` through the
    fields of nodes and the items of tuples, ``value`` included."""
    seen: dict[int, object] = {}
    todo = [value]
    while todo:
        v = todo.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            fields = getattr(v, "_fields", None)
            if fields is not None:
                todo += [getattr(v, name) for name in fields]
            elif isinstance(v, tuple):
                todo += v
    return len(seen)


def _parsed_problem_and_result():
    """The parsed seed-1 110-node problem's derivation and split, and its result."""
    d = gen_derivation(GenConfig(110, 4, 1, True))
    sp = random_split(root(d), 1)
    parsed = parse_problem(print_problem(ProblemFile(*sp, d))).derivation
    return parsed, sp, interpolate_strong(parsed, sp)


def test_pickles_and_copies_keep_shared_formulas_shared():
    # The reader gives a formula that recurs in many sequents one object, and
    # a pickle or deep copy gives each object below what it is given once:
    # the nodes, sequents, formula sets and formulas of a derivation, and of
    # all three trees of a result together.
    parsed, sp, res = _parsed_problem_and_result()
    assert _formula_objects(parsed) == 53
    assert (_objects(parsed), _objects(res)) == (392, 805)
    for other in (pickle.loads(pickle.dumps(parsed)), copy.copy(parsed), copy.deepcopy(parsed)):
        assert other == parsed and _formula_objects(other) == 53 and _objects(other) == 392
    for other in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
        assert other == res and _objects(other) == 805
    # a shallow copy is the constructor call on the node's own fields, and
    # holds the same three trees for a result
    shallow = copy.copy(parsed)
    assert shallow is not parsed and shallow.seq is parsed.seq
    assert all(a is b for a, b in zip(shallow.premises, parsed.premises, strict=True))
    shallow_res = copy.copy(res)
    assert type(shallow_res) is InterpolationResult and shallow_res is not res
    assert all(a is b for a, b in zip(shallow_res, res, strict=True))


def test_a_pickle_or_deep_copy_of_a_result_keeps_its_interpolant_in_the_left_witness():
    # The interpolant is one object with a formula of the left witness's root,
    # and stays so after a round trip, which flattens the three trees together.
    parsed, sp, res = _parsed_problem_and_result()

    def holds(r: InterpolationResult) -> bool:
        return any(f is r.interpolant for side in r.left_witness.seq for f in side)

    assert holds(res)
    for other in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
        assert other == res and verify(sp, other).ok
        assert holds(other)


#: ``pickle.dumps([d, split, result], protocol=4)`` as written before a pickle
#: was flat, when it was each node's constructor call on its fields:
#: ``d = gen_derivation(GenConfig(8, 3, 2, True))``,
#: ``split = random_split(root(d), 2)`` and
#: ``result = interpolate_strong(d, split)``.
_CONSTRUCTOR_CALL_PICKLE = base64.b64decode(
    """
gASV2wIAAAAAAABdlCiMEWNyYWlnc2VxLmNhbGN1bHVzlIwDRXhSlJOUaAGMB1NlcXVlbnSUk5Ro
AYwKRm9ybXVsYVNldJSTlCmFlIGUaAeMEWNyYWlnc2VxLmZvcm11bGFzlIwDTm90lJOUaAqMA0Jv
dJSTlClSlIWUUpRoDGgKjANUb3CUk5QpUpSFlFKUaAqMA0ZFeJSTlGgKjARBdG9tlJOUSwJLAIWU
hpRSlIWUUpSHlIWUgZSGlIGUaAGMAldSlJOUaAVoCWgHKGgaSwJLAIWUhpRSlGgRaBZoH3SUhZSB
lIaUgZRoJmgFaAloB2gpaBFoFoeUhZSBlIaUgZRoJmgFaAloB2gRaBaGlIWUgZSGlIGUaAGMBE5v
dFKUk5RoBWgJaAdoEYWUhZSBlIaUgZRoJmgFaAdoD4WUhZSBlGg9hpSBlGgBjARCb3RMlJOUaAVo
QmgHKYWUgZSGlIGUhZRSlIaUUpSGlFKUhpRSlIaUUpSGlFKUhpRSlIwWY3JhaWdzZXEuaW50ZXJw
b2xhdGlvbpSMDFNwbGl0U2VxdWVudJSTlChoBymFlIGUaAcphZSBlGgHaBZoH4aUhZSBlGgHaBFo
FoaUhZSBlHSUgZRoWYwTSW50ZXJwb2xhdGlvblJlc3VsdJSTlGgUaANoBWhdaAdoFGgWaB+HlIWU
gZSGlIGUaCZoBWhdaAcoaCloFGgWaB90lIWUgZSGlIGUaCZoBWhdaAdoKWgUaBaHlIWUgZSGlIGU
aCZoBWhdaAdoFGgWhpSFlIGUhpSBlGgBjARUb3BSlJOUaAVoXWgHaBSFlIWUgZSGlIGUhZRSlIaU
UpSGlFKUhpRSlIaUUpRoJmgFaAdoFIWUhZSBlGhlhpSBlGg6aAVokWgHaBGFlIWUgZSGlIGUaCZo
BWgHaA9oFIaUhZSBlGiWhpSBlGhGaAVom2gHKYWUgZSGlIGUhZRSlIaUUpSGlFKUhpRSlIeUgZRl
Lg==
"""
)


#: ``pickle.dumps(tuple(pickle.dumps(x, protocol=4) for x in (d, f, result)), protocol=4)``
#: as written when each node pickled as a flat tuple of its own, its shapes
#: split by per-class hooks: ``d``, ``split`` and ``result`` as above, and
#: ``f = FEx(Atom(2, (0,)))``, a formula of ``root(d)``.
_PER_NODE_FLAT_PICKLES = base64.b64decode(
    """
gASVogMAAAAAAABCVAEAAIAElUkBAAAAAAAAjBFjcmFpZ3NlcS5mb3JtdWxhc5SMCF9yZWJ1aWxk
lJOUKGgAjANCb3SUk5QpKYeUjBFjcmFpZ3NlcS5jYWxjdWx1c5SMBEJvdEyUk5RLAUsAhpRLAIWU
h5RoAIwDTm90lJOUKUsAhZSHlGgGjAJXUpSTlEsBSwGGlEsASwJLAYeUh5RoBowETm90UpSTlEsA
SwGGlEsCSwOGlIeUaACMA1RvcJSTlCkph5RoDSlLBYWUh5RoEUsASwKGlEsCSwZLBIeUh5RoAIwE
QXRvbZSTlEsCSwCFlIaUKYeUaBFLAEsDhpQoSwhLAksGSwd0lIeUaCNLAksAhZSGlCmHlGgAjANG
RXiUk5QpSwqFlIeUaBFLAEsEhpQoSwhLAksGSwtLCXSUh5RoBowDRXhSlJOUSwBLA4aUKEsCSwZL
C0sMdJSHlHSUhZRSlC6UQ1qABJVPAAAAAAAAAIwRY3JhaWdzZXEuZm9ybXVsYXOUjAhfcmVidWls
ZJSTlGgAjARBdG9tlJOUSwJLAIWUhpQph5RoAIwDRkV4lJOUKUsAhZSHlIaUhZRSlC6UQuIBAACA
BJXXAQAAAAAAAIwWY3JhaWdzZXEuaW50ZXJwb2xhdGlvbpSME0ludGVycG9sYXRpb25SZXN1bHSU
k5SMEWNyYWlnc2VxLmZvcm11bGFzlIwIX3JlYnVpbGSUk5RoA4wDVG9wlJOUKSmHlIWUhZRSlGgF
KGgHKSmHlIwRY3JhaWdzZXEuY2FsY3VsdXOUjARUb3BSlJOUSwBLAYaUSwCFlIeUaAOMA05vdJST
lClLAIWUh5RoDYwCV1KUk5RLAEsChpRLAEsCSwGHlIeUaAOMBEF0b22Uk5RLAksAhZSGlCmHlGgY
SwBLA4aUKEsESwBLAksDdJSHlGgdSwJLAIWUhpQph5RoA4wDRkV4lJOUKUsGhZSHlGgYSwBLBIaU
KEsESwBLAksHSwV0lIeUaA2MA0V4UpSTlEsASwOGlChLAEsCSwdLCHSUh5R0lIWUUpRoBShoBykp
h5RoA4wDQm90lJOUKSmHlGgNjARCb3RMlJOUSwJLAIaUSwFLAIaUh5RoFClLAYWUh5RoGEsCSwGG
lChLAUsASwNLAnSUh5RoDYwETm90UpSTlEsBSwGGlEsASwNLBIeUh5RoFClLAIWUh5RoGEsBSwKG
lChLAEsDSwZLBXSUh5R0lIWUUpSHlIGULpSHlC4=
"""
)


def test_pickles_of_the_per_node_flat_format_load_equal_or_raise():
    # Their entries have the shape that ``_rebuild`` reads today, but a
    # derivation's entry then kept the sizes of its sides and named their
    # members: no such pickle may load to a wrong value.
    d = gen_derivation(GenConfig(8, 3, 2, True))
    res = interpolate_strong(d, random_split(root(d), 2))
    f = FEx(Atom(2, (0,)))
    assert f in root(d).antecedent or f in root(d).succedent
    loaded = []
    for data, value in zip(pickle.loads(_PER_NODE_FLAT_PICKLES), (d, f, res), strict=True):
        assert b"_rebuild" in data
        try:
            loaded.append(pickle.loads(data))
        except TypeError:
            continue
        assert loaded[-1] == value
    assert f in loaded  # a formula's entries are unchanged


def test_pickles_of_the_constructor_call_format_still_load():
    assert b"_rebuild" not in _CONSTRUCTOR_CALL_PICKLE
    d = gen_derivation(GenConfig(8, 3, 2, True))
    sp = random_split(root(d), 2)
    res = interpolate_strong(d, sp)
    loaded = pickle.loads(_CONSTRUCTOR_CALL_PICKLE)
    assert loaded == [d, sp, res]
    old_d, old_sp, old_res = loaded
    for node in _nodes(old_d):
        assert set(vars(node)) == ({"seq", "premises"} if node.premises else {"seq"})
    assert is_wellformed(old_d) and verify(old_sp, old_res).ok
    assert interpolate_strong(old_d, old_sp) == res
    # written again, it is in the flat format and loads to the same value
    again = pickle.dumps(loaded)
    assert b"_rebuild" in again and pickle.loads(again) == loaded


def test_derivation_repr_without_recursion():
    s = Sequent(fset(p), fset(p))
    d = Init(s)
    for _ in range(5000):
        d = WL(s, d)
    with recursion_limit(1000):
        text = repr(d)
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


def _nodes(d):
    """The nodes of ``d``, each once."""
    out, stack = [], [d]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += premises(node)
    return out


def test_pickles_and_copies_leave_out_the_kept_rule():
    # The interpolator keeps each node's rule instance on the node; a pickle
    # or a copy carries none, so what it gives is resolved afresh.
    d = gen_derivation(GenConfig(40, 3, 7, True))
    # The checker keeps no rule instance; the free variables it asks of the
    # sequents are kept on their formulas, so it runs before the first pickle.
    assert is_wellformed(d)
    nodes = _nodes(d)
    assert not any("_rule" in vars(node) for node in nodes)
    before = pickle.dumps(d)
    interpolate_strong(d, random_split(root(d), 7))
    assert all("_rule" in vars(node) for node in nodes)
    assert pickle.dumps(d) == before
    for node in nodes:
        for other in (copy.copy(node), dataclasses.replace(node)):
            assert other == node and "_rule" not in vars(other)
    for other in (copy.deepcopy(d), pickle.loads(before)):
        assert other == d
        assert not any("_rule" in vars(node) for node in _nodes(other))
    # A forged hash and rule travel with neither: a pickle or copy holds only
    # the node's fields and hashes afresh.
    leaf = next(node for node in nodes if not node.premises)
    for fresh in (d, leaf):
        forged = type(fresh)(*(getattr(fresh, name) for name in fresh._fields))
        object.__setattr__(forged, "_hash", 12345)
        object.__setattr__(forged, "_rule", None)
        assert hash(forged) == 12345 and hash(fresh) != 12345
        fields = {"seq", "premises"} if fresh.premises else {"seq"}
        for other in (pickle.loads(pickle.dumps(forged)), copy.copy(forged), copy.deepcopy(forged)):
            assert set(vars(other)) == fields
            assert hash(other) == hash(fresh) and other in {fresh}


# ------------------------------------------------------------- resolve_rule

def test_resolve_init():
    inst_ = resolve_rule(Init(Sequent(fset(p, q), fset(q))))
    assert inst_ is not None and inst_.kind == "Init" and inst_.analysed == q
    assert resolve_rule(Init(Sequent(fset(p), fset(q)))) is None


def test_resolve_rule_rejects_a_value_that_is_not_a_derivation():
    with pytest.raises(TypeError, match="^not a derivation: "):
        resolve_rule(object())


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
    # Shared formulas let membership and _extra compare keys by identity; built
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
    with recursion_limit(1000):
        assert not is_wellformed(d)


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
