"""Formula operations: renaming, binding, free variables, polarity, order."""
from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from craigseq.calculus import FormulaSet, fset
from craigseq.formulas import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    FAll,
    FEx,
    Formula,
    Not,
    Or,
    Top,
    Polarity,
    bind,
    canonical_key,
    free_vars,
    inst,
    match_bind,
    match_inst,
    neg,
    polarity,
    pos,
    pre_suc,
    rename_vars,
)
from craigseq.interpolation import simplify_bool
from craigseq.oracle import SplitMix64, atom_keys, eval_formula
from craigseq.syntax import print_formula
from support import formulas, recursion_limit, sample_formula

quantified = st.one_of(
    formulas().map(FAll),
    formulas().map(FEx),
)


def test_rename_vars_shifts_under_binders():
    assert rename_vars(lambda v: v + 1, FAll(Atom(0, (0, 1)))) == FAll(Atom(0, (0, 2)))
    assert rename_vars(lambda v: v + 1, Atom(0, (0, 1))) == Atom(0, (1, 2))
    assert rename_vars(lambda v: v, FEx(And(Atom(0, (0,)), BOT))) == FEx(And(Atom(0, (0,)), BOT))


@given(formulas(), st.integers(0, 3), st.integers(0, 3))
def test_rename_vars_composes(f, a, b):
    s1 = lambda v: v + a
    s2 = lambda v: v * 2 + b
    assert rename_vars(s2, rename_vars(s1, f)) == rename_vars(lambda v: s2(s1(v)), f)


def test_bind_examples():
    assert bind("all", 5, Atom(0, (5, 3))) == FAll(Atom(0, (0, 4)))
    assert bind("ex", 5, Atom(0, (5, 3))) == FEx(Atom(0, (0, 4)))
    assert bind("all", 2, Atom(0)) == FAll(Atom(0))


def test_inst_examples():
    assert inst("all", 7, FAll(Atom(0, (0, 4)))) == Atom(0, (7, 3))
    assert inst("ex", 7, FEx(Atom(0, (0, 4)))) == Atom(0, (7, 3))
    with pytest.raises(ValueError):
        inst("all", 0, Atom(0))
    with pytest.raises(ValueError):
        inst("all", 0, FEx(Atom(0)))
    with pytest.raises(ValueError):
        inst("ex", 0, FAll(Atom(0)))


def test_inst_under_nested_binder():
    # substitution for the outer index must be shifted under the inner binder
    f = FAll(FAll(Atom(0, (0, 1, 2))))
    assert inst("all", 9, f) == FAll(Atom(0, (0, 10, 1)))


def test_pre_suc():
    assert pre_suc([0, 1, 3, 0, 2]) == [0, 2, 1]
    assert pre_suc([]) == []
    assert pre_suc([0, 0]) == []


def test_free_vars_examples():
    assert free_vars(FAll(Atom(0, (0, 2, 1)))) == [1, 0]
    assert free_vars(And(Atom(0, (1,)), Atom(1, (1,)))) == [1, 1]
    assert free_vars(Not(Atom(2, (4, 4)))) == [4, 4]
    assert free_vars(BOT) == []
    assert free_vars(TOP) == []
    assert free_vars(FEx(Atom(0, (0,)))) == []


@given(formulas(), st.sampled_from(["all", "ex"]), st.integers(0, 4))
def test_bind_then_inst_roundtrip(f, q, a):
    assert inst(q, a, bind(q, a, f)) == f


@given(formulas(), st.sampled_from(["all", "ex"]), st.integers(0, 4))
def test_bound_variable_not_free(f, q, a):
    assert a not in free_vars(bind(q, a, f))


@given(formulas(), st.sampled_from(["all", "ex"]), st.integers(0, 4))
def test_bind_keeps_the_free_variables_a_walk_finds(f, q, a):
    b = bind(q, a, f)
    assert b._fv is not None  # kept when built, not walked for later
    assert b._fv == tuple(free_vars(_copy(b)))


@given(quantified, st.integers(0, 4))
def test_inst_then_bind_roundtrip(f, a):
    q = "all" if isinstance(f, FAll) else "ex"
    if a not in free_vars(f):
        assert bind(q, a, inst(q, a, f)) == f


def test_polarity_examples():
    assert polarity(Atom(3)) == Polarity(frozenset({3}), frozenset())
    assert polarity(BOT) == Polarity(frozenset(), frozenset())
    assert polarity(TOP) == Polarity(frozenset(), frozenset())
    assert polarity(Not(Atom(3))) == Polarity(frozenset(), frozenset({3}))
    assert polarity(Not(And(Atom(0), Not(Atom(1))))) == Polarity(frozenset({1}), frozenset({0}))
    assert polarity(Or(Atom(0), Not(Atom(0)))) == Polarity(frozenset({0}), frozenset({0}))
    assert polarity(FAll(Atom(2, (0,)))) == Polarity(frozenset({2}), frozenset())


def test_polarity_conflates_arities():
    # the same predicate id at different arities is one entry
    assert pos(And(Atom(1), Atom(1, (0,)))) == frozenset({1})


@given(formulas())
def test_polarity_negation_swaps(f):
    assert pos(Not(f)) == neg(f)
    assert neg(Not(f)) == pos(f)


@given(quantified, st.integers(0, 4))
def test_polarity_stable_under_inst(f, t):
    q = "all" if isinstance(f, FAll) else "ex"
    assert polarity(inst(q, t, f)) == polarity(f)


def test_canonical_tag_order():
    chain = [
        Atom(99, (9, 9)),
        BOT,
        TOP,
        And(BOT, BOT),
        Or(BOT, BOT),
        Not(BOT),
        FAll(BOT),
        FEx(BOT),
    ]
    for i in range(len(chain) - 1):
        assert canonical_key(chain[i]) < canonical_key(chain[i + 1])
        assert not canonical_key(chain[i + 1]) < canonical_key(chain[i])


def test_canonical_compare_equality():
    assert canonical_key(And(Atom(0), TOP)) == canonical_key(And(Atom(0), TOP))
    assert canonical_key(Atom(0)) != canonical_key(Atom(0, (0,)))


def test_canonical_sort_dedup():
    assert tuple(FormulaSet([TOP, BOT, BOT])) == (BOT, TOP)


@given(formulas(), formulas())
def test_canonical_compare_agrees_with_equality(a, b):
    ka, kb = canonical_key(a), canonical_key(b)
    assert (ka == kb) == (a == b)
    assert not (ka < kb and kb < ka)
    assert (ka < kb) or (kb < ka) or (ka == kb)


def test_match_inst_examples():
    assert match_inst(FAll(Atom(0, (0, 4))), Atom(0, (7, 3))) == 7
    assert match_inst(FEx(Atom(0, (0, 4))), Atom(0, (7, 3))) == 7
    # vacuous binder: every variable works, the smallest is returned
    assert match_inst(FAll(Atom(0, (1,))), Atom(0, (0,))) == 0
    assert match_inst(FAll(Atom(0, (0,))), Atom(1, (2,))) is None
    # every occurrence of the bound index must open to the same variable
    assert match_inst(FAll(And(Atom(0, (0,)), Atom(0, (0,)))), And(Atom(0, (1,)), Atom(0, (2,)))) is None
    assert match_inst(FAll(And(Atom(0, (0,)), Atom(0, (0,)))), And(Atom(0, (1,)), Atom(0, (1,)))) == 1
    assert match_inst(Atom(0), Atom(0)) is None
    # a constant equal to its counterpart but another object: BOT is a singleton, Bot() a fresh copy
    assert match_inst(FAll(And(Atom(0, (0,)), BOT)), And(Atom(0, (3,)), Bot())) == 3
    assert match_inst(FAll(And(Atom(0, (0,)), BOT)), And(Atom(0, (3,)), TOP)) is None


def test_match_bind_examples():
    assert match_bind(FAll(Atom(0, (0, 4))), Atom(0, (7, 3)), {3}) == 7
    assert match_bind(FAll(Atom(0, (0, 4))), Atom(0, (7, 3)), {7}) is None
    # vacuous binder: smallest variable outside forbidden and the body
    assert match_bind(FAll(Atom(0)), Atom(0), {0, 1}) == 2
    assert match_bind(FEx(Atom(0, (0,))), Atom(0, (5,)), set()) == 5
    # a variable of the body that stays free cannot be the bound one
    assert match_bind(FAll(And(Atom(0, (0,)), Atom(0, (2,)))), And(Atom(0, (1,)), Atom(0, (1,))), set()) is None
    assert match_bind(Atom(0), Atom(0), set()) is None
    # a constant equal to its counterpart but another object
    assert match_bind(FAll(And(Atom(0, (0,)), BOT)), And(Atom(0, (3,)), Bot()), set()) == 3


def _renamed_one(x: int, y: int, f: Formula) -> Formula:
    """``f`` with the free variable ``x`` renamed to ``y``: a near miss."""
    return rename_vars(lambda v: y if v == x else v, f)


def _sharing(head: type[Formula], f: Formula, pick: int, x: int, y: int, cached: bool) -> tuple[Formula, Formula]:
    """A quantified formula and a formula that shares an object with its
    body, for picks 4 to 6: the body ``f`` itself; a junction of the ``y``-th
    subformula of ``f`` and the bound index opened at ``x``; or, below one
    more binder, a junction of the two the other way round, so that the walk
    meets the bound index first.  The shared object is built afresh, and its
    free variables are cached exactly when ``cached`` is true."""
    body = _copy(f)
    subs = [g for _, g, _ in _paths(body)]
    shared = body if pick == 4 else subs[y % len(subs)]
    if cached:
        free_vars(shared)
    assert (shared._fv is not None) == cached
    if pick == 4:
        return head(body), body
    if pick == 5:
        return head(And(shared, Atom(0, (0,)))), And(shared, Atom(0, (x,)))
    return head(FAll(And(Atom(0, (1,)), shared))), FAll(And(Atom(0, (x + 1,)), shared))


@given(
    quantified,
    st.integers(0, 4),
    formulas(),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 6),
    st.booleans(),
)
# the shared object's free variables: above the binder (the body itself is
# no instance, not one at 0), the bound index (which fixes the term to 0,
# against x = 1), and the bound index below one more binder
@example(FAll(Atom(0, (1,))), 0, BOT, 0, 0, 4, False)
@example(FAll(Atom(0, (0,))), 0, BOT, 0, 0, 4, True)
@example(FAll(Atom(0, (0,))), 0, BOT, 1, 0, 5, False)
@example(FAll(Atom(0, (1,))), 0, BOT, 1, 0, 6, True)
def test_match_inst_agrees_with_brute_force(f, t, other, x, y, pick, cached):
    # an instance, a near miss, an unrelated formula, or the body opened at t
    # beside a bound occurrence opened at x; or, sharing an object with the
    # body, with its free variables cached or not, one of _sharing's picks
    q = "all" if isinstance(f, FAll) else "ex"
    if pick < 4:
        e = inst(q, t, f)
        e = (e, _renamed_one(x, y, e), other, And(e, Atom(0, (x,))))[pick]
        if pick == 3:
            f = type(f)(And(f.body, Atom(0, (0,))))
    else:
        f, e = _sharing(type(f), f.body, pick, x, y, cached)
    got = match_inst(f, e)  # before the brute force caches free variables
    brute = next((s for s in range(max(free_vars(e), default=-1) + 2) if inst(q, s, f) == e), None)
    assert got == brute
    if pick == 0:
        assert brute is not None


@given(formulas(), st.sampled_from(["all", "ex"]), st.integers(0, 4))
def test_match_bind_recovers_binding(f, q, a):
    quant = bind(q, a, f)
    got = match_bind(quant, f, set())
    assert got is not None
    assert bind(q, got, f) == quant
    if a in free_vars(f):
        assert got == a


def _brute_match_bind(quant: Formula, body: Formula, forbidden: set[int]) -> int | None:
    q = "all" if isinstance(quant, FAll) else "ex"
    limit = max(forbidden | set(free_vars(body)), default=-1) + 2
    return next((a for a in range(limit) if a not in forbidden and bind(q, a, body) == quant), None)


@given(
    formulas(),
    quantified,
    st.sampled_from(["all", "ex"]),
    st.integers(0, 4),
    st.frozensets(st.integers(0, 5), max_size=3),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 6),
    st.booleans(),
)
@example(Atom(0, (1,)), BOT, "all", 0, frozenset(), 0, 0, 4, False)
@example(Atom(0, (0,)), BOT, "ex", 0, frozenset(), 0, 0, 4, True)
@example(Atom(0, (0,)), BOT, "all", 0, frozenset(), 1, 0, 5, False)
@example(Atom(0, (1,)), BOT, "ex", 0, frozenset(), 1, 0, 6, True)
def test_match_bind_agrees_with_brute_force(f, other, q, a, forbidden, x, y, pick, cached):
    # a binding (vacuous when a is not free in f), an explicitly vacuous
    # binder, a near miss, or an unrelated quantified formula; or, sharing an
    # object with the body, with its free variables cached or not, one of
    # _sharing's picks
    head = FAll if q == "all" else FEx
    if pick < 4:
        quant, body = (
            (bind(q, a, f), f),
            (head(rename_vars(lambda v: v + 1, f)), f),
            (bind(q, a, f), _renamed_one(x, y, f)),
            (other, f),
        )[pick]
    else:
        quant, body = _sharing(head, f, pick, x, y, cached)
    assert match_bind(quant, body, forbidden) == _brute_match_bind(quant, body, set(forbidden))


def test_atom_args_normalized_to_tuple():
    assert Atom(0, [5, 3]).args == (5, 3)
    assert hash(Atom(0, [5, 3])) == hash(Atom(0, (5, 3)))
    assert Atom(0, [5, 3]) == Atom(0, (5, 3))


def test_dataclass_shape_unchanged():
    assert repr(And(Atom(0), Atom(1))) == "And(left=Atom(pred=0, args=()), right=Atom(pred=1, args=()))"
    assert repr(BOT) == "Bot()"
    assert repr(FAll(Atom(1, (0,)))) == "FAll(body=Atom(pred=1, args=(0,)))"
    assert repr(Or(Atom(0), TOP)) == "Or(left=Atom(pred=0, args=()), right=Top())"
    assert [f.name for f in dataclasses.fields(And)] == ["left", "right"]
    assert [f.name for f in dataclasses.fields(Atom)] == ["pred", "args"]


def test_same_shape_formulas_differ():
    a, b = Atom(0), Atom(1, (0,))
    fresh = (Atom(1, [0]), Bot(), Top(), And(a, b), Or(b, a), Not(a), FAll(b), FEx(Not(b)))
    for f in fresh:
        # building a node stores its fields and nothing else
        assert set(vars(f)) == {field.name for field in dataclasses.fields(f)}
        assert (f._hash, f._key, f._fv, f._pol, f._text, f._repr_text) == (None,) * 6
    for f in fresh:
        assert hash(f) == hash(canonical_key(f)) == f._hash
    assert And(a, b) != Or(a, b)
    assert FAll(b) != FEx(b)
    assert BOT != TOP
    assert Bot() == BOT and hash(Bot()) == hash(BOT)
    assert And(a, b) == And(Atom(0), Atom(1, (0,))) and hash(And(a, b)) == hash(And(Atom(0), Atom(1, (0,))))
    for f in (BOT, TOP, a, And(a, b), Or(b, a), Not(a), FAll(b), FEx(Not(b))):
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f) and type(g) is type(f)
        for name in [field.name for field in dataclasses.fields(f)] + ["_hash", "_key"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, name, a)


def test_nodes_keep_the_dataclass_contract():
    a, b = Atom(0), Atom(1, (0,))
    for f in (Atom(1, [0]), Bot(), Top(), And(a, b), Or(b, a), Not(a), FAll(b), FEx(Not(b))):
        cls, names = type(f), type(f).__match_args__
        values = tuple(getattr(f, name) for name in names)
        assert cls(**dict(zip(names, values))) == cls(*values) == f
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(f, name)
        for g in (copy.copy(f), copy.deepcopy(f)):
            assert g == f and type(g) is cls
        match f:
            case Atom(pred, args):
                bound = (pred, args)
            case And(left, right) | Or(left, right):
                bound = (left, right)
            case Not(sub) | FAll(sub) | FEx(sub):
                bound = (sub,)
            case Bot() | Top():
                bound = ()
        assert len(bound) == len(values) and all(x is y for x, y in zip(bound, values))
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(f)
        assert tuple(x.name for x in dataclasses.fields(cls)) == tuple(x.name for x in dataclasses.fields(f)) == names
        g = dataclasses.replace(f)
        assert g == f and g is not f and type(g) is cls
    g = dataclasses.replace(Atom(0, (1,)), args=[2])
    assert g.args == (2,) and g == Atom(0, (2,))


def test_pickles_and_copies_leave_out_the_kept_caches():
    # A loaded or copied formula computes its hash, key, free variables,
    # polarity and text afresh, so none that is wrong, or that another
    # version of the code kept, travels with it.  The hash is recomputed, not
    # carried: it hashes no string, so it is the same in every process.
    f = FAll(And(Atom(0, (0,)), Atom(1)))
    before = pickle.dumps(f)
    key, fv, pol, text = canonical_key(f), free_vars(f), polarity(f), print_formula(f)
    hash(f)
    assert f._key == key and f._fv is not None and f._pol == pol and f._text == text and f._hash is not None
    assert pickle.dumps(f) == before
    forged = FAll(And(Atom(0, (0,)), Atom(1)))
    object.__setattr__(forged, "_key", (9, 9, 9))
    assert canonical_key(forged) == (9, 9, 9)
    forged_hash = FAll(And(Atom(0, (0,)), Atom(1)))
    object.__setattr__(forged_hash, "_hash", 12345)
    assert hash(forged_hash) == 12345
    for g in (f, forged, forged_hash):
        for other in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert set(vars(other)) == {"body"}
            assert canonical_key(other) == key and hash(other) == hash(f) and other in {f}
            assert free_vars(other) == fv and polarity(other) == pol and print_formula(other) == text
        for other in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            for _, sub, _ in _paths(other):
                assert set(vars(sub)) == {field.name for field in dataclasses.fields(sub)}


def test_equality_agrees_with_canonical_key():
    # Seeds repeat, so every formula has an equal twin built separately, and
    # the small depth and alphabet make unrelated formulas collide often.
    # Equality is asked first, on nodes whose caches are still empty.
    fs = [sample_formula(SplitMix64(seed % 150), max_depth=2, max_pred=2, max_var=2) for seed in range(300)]
    eq = [[a == b for b in fs] for a in fs]
    keys = [canonical_key(f) for f in fs]
    for i, a in enumerate(fs):
        assert eq[i][(i + 150) % 300]
        for j, b in enumerate(fs):
            assert eq[i][j] == (keys[i] == keys[j])
            if eq[i][j]:
                assert hash(a) == hash(b)


_KIDS = {And: ("left", "right"), Or: ("left", "right"), Not: ("sub",), FAll: ("body",), FEx: ("body",)}


def _paths(f: Formula, path: tuple[str, ...] = (), binders: int = 0) -> list[tuple[tuple[str, ...], Formula, int]]:
    """(path, subformula, binders above it) for f and each subformula, in preorder."""
    under = binders + (type(f) in (FAll, FEx))
    kids = [x for name in _KIDS.get(type(f), ()) for x in _paths(getattr(f, name), path + (name,), under)]
    return [(path, f, binders)] + kids


def _at(f: Formula, path: tuple[str, ...]) -> Formula:
    for name in path:
        f = getattr(f, name)
    return f


def _copy(f: Formula) -> Formula:
    """An equal formula built from new nodes, none of which caches anything."""
    kids = [_copy(getattr(f, name)) for name in _KIDS.get(type(f), ())]
    return type(f)(*kids) if kids else dataclasses.replace(f)


@given(formulas(), st.data())
def test_rename_vars_returns_fixed_subformulas_unchanged(f, data):
    keep = set(free_vars(f))
    assert rename_vars(lambda v: v if v in keep else v + 1, f) is f
    # A subformula under d binders whose free variables the renaming lifted
    # d times fixes is the same object in the result, wherever others change.
    path, g, d = data.draw(st.sampled_from(_paths(f)))
    keep = {v - d for v in free_vars(g) if v >= d}
    s = lambda v: v if v in keep else v + 1 + v % 2
    renamed = rename_vars(s, f)
    assert _at(renamed, path) is g


@given(formulas())
def test_walks_reuse_values_cached_on_subformulas(f):
    # Cache values on every other proper subformula first; the walks over f
    # stop there and must agree with walks over a copy that caches nothing.
    for _, g, _ in _paths(f)[1::2]:
        free_vars(g), polarity(g), canonical_key(g)
    copy = _copy(f)
    assert copy is not f
    assert free_vars(f) == free_vars(copy)
    assert polarity(f) == polarity(copy)
    assert canonical_key(f) == canonical_key(copy)


def test_free_vars_returns_a_fresh_list():
    f = And(Atom(0, (1, 2)), FAll(Atom(1, (0, 3))))
    fv = free_vars(f)
    fv.append(9)
    fv.clear()
    assert free_vars(f) == [1, 2, 2]


def test_free_vars_and_polarity_grow_linearly_on_long_chains():
    # Each walk takes every node once, so a chain four times as long takes
    # about four times as long.  Copying the operands' values at every
    # junction takes about sixteen times as long.
    n = 4000

    def chain(length: int, nest_left: bool) -> Formula:
        f: Formula = Atom(0, (0,))
        for i in range(1, length):
            a = Atom(i, (i,))  # distinct predicates and variables: nothing repeats
            f = And(f, a) if nest_left else And(a, f)
        return f

    def best_of_7(walk, nest_left: bool) -> dict[int, float]:
        # the short and the long run alternate, so a slow spell of the host
        # falls on both lengths rather than on all runs of one
        best = {n: float("inf"), 4 * n: float("inf")}
        for _ in range(7):
            for length in best:
                f = chain(length, nest_left)  # afresh: a walk keeps its value on the root
                gc.disable()
                try:
                    start = time.perf_counter()
                    walk(f)
                    best[length] = min(best[length], time.perf_counter() - start)
                finally:
                    gc.enable()
        return best

    for walk in (free_vars, polarity):
        for nest_left in (True, False):
            best = best_of_7(walk, nest_left)
            assert best[4 * n] < 8 * best[n], (walk.__name__, nest_left, best)


def test_deep_formula_without_recursion():
    # Repr, renaming, printing, simplification and evaluation are folds
    # without recursion, and free variables, polarity, the key behind the hash
    # and the lockstep walk behind the matchers are flat loops, so chains far
    # deeper than the recursion limit work.
    depth = 5000

    def chain() -> Formula:
        f: Formula = Atom(0)
        for _ in range(depth):
            f = Not(f)
        return f

    def mixed(free: int, tops: bool = True) -> tuple[Formula, str]:
        # Not, And with top, forall, exists, repeated: depth // 2 binders,
        # and the atom's second argument is the free variable ``free``.
        f: Formula = Atom(0, (0, depth // 2 + free))
        text = f"P0(x1,x{free})"
        for i in range(depth):
            k = i % 4
            if k == 0:
                f, text = Not(f), f"~{text}"
            elif k == 1 and tops:
                f, text = And(f, TOP), f"({text} & top)"
            elif k == 2:
                f, text = FAll(f), f"forall x1. {text}"
            elif k == 3:
                f, text = FEx(f), f"exists x1. {text}"
        return f, text

    valuation = {(0, ()): True, (1, ()): True, (2, (0,)): False, (2, (1,)): True}

    def quantifier_free() -> tuple[Formula, bool]:
        f: Formula = Atom(0)
        value = True
        for i in range(depth):
            k = i % 3
            if k == 0:
                f, value = Not(f), not value
            elif k == 1:
                f, value = And(f, Atom(1)), value
            else:
                f, value = Or(f, Atom(2, (i % 2,))), value or valuation[(2, (i % 2,))]
        return f, value

    with recursion_limit(1000):
        a, b = chain(), chain()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert b in fset(a)
        assert len(canonical_key(a)) == depth + 3
        assert free_vars(a) == []
        assert polarity(a) == Polarity(frozenset({0}), frozenset())
        assert repr(a) == "Not(sub=" * depth + "Atom(pred=0, args=())" + ")" * depth

        m, text = mixed(0)
        assert print_formula(m) == text
        m7 = inst("all", 7, FAll(m))
        assert m7 == mixed(7)[0]
        assert bind("all", 7, m7) == FAll(m)
        assert match_inst(FAll(m), m7) == 7
        assert match_bind(FAll(m), m7, set()) == 7
        assert match_bind(FAll(m), m7, {7}) is None
        assert rename_vars(lambda v: v, m) is m
        assert simplify_bool(m) == mixed(0, tops=False)[0]

        qf, value = quantifier_free()
        assert atom_keys(qf) == set(valuation)
        assert eval_formula(qf, valuation) is value
