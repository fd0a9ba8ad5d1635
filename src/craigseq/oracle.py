"""Independent semantic checks and seeded random generation.

The truth-table semantics covers the quantifier-free fragment only and shares
nothing with the syntactic machinery: a valuation assigns a boolean to every
atom (predicate id plus argument tuple), validity enumerates all valuations,
and ``semantic_verify`` checks the two sequents an interpolant must validate.

Generation is driven by a self-contained splitmix64 RNG so that corpora are
reproducible across platforms and Python versions.  ``gen_derivation`` grows a
wellformed derivation downward from a random axiom leaf by wrapping the
current root in further rule applications; ``random_split`` deals each root
formula to either or both parts of a split.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .calculus import (
    EMPTY,
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
from .formulas import BOT, TOP, And, Atom, Formula, Not, Or, bind, fold
from .interpolation import SplitSequent

AtomKey = tuple[int, tuple[int, ...]]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: a tiny deterministic 64-bit generator.

    One additive constant drives the state; two xor-multiply rounds mix the
    output (see the README for the constants).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def below(self, n: int) -> int:
        """A draw from range(n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, xs):
        return xs[self.below(len(xs))]


def _quantifier_free(g: Formula, c: object) -> object:
    """The ``under`` of the folds below: it raises at a binder before its body is folded."""
    raise ValueError(f"formula is not quantifier-free: {g!r}")


_ATOM_KEYS = (
    lambda g, c: {(g.pred, g.args)},
    lambda g, c: set(),
    lambda g, c: set(),
    lambda g, c, left, right: left | right,
    lambda g, c, left, right: left | right,
    lambda g, c, sub: sub,
)

_EVAL = (
    lambda g, valuation: valuation[(g.pred, g.args)],
    lambda g, valuation: False,
    lambda g, valuation: True,
    lambda g, valuation, left, right: left and right,
    lambda g, valuation, left, right: left or right,
    lambda g, valuation, sub: not sub,
)


def atom_keys(f: Formula) -> set[AtomKey]:
    """All atoms of a quantifier-free formula, as (pred, args) keys."""
    return fold(f, _ATOM_KEYS, None, _quantifier_free)


def eval_formula(f: Formula, valuation: Mapping[AtomKey, bool]) -> bool:
    """Truth value of a quantifier-free formula under a total valuation.

    Every subformula is evaluated, so a quantifier anywhere raises ``ValueError``.
    """
    return fold(f, _EVAL, valuation, _quantifier_free)


MAX_VALIDITY_ATOMS = 16


def is_valid_sequent(gamma: Iterable[Formula], delta: Iterable[Formula]) -> bool:
    """Truth-table validity: every valuation making all of gamma true makes
    some member of delta true.  Limited to 16 distinct atoms."""
    gamma = list(gamma)
    delta = list(delta)
    keys: set[AtomKey] = set()
    for f in gamma + delta:
        keys |= atom_keys(f)
    ordered = sorted(keys)
    if len(ordered) > MAX_VALIDITY_ATOMS:
        raise ValueError(f"too many distinct atoms for truth-table validity: {len(ordered)}")
    for bits in range(1 << len(ordered)):
        valuation = {k: bool((bits >> i) & 1) for i, k in enumerate(ordered)}
        if all(eval_formula(g, valuation) for g in gamma) and not any(
            eval_formula(d, valuation) for d in delta
        ):
            return False
    return True


def semantic_verify(split: SplitSequent, interpolant: Formula) -> bool:
    """Truth-table check of the two sequents an interpolant must validate."""
    left = is_valid_sequent(split.gamma1, list(split.delta1) + [interpolant])
    right = is_valid_sequent([interpolant] + list(split.gamma2), split.delta2)
    return left and right


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the random derivation generator.

    ``max_nodes`` caps the tree size, predicates are drawn from
    ``range(max_pred)``, and quantifier rules are used only when
    ``allow_quantifiers`` is set (leaving every formula quantifier-free
    otherwise).
    """

    max_nodes: int
    max_pred: int
    seed: int
    allow_quantifiers: bool = False


def _random_formula(rng: SplitMix64, max_pred: int, depth: int = 2) -> Formula:
    k = rng.below(3 if depth == 0 else 6)
    if k == 0:
        return Atom(rng.below(max_pred))
    if k == 1:
        return BOT
    if k == 2:
        return TOP
    if k == 3:
        return Not(_random_formula(rng, max_pred, depth - 1))
    if k == 4:
        return And(_random_formula(rng, max_pred, depth - 1), _random_formula(rng, max_pred, depth - 1))
    return Or(_random_formula(rng, max_pred, depth - 1), _random_formula(rng, max_pred, depth - 1))


def _gen_leaf(rng: SplitMix64, cfg: GenConfig) -> Derivation:
    k = rng.below(3)
    if k == 0:
        a = Atom(rng.below(cfg.max_pred))
        return Init(Sequent(fset(a), fset(a)))
    if k == 1:
        return BotL(Sequent(fset(BOT), EMPTY))
    return TopR(Sequent(EMPTY, fset(TOP)))


def _wrap_wl(d: Derivation, f: Formula) -> Derivation:
    seq = root(d)
    if f in seq.antecedent:
        return d
    return WL(Sequent(seq.antecedent.add(f), seq.succedent), d)


def _wrap_wr(d: Derivation, f: Formula) -> Derivation:
    seq = root(d)
    if f in seq.succedent:
        return d
    return WR(Sequent(seq.antecedent, seq.succedent.add(f)), d)


def _grow(rng: SplitMix64, cfg: GenConfig, d: Derivation) -> Derivation | None:
    """Wrap the current root in one more rule application, or return None when
    the drawn rule does not apply to the current root sequent."""
    rules = ["WL", "WR", "NotL", "NotR", "AndL", "AndR", "OrL", "OrR"]
    if cfg.allow_quantifiers:
        rules += ["AllL", "AllR", "ExL", "ExR"]
    name = rng.choice(rules)
    seq = root(d)
    gamma, delta = seq.antecedent, seq.succedent

    if name == "WL":
        return WL(Sequent(gamma.add(_random_formula(rng, cfg.max_pred)), delta), d)
    if name == "WR":
        return WR(Sequent(gamma, delta.add(_random_formula(rng, cfg.max_pred))), d)

    if name == "NotL":
        if not delta:
            return None
        a = rng.choice(list(delta))
        d1 = _wrap_wl(d, Not(a))
        seq1 = root(d1)
        return NotL(Sequent(seq1.antecedent, seq1.succedent.without(a)), d1)
    if name == "NotR":
        if not gamma:
            return None
        a = rng.choice(list(gamma))
        d1 = _wrap_wr(d, Not(a))
        seq1 = root(d1)
        return NotR(Sequent(seq1.antecedent.without(a), seq1.succedent), d1)

    if name == "AndL":
        if not gamma:
            return None
        a = rng.choice(list(gamma))
        b = rng.choice(list(gamma))
        f = And(a, b)
        d1 = _wrap_wl(d, f)
        seq1 = root(d1)
        return AndL(Sequent(seq1.antecedent.without(a).without(b).add(f), seq1.succedent), d1)
    if name == "OrR":
        if not delta:
            return None
        a = rng.choice(list(delta))
        b = rng.choice(list(delta))
        f = Or(a, b)
        d1 = _wrap_wr(d, f)
        seq1 = root(d1)
        return OrR(Sequent(seq1.antecedent, seq1.succedent.without(a).without(b).add(f)), d1)

    if name == "AndR":
        if not delta:
            return None
        a = rng.choice(list(delta))
        b = TOP if rng.below(1 + len(gamma)) == 0 else rng.choice(list(gamma))
        f = And(a, b)
        d1 = _wrap_wr(d, f)
        seq1 = root(d1)
        conclusion = Sequent(seq1.antecedent, seq1.succedent.without(a))
        sibling_seq = Sequent(conclusion.antecedent, conclusion.succedent.add(b))
        sibling = TopR(sibling_seq) if b == TOP else Init(sibling_seq)
        return AndR(conclusion, d1, sibling)
    if name == "OrL":
        if not gamma:
            return None
        a = rng.choice(list(gamma))
        b = BOT if rng.below(1 + len(delta)) == 0 else rng.choice(list(delta))
        f = Or(a, b)
        d1 = _wrap_wl(d, f)
        seq1 = root(d1)
        conclusion = Sequent(seq1.antecedent.without(a), seq1.succedent)
        sibling_seq = Sequent(conclusion.antecedent.add(b), conclusion.succedent)
        sibling = BotL(sibling_seq) if b == BOT else Init(sibling_seq)
        return OrL(conclusion, d1, sibling)

    if name == "AllL":
        v = rng.below(3)
        e = Atom(rng.below(cfg.max_pred), (v,))
        q = bind("all", v, e)
        d1 = _wrap_wl(_wrap_wl(d, e), q)
        seq1 = root(d1)
        return AllL(Sequent(seq1.antecedent.without(e), seq1.succedent), d1)
    if name == "ExR":
        v = rng.below(3)
        e = Atom(rng.below(cfg.max_pred), (v,))
        q = bind("ex", v, e)
        d1 = _wrap_wr(_wrap_wr(d, e), q)
        seq1 = root(d1)
        return ExR(Sequent(seq1.antecedent, seq1.succedent.without(e)), d1)
    if name == "AllR":
        a = max(seq.free_vars(), default=-1) + 1
        body = Atom(rng.below(cfg.max_pred), (a,))
        q = bind("all", a, body)
        d1 = _wrap_wr(_wrap_wr(d, body), q)
        seq1 = root(d1)
        return AllR(Sequent(seq1.antecedent, seq1.succedent.without(body)), d1)
    if name == "ExL":
        a = max(seq.free_vars(), default=-1) + 1
        body = Atom(rng.below(cfg.max_pred), (a,))
        q = bind("ex", a, body)
        d1 = _wrap_wl(_wrap_wl(d, body), q)
        seq1 = root(d1)
        return ExL(Sequent(seq1.antecedent.without(body), seq1.succedent), d1)
    raise AssertionError(name)


def gen_derivation(cfg: GenConfig) -> Derivation:
    """Generate a wellformed derivation, deterministically from ``cfg.seed``."""
    if cfg.max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    if cfg.max_pred < 1:
        raise ValueError("max_pred must be at least 1")
    rng = SplitMix64(cfg.seed)
    d = _gen_leaf(rng, cfg)
    nodes = 1
    misses = 0
    while nodes < cfg.max_nodes and misses < 64:
        grown = _grow(rng, cfg, d)
        if grown is None:
            misses += 1
            continue
        grown_nodes = nodes + _nodes_above(grown, d)
        if grown_nodes > cfg.max_nodes:
            break
        d, nodes = grown, grown_nodes
        misses = 0
    return d


def _nodes_above(grown: Derivation, d: Derivation) -> int:
    """Nodes of ``grown`` outside its subtree ``d``: what one ``_grow`` added."""
    count = 0
    stack = [grown]
    while stack:
        node = stack.pop()
        if node is not d:
            count += 1
            stack.extend(premises(node))
    return count


def random_split(seq: Sequent, seed: int) -> SplitSequent:
    """Deal each root formula to part 1, part 2, or both, seeded."""
    rng = SplitMix64(seed)
    g1: list[Formula] = []
    g2: list[Formula] = []
    for f in seq.antecedent:
        k = rng.below(3)
        if k != 1:
            g1.append(f)
        if k != 0:
            g2.append(f)
    d1: list[Formula] = []
    d2: list[Formula] = []
    for f in seq.succedent:
        k = rng.below(3)
        if k != 1:
            d1.append(f)
        if k != 0:
            d2.append(f)
    return SplitSequent(FormulaSet(g1), FormulaSet(g2), FormulaSet(d1), FormulaSet(d2))
