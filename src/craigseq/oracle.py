"""Independent semantic checks and seeded random generation.

The truth-table semantics covers the quantifier-free fragment only and shares
nothing with the syntactic machinery: a valuation assigns a boolean to every
atom (predicate id plus argument tuple), validity enumerates all valuations,
and ``semantic_verify`` checks the two sequents an interpolant must validate.

Generation is driven by a self-contained splitmix64 RNG so that corpora are
reproducible across platforms and Python versions.  ``gen_derivation`` grows a
wellformed derivation downward from a random axiom leaf by wrapping the
current root in further rule applications, each read off its row of
``calculus.RULES``; ``random_split`` deals each root formula to either or both
parts of a split.
"""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .calculus import (
    EMPTY,
    RULE_FOR,
    RULES,
    G,
    BotL,
    Derivation,
    FormulaSet,
    Init,
    Sequent,
    TopR,
    _match_connective,
    _match_term,
    _outside,
    fset,
    root,
)
from .formulas import BOT, TOP, And, Atom, Formula, Not, Or, fold
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


class GenConfig(NamedTuple):
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


#: The rules ``_grow`` draws from, in draw order; the last four only when
#: quantifiers are allowed.  The order is the generator's distribution.
_GROW_RULES = ("WL", "WR", "NotL", "NotR", "AndL", "AndR", "OrL", "OrR", "AllL", "AllR", "ExL", "ExR")


def _sequent(side: int, this: FormulaSet, other: FormulaSet) -> Sequent:
    """The sequent with ``this`` on ``side`` and ``other`` opposite."""
    return Sequent(this, other) if side == G else Sequent(other, this)


def _weaken(d: Derivation, side: int, f: Formula) -> Derivation:
    """``d`` under a weakening that adds ``f`` on ``side``, unless it is there."""
    seq = root(d)
    if f in seq[side]:
        return d
    return RULE_FOR[None, side](_sequent(side, seq[side].add(f), seq[1 - side]), d)


def _grow(rng: SplitMix64, cfg: GenConfig, d: Derivation) -> Derivation | None:
    """Wrap the current root in one more rule application, or return None when
    the drawn rule does not apply to the current root sequent.

    The new root is read off the rule's row of ``RULES``: the principal
    formula goes on ``row.side`` (weakened in first) and the premise's new
    formulas, there already, come off ``row.target``.
    """
    row = RULES[rng.choice(_GROW_RULES if cfg.allow_quantifiers else _GROW_RULES[:8])]
    side, target = row.side, row.target
    seq = root(d)
    this, other = seq[side], seq[1 - side]
    if row.head is None:  # WL, WR
        return row.cls(_sequent(side, this.add(_random_formula(rng, cfg.max_pred)), other), d)
    if row.arity == 2:  # AndR, OrL: the sibling premise holds the unit or a formula of the other side
        if not this:
            return None
        a = rng.choice(list(this))
        unit = (BOT, TOP)[side]  # the unit that may close the sibling premise
        b = unit if rng.below(1 + len(other)) == 0 else rng.choice(list(other))
        d1 = _weaken(d, side, row.head(a, b))
        kept = root(d1)[side].without(a)
        sibling = (RULE_FOR[type(unit), side] if b == unit else Init)(_sequent(side, kept.add(b), other))
        return row.cls(_sequent(side, kept, other), d1, sibling)
    if row.match is _match_connective:  # NotL, NotR, AndL, OrR: components from the target side
        pool = list(seq[target])
        if not pool:
            return None
        parts = [rng.choice(pool) for _ in range(1 if row.head is Not else 2)]
        d1 = _weaken(d, side, row.head(*parts))
    else:  # AllL, ExR draw a term; AllR, ExL take a variable free nowhere in the root
        v = rng.below(3) if row.match is _match_term else max(seq.free_vars(), default=-1) + 1
        pred = rng.below(cfg.max_pred)
        parts = [Atom(pred, (v,))]
        # Binding v in P(v) leaves P applied to de Bruijn index 0.
        d1 = _weaken(_weaken(d, target, parts[0]), side, row.head(Atom(pred, (0,))))
    grown, other = root(d1)[target], root(d1)[1 - target]
    for a in parts:
        grown = grown.without(a)
    return row.cls(_sequent(target, grown, other), d1)


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
        grown_nodes = nodes + _outside(grown, d)
        if grown_nodes > cfg.max_nodes:
            break
        d, nodes = grown, grown_nodes
        misses = 0
    return d


def random_split(seq: Sequent, seed: int) -> SplitSequent:
    """Deal each root formula to part 1, part 2, or both, seeded."""
    rng = SplitMix64(seed)
    parts: list[list[Formula]] = [[], [], [], []]  # gamma1, gamma2, delta1, delta2
    for i, side in ((0, seq.antecedent), (2, seq.succedent)):
        for f in side:
            k = rng.below(3)  # 0: part 1, 1: part 2, 2: both
            if k != 1:
                parts[i].append(f)
            if k != 0:
                parts[i + 1].append(f)
    return SplitSequent(*map(FormulaSet, parts))
