"""Near-miss derivations: seeded quantified derivations with one node changed
so that it breaks exactly one side condition of its rule.

Each near miss must be rejected by ``is_wellformed``, by ``craigseq check``,
which must name the changed node's path as the first failing one, and by the
independent ``brute_is_deriv``.  A formula is added to many sequents at once
with a fresh predicate, ``P9``, that no seeded derivation holds, so that only
the changed node can fail.
"""
from __future__ import annotations

import random

import pytest

from craigseq.calculus import RULES, AllL, AndL, G, NotL, NotR, OrR, Sequent, is_wellformed, resolve_rule
from craigseq.cli import main
from craigseq.formulas import Atom, FAll, free_vars
from craigseq.oracle import GenConfig, gen_derivation
from craigseq.syntax import print_derivation
from support import brute_is_deriv

#: A closed formula that no seeded derivation holds.
FRESH = Atom(9)


def _nodes(d, path=()):
    """``(path, node)`` for every node of ``d``, in preorder."""
    yield path, d
    for i, sub in enumerate(d.premises):
        yield from _nodes(sub, path + (i,))


def _at(d, path):
    for i in path:
        d = d.premises[i]
    return d


def _replaced(d, path, node):
    """``d`` with the node at ``path`` replaced by ``node``."""
    if not path:
        return node
    subs = list(d.premises)
    subs[path[0]] = _replaced(subs[path[0]], path[1:], node)
    return type(d)(d.seq, *subs)


def _added(d, f, side, below=None):
    """``d`` with ``f`` added to ``side`` of every sequent, except in the
    subtrees of the premises of ``below``."""
    sides = list(d.seq)
    sides[side] = sides[side].add(f)
    subs = d.premises if d is below else (_added(sub, f, side, below) for sub in d.premises)
    return type(d)(Sequent(*sides), *subs)


def _eigenvariable_free_in_the_conclusion(d, rng):
    # The first AllR/ExL node in preorder, with a formula that holds its
    # eigenvariable free added everywhere: no node before it checks one.
    path, x = next(((p, n) for p, n in _nodes(d) if n.tag in ("AllR", "ExL")), (None, None))
    if x is None:
        return None
    return _added(d, Atom(9, (resolve_rule(x).eigen,)), G), path


def _wrong_instantiating_term(d, rng):
    # ∀x.P9(x, x) everywhere, and above a node an AllL whose premise adds
    # P9(a, b) for two variables that occur nowhere: no term gives it.
    f = FAll(Atom(9, (0, 0)))
    fresh = 1 + max((v for _, n in _nodes(d) for side in n.seq for g in side for v in free_vars(g)), default=0)
    d = _added(d, f, G)
    path, y = rng.choice(list(_nodes(d)))
    return _replaced(d, path, AllL(y.seq, _added(y, Atom(9, (fresh, fresh + 1)), G))), path


def _changed_other_side(d, rng):
    # A premise-taking node whose conclusion gains a formula on the side its
    # premises must keep as it is, which they lack.
    path, x = rng.choice([(p, n) for p, n in _nodes(d) if n.premises])
    return _added(d, FRESH, 1 - RULES[x.tag].target, below=x), path


def _missing_component(d, rng):
    # Above a node, a connective node whose premise is that node: it adds
    # nothing, and each formula it could analyse lacks a component there.
    candidates = []
    for path, y in _nodes(d):
        for cls in (AndL, OrR, NotL, NotR):
            row = RULES[cls.tag]
            principal = [f for f in y.seq[row.side] if f._tag == row.head._tag]
            parts = [(f.sub,) if cls in (NotL, NotR) else (f.left, f.right) for f in principal]
            if principal and all(any(c not in y.seq[row.target] for c in cs) for cs in parts):
                candidates.append((path, cls(y.seq, y)))
    if not candidates:
        return None
    path, node = rng.choice(candidates)
    return _replaced(d, path, node), path


def _two_formulas_weakened(d, rng):
    # A WL/WR node whose conclusion adds one more formula to the weakened side.
    path, x = rng.choice([(p, n) for p, n in _nodes(d) if n.tag in ("WL", "WR")])
    return _added(d, FRESH, RULES[x.tag].side, below=x), path


def _two_formulas_instantiated(d, rng):
    # A quantifier node whose premise adds one more formula beside the instance.
    nodes = [(p, n) for p, n in _nodes(d) if n.tag in ("AllL", "ExR", "AllR", "ExL")]
    if not nodes:
        return None
    path, x = rng.choice(nodes)
    return _replaced(d, path, type(x)(x.seq, _added(x.sub, FRESH, RULES[x.tag].target))), path


NEAR_MISSES = {
    "eigenvariable": _eigenvariable_free_in_the_conclusion,
    "term": _wrong_instantiating_term,
    "other-side": _changed_other_side,
    "component": _missing_component,
    "two-weakened": _two_formulas_weakened,
    "two-instantiated": _two_formulas_instantiated,
}


@pytest.mark.parametrize("kind", NEAR_MISSES)
def test_near_misses_are_rejected_at_their_node(kind, tmp_path, capsys):
    made = 0
    for seed in range(12):
        d = gen_derivation(GenConfig(40, 3, seed, True))
        assert is_wellformed(d) and brute_is_deriv(d)
        near = NEAR_MISSES[kind](d, random.Random(seed))
        if near is None:
            continue
        made += 1
        bad, path = near
        assert not is_wellformed(bad)
        assert not brute_is_deriv(bad)
        f = tmp_path / f"{seed}.txt"
        f.write_text(print_derivation(bad))
        assert main(["check", str(f)]) == 1
        label = ".".join(map(str, path)) or "ε"
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f'FAIL at node path "{label}"'
        assert f"{label}: {_at(bad, path).tag} UNRESOLVED" in lines
    assert made >= 8
