"""Correctness checks made apart from the library's own verifier.

Each check answers from code that ``craigseq.interpolation.verify`` does not
use:

* ``tests/support.py::brute_is_deriv`` re-states every rule clause with its
  existentials enumerated, and must accept both witnesses;
* the witness roots are compared with ``Γ1 ⊢ Δ1, C`` and ``C, Γ2 ⊢ Δ2`` as
  plain Python sets, not through ``FormulaSet``;
* the Lyndon condition on the interpolant is computed by ``polarities``
  below, not by ``craigseq.formulas.polarity``;
* on propositional inputs the truth-table oracle ``semantic_verify`` must
  hold.

``check_result`` returns the list of failed checks; an empty list means the
output is correct.
"""
from __future__ import annotations

import importlib.util
import sys
import types
from contextlib import contextmanager
from typing import Iterable

from craigseq.calculus import root
from craigseq.formulas import And, Atom, Bot, FAll, FEx, Formula, Not, Or, Top
from craigseq.interpolation import InterpolationResult, SplitSequent
from craigseq.oracle import semantic_verify

from common import SUPPORT

#: ``brute_is_deriv`` and the dataclass ``==`` recurse once per tree level;
#: this covers the deepest witness of every workload.
CHECK_RECURSION_LIMIT = 20000


def _load_brute_is_deriv():
    # tests/support.py also defines hypothesis strategies.  The checker itself
    # needs none of them, so a bare module stands in when hypothesis is not
    # installed and the benchmark stays on the standard library.
    if importlib.util.find_spec("hypothesis") is None:
        strategies = types.ModuleType("hypothesis.strategies")
        stub = types.ModuleType("hypothesis")
        stub.strategies = strategies
        sys.modules.setdefault("hypothesis", stub)
        sys.modules.setdefault("hypothesis.strategies", strategies)
    spec = importlib.util.spec_from_file_location("perfbench_support", SUPPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_is_deriv


brute_is_deriv = _load_brute_is_deriv()


@contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def polarities(formulas: Iterable[Formula], positive: bool = True) -> tuple[set[int], set[int]]:
    """Predicates occurring positively and negatively in ``formulas``.

    With ``positive=False`` every formula is read under one negation, as the
    succedent of a sequent is.
    """
    pos: set[int] = set()
    neg: set[int] = set()
    stack = [(f, positive) for f in formulas]
    while stack:
        f, sign = stack.pop()
        if isinstance(f, Atom):
            (pos if sign else neg).add(f.pred)
        elif isinstance(f, (And, Or)):
            stack.append((f.left, sign))
            stack.append((f.right, sign))
        elif isinstance(f, Not):
            stack.append((f.sub, not sign))
        elif isinstance(f, (FAll, FEx)):
            stack.append((f.body, sign))
        elif not isinstance(f, (Bot, Top)):
            raise TypeError(f"not a formula: {f!r}")
    return pos, neg


def check_result(split: SplitSequent, result: InterpolationResult, truth_table: bool) -> list[str]:
    """Every independent check of one interpolation output."""
    failed = []
    c = result.interpolant
    left, right = result.left_witness, result.right_witness
    with recursion_limit(CHECK_RECURSION_LIMIT):
        if not brute_is_deriv(left):
            failed.append("brute_is_deriv rejects the left witness")
        if not brute_is_deriv(right):
            failed.append("brute_is_deriv rejects the right witness")
        lroot, rroot = root(left), root(right)
        if set(lroot.antecedent) != set(split.gamma1) or set(lroot.succedent) != set(split.delta1) | {c}:
            failed.append("left witness root is not Γ1 ⊢ Δ1, C")
        if set(rroot.antecedent) != set(split.gamma2) | {c} or set(rroot.succedent) != set(split.delta2):
            failed.append("right witness root is not C, Γ2 ⊢ Δ2")
    # Lyndon condition: C's positive (negative) predicates occur positively
    # (negatively) in Γ1 ∧ ¬Δ1 and in ¬Γ2 ∨ Δ2.
    cpos, cneg = polarities([c])
    g1p, g1n = polarities(split.gamma1)
    d1p, d1n = polarities(split.delta1, positive=False)
    g2p, g2n = polarities(split.gamma2, positive=False)
    d2p, d2n = polarities(split.delta2)
    if not cpos <= (g1p | d1p) & (g2p | d2p):
        failed.append("a positive predicate of C is not positive in both halves")
    if not cneg <= (g1n | d1n) & (g2n | d2n):
        failed.append("a negative predicate of C is not negative in both halves")
    if truth_table and not semantic_verify(split, c):
        failed.append("truth-table oracle rejects C")
    return failed
