"""Seeded inputs of the three workloads and the two fixed failing cli problems.

Every input is a derivation from ``craigseq.oracle.gen_derivation`` and a
split from ``random_split``, except fault (b), which is built by hand.  The
generator seeds are mixed from the benchmark's ``--seed`` by ``subseed``, so
one seed always gives the same inputs and the program sees only the generated
inputs.  The fixed failing problems do not depend on ``--seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

from craigseq.calculus import WL, Derivation, FormulaSet, Init, Sequent, fset, root, size
from craigseq.formulas import Atom, Formula, Not
from craigseq.interpolation import SplitSequent
from craigseq.oracle import GenConfig

_MASK64 = (1 << 64) - 1

#: (``max_nodes``, how many) of the seeded quantified cli problems in a
#: round.  The largest size stays where no seed makes a witness nest deeper
#: than ``syntax.MAX_NESTING``, so no seeded problem fails; fault (a) stands
#: for the deeper inputs.
CLI_PLAN = ((30, 6), (70, 14), (110, 10))
#: (``max_nodes``, how many) of the seeded quantified scale derivations.  One
#: input can cost several times another of its size, so every class holds
#: several; a 1600-node input (5 to 9 s) would leave room for only one.  In
#: both plans the median operation falls inside the middle class and the 90th
#: percentile inside the top one.
SCALE_PLAN = ((200, 8), (400, 20), (800, 6))
BATCH_DERIVATIONS = 1000
BATCH_SPLITS = 3
MAX_PRED = 4

FAULT_A = "fault-a:verify-rejects-printed-result"
FAULT_B = "fault-b:interpolate-recursion-error"


@dataclass
class Case:
    """One input: a derivation and a split of its root sequent.

    ``size_class`` is the ``max_nodes`` the input was generated with.
    ``truth_table`` says whether the truth-table oracle applies (the inputs
    are propositional).  ``fault`` names the known defect a fixed failing
    problem reproduces; it is ``None`` for the seeded inputs, which must all
    succeed.
    """

    name: str
    derivation: Derivation
    split: SplitSequent
    size_class: int
    truth_table: bool
    fault: str | None = None
    nodes: int = 0

    def __post_init__(self) -> None:
        self.nodes = size(self.derivation)


def subseed(seed: int, *path: int) -> int:
    """Mix ``seed`` and a path of small integers into a 64-bit generator seed."""
    z = seed & _MASK64
    for k in path:
        z = (z + 0x9E3779B97F4A7C15 * (k + 1)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


def _generated(lib, name: str, cfg: GenConfig, split_seed: int) -> Case:
    d = lib.gen_derivation(cfg)
    return Case(name, d, lib.random_split(root(d), split_seed), cfg.max_nodes, not cfg.allow_quantifiers)


def cli_cases(lib, seed: int) -> list[Case]:
    """One round of the ``cli`` workload: seeded problems, then faults (a), (b)."""
    cases = [
        _generated(lib, f"cli-{n}.{k}", GenConfig(n, MAX_PRED, subseed(seed, 1, n, k), True), subseed(seed, 2, n, k))
        for n, count in CLI_PLAN
        for k in range(count)
    ]
    return cases + [fault_a(lib), fault_b()]


def scale_cases(lib, seed: int) -> list[Case]:
    return [
        _generated(lib, f"scale-{n}.{k}", GenConfig(n, MAX_PRED, subseed(seed, 3, n, k), True), subseed(seed, 4, n, k))
        for n, count in SCALE_PLAN
        for k in range(count)
    ]


def batch_cases(lib, seed: int) -> list[Case]:
    """The acceptance-suite shape: propositional derivations of 4-12 nodes, 3 splits each."""
    cases = []
    for i in range(BATCH_DERIVATIONS):
        cfg = GenConfig(4 + i % 9, 1 + i % 4, subseed(seed, 5, i))
        d = lib.gen_derivation(cfg)
        for j in range(BATCH_SPLITS):
            split = lib.random_split(root(d), subseed(seed, 6, i, j))
            cases.append(Case(f"batch-{i}.{j}", d, split, cfg.max_nodes, True))
    return cases


def fault_a(lib) -> Case:
    """A 280-node problem whose left witness nests 316 deep.

    ``interpolate`` prints the result, and ``verify`` then rejects it with
    ``derivation nesting too deep`` (exit 2).
    """
    case = _generated(lib, FAULT_A, GenConfig(280, MAX_PRED, 2, True), 2)
    case.fault = FAULT_A
    return case


def fault_b(depth: int = 200) -> Case:
    """A formula nested ``depth`` deep under a chain of ``depth`` WL nodes.

    Both are inside the parser's limit, yet ``interpolate`` dies with an
    uncaught ``RecursionError`` (exit 1).
    """
    f: Formula = Atom(0)
    for _ in range(depth):
        f = Not(f)
    d: Derivation = Init(Sequent(fset(f), fset(f)))
    for k in range(1, depth + 1):
        seq = root(d)
        d = WL(Sequent(seq.antecedent.add(Atom(k)), seq.succedent), d)
    seq = root(d)
    split = SplitSequent(seq.antecedent, FormulaSet(), FormulaSet(), seq.succedent)
    return Case(FAULT_B, d, split, depth, False, FAULT_B)
