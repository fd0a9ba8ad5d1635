"""A budget of Python calls per derivation node for interpolation and verify.

The count of Python ``call`` events that ``sys.setprofile`` reports is the
same on every host with the same interpreter, unlike a time, so it can pin
the per-node cost of ``interpolate_strong`` and of ``verify``'s checker.
Each budget is the count measured when it was set plus 10 %.
"""
from __future__ import annotations

import sys

import pytest

from craigseq.calculus import root, size
from craigseq.interpolation import interpolate_strong, verify
from craigseq.oracle import GenConfig, gen_derivation, random_split

#: Per shape: the derivations, and the most Python calls ``interpolate_strong``
#: may make per input node on each derivation's first split (cold: no node
#: keeps its rule instance yet) and on its two later splits (repeat: every
#: node keeps the one the first call resolved), and ``verify`` per witness
#: node.  The counts were 24.35, 19.79 and 7.11 on the batch shape, 25.98,
#: 18.83 and 8.05 on the quantified one.
SHAPES = {
    # the benchmark's batch shape: small propositional derivations
    "batch": ([GenConfig(4 + i % 9, 1 + i % 4, i) for i in range(300)], 26.8, 21.8, 7.8),
    "quantified": ([GenConfig(200, 4, seed, True) for seed in range(3)], 28.6, 20.7, 8.9),
}

HOW_TO_RESET = (
    "to set a new budget on purpose, run this test with pytest -s, which "
    "prints the per-node counts it measures, set each budget in SHAPES to "
    "that count plus 10 %, and give the old and new counts in CHANGES.md"
)


def _calls(fn, *args):
    """``fn(*args)`` and the number of Python calls it made, nested ones included."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        if event == "call":
            n += 1

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(before)
    return out, n


@pytest.mark.parametrize("shape", SHAPES)
def test_python_calls_per_node_stay_within_budget(shape):
    configs, cold_budget, repeat_budget, verify_budget = SHAPES[shape]
    calls = {"cold": 0, "repeat": 0, "verify": 0}
    nodes = {"cold": 0, "repeat": 0, "verify": 0}
    for cfg in configs:
        d = gen_derivation(cfg)
        for split_seed in range(3):
            split = random_split(root(d), split_seed)
            res, n = _calls(interpolate_strong, d, split)
            walk = "repeat" if split_seed else "cold"
            calls[walk] += n
            nodes[walk] += size(d)
            report, n = _calls(verify, split, res)
            assert report.ok
            calls["verify"] += n
            nodes["verify"] += size(res.left_witness) + size(res.right_witness)
    per_node = {walk: calls[walk] / nodes[walk] for walk in calls}
    print(f"\n{shape}: {per_node['cold']:.2f} calls per node in interpolate_strong on a first split, "
          f"{per_node['repeat']:.2f} on a later one, {per_node['verify']:.2f} per witness node in verify")
    for walk, what, budget in (
        ("cold", "interpolate_strong made {:.2f} Python calls per node on a first split", cold_budget),
        ("repeat", "interpolate_strong made {:.2f} Python calls per node on a later split", repeat_budget),
        ("verify", "verify made {:.2f} Python calls per witness node", verify_budget),
    ):
        assert per_node[walk] <= budget, (
            f"{what.format(per_node[walk])} on the {shape} shape, over its budget of {budget}; {HOW_TO_RESET}"
        )
