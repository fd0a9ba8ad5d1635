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
#: may make per input node and ``verify`` per witness node.  The counts were
#: 25.51 and 7.11 on the batch shape, 26.92 and 8.05 on the quantified one.
SHAPES = {
    # the benchmark's batch shape: small propositional derivations
    "batch": ([GenConfig(4 + i % 9, 1 + i % 4, i) for i in range(300)], 28.1, 7.8),
    "quantified": ([GenConfig(200, 4, seed, True) for seed in range(3)], 29.6, 8.9),
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
    configs, interpolate_budget, verify_budget = SHAPES[shape]
    nodes = witness_nodes = interpolate_calls = verify_calls = 0
    for cfg in configs:
        d = gen_derivation(cfg)
        for split_seed in range(3):
            split = random_split(root(d), split_seed)
            res, n = _calls(interpolate_strong, d, split)
            nodes += size(d)
            interpolate_calls += n
            report, n = _calls(verify, split, res)
            assert report.ok
            witness_nodes += size(res.left_witness) + size(res.right_witness)
            verify_calls += n
    per_node = interpolate_calls / nodes
    per_witness_node = verify_calls / witness_nodes
    print(f"\n{shape}: {per_node:.2f} calls per node in interpolate_strong, "
          f"{per_witness_node:.2f} per witness node in verify")
    assert per_node <= interpolate_budget, (
        f"interpolate_strong made {per_node:.2f} Python calls per node on the {shape} shape, "
        f"over its budget of {interpolate_budget}; {HOW_TO_RESET}"
    )
    assert per_witness_node <= verify_budget, (
        f"verify made {per_witness_node:.2f} Python calls per witness node on the {shape} shape, "
        f"over its budget of {verify_budget}; {HOW_TO_RESET}"
    )
