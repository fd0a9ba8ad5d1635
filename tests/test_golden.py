"""Golden digest of the printed interpolation results on a seeded corpus.

The corpus has the shape of acceptance criterion 6: ``gen_derivation`` seeds
0-199 with quantifiers off and on, each with three ``random_split``s of its
root.  The digest pins the exact interpolant and witness shapes of every
interpolation case, so a refactoring that changes any printed byte fails here.
"""
from __future__ import annotations

import hashlib

from craigseq.calculus import root
from craigseq.interpolation import interpolate_strong
from craigseq.oracle import GenConfig, gen_derivation, random_split
from craigseq.syntax import print_result

GOLDEN_SHA256 = "7e1b06d903990ca7bb53a58953d0d204c4e222d0c84df748e6f8c069e21d9496"


def corpus_digest() -> str:
    h = hashlib.sha256()
    for seed in range(200):
        for quant in (False, True):
            d = gen_derivation(
                GenConfig(max_nodes=4 + seed % 9, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=quant)
            )
            for j in range(3):
                sp = random_split(root(d), seed * 3 + j)
                h.update(print_result(interpolate_strong(d, sp)).encode())
    return h.hexdigest()


def test_printed_results_golden_digest():
    assert corpus_digest() == GOLDEN_SHA256
