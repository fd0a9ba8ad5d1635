"""Golden digest of ``craigseq check`` output on a seeded corpus.

The corpus is ``gen_derivation`` seeds 0-99 with quantifiers off and on.  Each
derivation is checked as generated and once more with one node's sequent
altered, so the digest pins the principal formula, term and eigenvariable that
the checker reports for every node, and also the ``UNRESOLVED`` lines and the
``FAIL at node path`` summary of broken derivations.  On the same corpus,
``is_wellformed``, ``check`` and ``interpolate`` must agree on whether a
derivation fails and, when it does, on the node path where.
"""
from __future__ import annotations

import dataclasses
import hashlib
import re
from typing import Iterator

import pytest

from craigseq.calculus import Derivation, Sequent, is_wellformed, premises, root
from craigseq.cli import main
from craigseq.formulas import Atom
from craigseq.interpolation import NotWellFormedError, interpolate
from craigseq.oracle import GenConfig, gen_derivation
from craigseq.syntax import print_derivation

GOLDEN_SHA256 = "0bc566fd5fc33ca5c558827a683783c20033e3fb58ebf2f48c6ea9efa75ca33e"

#: A predicate the generator never uses (it draws from P0-P3).
FRESH = Atom(9)


def _alter(d: Derivation, seed: int) -> Derivation:
    """``d`` with the sequent of one node below the root altered.

    The node is the ``1 + seed % (size - 1)``-th in preorder.  Even seeds add
    a fresh atom to its antecedent, which breaks its parent; odd seeds drop the
    first formula of its succedent (or antecedent), which may break the node
    itself as well.
    """
    nodes: list[tuple[tuple[int, ...], Derivation]] = []
    stack: list[tuple[tuple[int, ...], Derivation]] = [((), d)]
    while stack:
        path, node = stack.pop()
        nodes.append((path, node))
        subs = premises(node)
        for i in range(len(subs) - 1, -1, -1):
            stack.append((path + (i,), subs[i]))
    path, node = nodes[1 + seed % (len(nodes) - 1)] if len(nodes) > 1 else nodes[0]
    seq = root(node)
    if seed % 2 == 0:
        seq = Sequent(seq.antecedent.add(FRESH), seq.succedent)
    elif seq.succedent:
        seq = Sequent(seq.antecedent, seq.succedent.without(next(iter(seq.succedent))))
    else:
        seq = Sequent(seq.antecedent.without(next(iter(seq.antecedent))), seq.succedent)
    return _replace_at(d, path, dataclasses.replace(node, seq=seq))


def _replace_at(d: Derivation, path: tuple[int, ...], new: Derivation) -> Derivation:
    if not path:
        return new
    field = [f.name for f in dataclasses.fields(d) if f.name != "seq"][path[0]]
    return dataclasses.replace(d, **{field: _replace_at(premises(d)[path[0]], path[1:], new)})


def _corpus() -> Iterator[Derivation]:
    """Each derivation of the corpus as generated, then altered by ``_alter``."""
    for seed in range(100):
        for quant in (False, True):
            d = gen_derivation(
                GenConfig(max_nodes=5 + seed % 30, max_pred=1 + seed % 4, seed=seed, allow_quantifiers=quant)
            )
            yield d
            yield _alter(d, seed)


def corpus_digest(tmp_path, capsys) -> str:
    h = hashlib.sha256()
    f = tmp_path / "d.txt"
    for variant in _corpus():
        f.write_text(print_derivation(variant))
        code = main(["check", str(f)])
        h.update(f"{code}\n{capsys.readouterr().out}".encode())
    return h.hexdigest()


def test_check_output_golden_digest(tmp_path, capsys):
    assert corpus_digest(tmp_path, capsys) == GOLDEN_SHA256


def test_checker_check_and_interpolate_agree_on_the_failing_node(tmp_path, capsys):
    # is_wellformed fails exactly when check does, and interpolate's error
    # names the node path that check's summary names.
    f = tmp_path / "d.txt"
    failing = 0
    for variant in _corpus():
        f.write_text(print_derivation(variant))
        code = main(["check", str(f)])
        last = capsys.readouterr().out.splitlines()[-1]
        assert is_wellformed(variant) == (code == 0)
        if code == 0:
            interpolate(variant)
            continue
        failing += 1
        path = re.fullmatch(r'FAIL at node path "(.*)"', last).group(1)
        with pytest.raises(NotWellFormedError) as exc:
            interpolate(variant)
        assert str(exc.value) == f'derivation is not wellformed at node path "{path}"'
    assert failing > 100
