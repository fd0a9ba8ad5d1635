"""Value records: repr text, hash, pickling, defaults and immutability."""
from __future__ import annotations

import hashlib
import pickle

import pytest

from craigseq.calculus import RULES, RuleInstance, Sequent, resolve_rule, root
from craigseq.formulas import Atom
from craigseq.interpolation import (
    _CASES,
    InterpolationResult,
    SplitSequent,
    VerifyReport,
    interpolate_strong,
    verify,
)
from craigseq.oracle import GenConfig, gen_derivation, random_split
from craigseq.syntax import ProblemFile

#: Each record type and its field names, in order.
FIELDS = {
    Sequent: ("antecedent", "succedent"),
    RuleInstance: ("kind", "analysed", "eigen", "term", "adds"),
    SplitSequent: ("gamma1", "gamma2", "delta1", "delta2"),
    InterpolationResult: ("interpolant", "left_witness", "right_witness"),
    VerifyReport: ("conjuncts",),
    ProblemFile: ("gamma1", "gamma2", "delta1", "delta2", "derivation"),
    GenConfig: ("max_nodes", "max_pred", "seed", "allow_quantifiers"),
}


def _fields(r) -> tuple:
    return tuple(getattr(r, name) for name in FIELDS[type(r)])


def _records():
    """Records of every type from 20 seeded 40-node quantified problems:
    the problem, its result and report, and every node's sequent and rule
    instance in the input and both witnesses."""
    for seed in range(20):
        cfg = GenConfig(40, 4, seed, True)
        d = gen_derivation(cfg)
        split = random_split(root(d), seed)
        res = interpolate_strong(d, split)
        yield from (cfg, split, ProblemFile(split.gamma1, split.gamma2, split.delta1, split.delta2, d))
        yield from (res, verify(split, res))
        todo = [d, res.left_witness, res.right_witness]
        while todo:
            node = todo.pop()
            yield from (node.seq, resolve_rule(node))
            todo += node.premises


def test_record_reprs_digest():
    # Taken while the records were dataclasses.  A repr, unlike a hash, is
    # the same in every process: the hash of a str or of None is not.
    h = hashlib.sha256()
    seen = set()
    for r in _records():
        seen.add(type(r))
        h.update(repr(r).encode() + b"\n")
    assert seen == set(FIELDS)
    assert h.hexdigest() == "73faad1ea6391a8f18cfc0fbd31aea6cc990a5863397f869caf31d128c14d8a7"


def test_records_compare_hash_and_pickle_by_their_fields():
    for r in _records():
        fields = _fields(r)
        assert type(r)(*fields) == r
        if type(r) is VerifyReport:  # its dict is unhashable
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == hash(fields)
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is type(r) and copy == r and repr(copy) == repr(r)


def test_record_defaults():
    p = Atom(0)
    assert _fields(RuleInstance("WL")) == ("WL", None, None, None, ())
    assert _fields(RuleInstance("AllR", p, eigen=3, adds=(p,))) == ("AllR", p, 3, None, (p,))
    assert _fields(RuleInstance("ExR", p, term=2, adds=(p,))) == ("ExR", p, None, 2, (p,))
    assert _fields(GenConfig(5, 2, 1)) == (5, 2, 1, False)


def test_record_fields_cannot_be_assigned():
    seen = set()
    for r in _records():
        if type(r) in seen:
            continue
        seen.add(type(r))
        for name in FIELDS[type(r)]:
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))
    assert seen == set(FIELDS)


def _hot_records():
    """The records the hot path builds with ``tuple.__new__``, on 10 seeded
    40-node quantified derivations: every witness node's sequent and rule
    instance; and for every input node, its rule instance, the result of
    interpolating its subderivation along a seeded split of its root, and the
    premise split that its step yields first, after its case."""
    for seed in range(10):
        d = gen_derivation(GenConfig(40, 4, seed, True))
        res = interpolate_strong(d, random_split(root(d), seed))
        todo = [res.left_witness, res.right_witness]
        while todo:
            w = todo.pop()
            todo += w.premises
            yield from (w.seq, resolve_rule(w))
        todo = [d]
        while todo:
            node = todo.pop()
            todo += node.premises
            split = random_split(root(node), seed)
            row, rule = RULES[node.tag], resolve_rule(node)
            yield from (rule, interpolate_strong(node, split))
            if row.arity:
                step = _CASES[node.tag](node, row, rule, split)
                next(step)  # the case's index
                yield next(step)


def test_hot_records_keep_the_named_tuple_contract():
    seen = set()
    for r in _hot_records():
        cls = type(r)
        seen.add(cls)
        assert cls in FIELDS and cls._fields == FIELDS[cls]
        again = cls(**r._asdict())
        assert type(again) is cls and again == r and repr(again) == repr(r)
        assert repr(r).startswith(f"{cls.__name__}({cls._fields[0]}=")
        assert r._replace() == r and type(r._replace()) is cls
        last = cls._fields[-1]
        changed = r._replace(**{last: None})
        assert type(changed) is cls and changed[:-1] == r[:-1] and getattr(changed, last) is None
    assert seen == {RuleInstance, InterpolationResult, SplitSequent, Sequent}
