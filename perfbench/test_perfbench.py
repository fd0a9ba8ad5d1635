"""Tests of the benchmark itself: seeded inputs repeat byte for byte, and every
check rejects a tampered output, so a passing check is not vacuous.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import dataclasses
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts this checkout's src/ on sys.path)
from checks import check_result, recursion_limit  # noqa: E402
from craigseq.calculus import premises, root  # noqa: E402
from craigseq.formulas import Not  # noqa: E402
from craigseq.interpolation import InterpolationResult, interpolate_strong  # noqa: E402
from craigseq.syntax import ProblemFile, print_problem, print_result  # noqa: E402

import inputs  # noqa: E402

LIB = run.plain_lib()


def problem_texts(cases: list[inputs.Case]) -> list[bytes]:
    out = []
    with recursion_limit(run.SCALE_RECURSION_LIMIT):
        for c in cases:
            s = c.split
            out.append(print_problem(ProblemFile(s.gamma1, s.gamma2, s.delta1, s.delta2, c.derivation)).encode())
    return out


def drop_node(d):
    """``d`` with the first node below the root that has exactly one premise
    removed: its parent takes the removed node's premise in its place."""
    kids = premises(d)
    for i, kid in enumerate(kids):
        if len(premises(kid)) == 1:
            replacement = premises(kid)[0]
        else:
            replacement = drop_node(kid)
            if replacement is None:
                continue
        field = [f.name for f in dataclasses.fields(d) if f.name != "seq"][i]
        return dataclasses.replace(d, **{field: replacement})
    return None


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for build in (inputs.cli_cases, inputs.scale_cases, inputs.batch_cases):
            with self.subTest(build.__name__):
                first = problem_texts(build(LIB, 7))
                self.assertEqual(first, problem_texts(build(LIB, 7)))
                self.assertNotEqual(first, problem_texts(build(LIB, 8)))

    def test_fixed_failing_problems_ignore_the_seed(self):
        a = [c for c in inputs.cli_cases(LIB, 1) if c.fault]
        b = [c for c in inputs.cli_cases(LIB, 2) if c.fault]
        self.assertEqual([c.name for c in a], [inputs.FAULT_A, inputs.FAULT_B])
        self.assertEqual(problem_texts(a), problem_texts(b))


class ChecksRejectTampering(unittest.TestCase):
    def cases(self):
        batch = inputs.batch_cases(LIB, 3)[:30]
        quantified = [c for c in inputs.cli_cases(LIB, 3) if c.fault is None][3:6]
        return batch + quantified

    def test_correct_outputs_pass(self):
        for case in self.cases():
            result = interpolate_strong(case.derivation, case.split)
            self.assertEqual(check_result(case.split, result, case.truth_table), [], case.name)

    def test_negated_interpolant_is_rejected(self):
        for case in self.cases():
            r = interpolate_strong(case.derivation, case.split)
            tampered = InterpolationResult(Not(r.interpolant), r.left_witness, r.right_witness)
            self.assertNotEqual(check_result(case.split, tampered, case.truth_table), [], case.name)

    def test_dropped_witness_node_is_rejected(self):
        tried = 0
        for case in self.cases():
            r = interpolate_strong(case.derivation, case.split)
            for left in (True, False):
                witness = r.left_witness if left else r.right_witness
                dropped = drop_node(witness)
                if dropped is None:
                    continue
                self.assertEqual(root(dropped), root(witness))
                tampered = (
                    InterpolationResult(r.interpolant, dropped, r.right_witness)
                    if left
                    else InterpolationResult(r.interpolant, r.left_witness, dropped)
                )
                self.assertNotEqual(check_result(case.split, tampered, case.truth_table), [], case.name)
                tried += 1
        self.assertGreater(tried, 20)

    def test_every_check_rejects_some_tampered_output(self):
        seen = set()
        for case in self.cases():
            r = interpolate_strong(case.derivation, case.split)
            tampered = [InterpolationResult(Not(r.interpolant), r.left_witness, r.right_witness)]
            dropped = drop_node(r.left_witness)
            if dropped is not None:
                tampered.append(InterpolationResult(r.interpolant, dropped, r.right_witness))
            for t in tampered:
                seen.update(check_result(case.split, t, case.truth_table))
        for kind in ("brute_is_deriv rejects", "root is not", "predicate of C", "truth-table oracle"):
            self.assertTrue(any(kind in failure for failure in seen), kind)

    def test_tampered_result_file_fails_the_run(self):
        case = [c for c in inputs.cli_cases(LIB, 3) if c.fault is None][4]
        r = interpolate_strong(case.derivation, case.split)
        tampered = InterpolationResult(Not(r.interpolant), r.left_witness, r.right_witness)
        with tempfile.TemporaryDirectory() as tmp:
            workload = run.Cli()
            workload.problems[case.name] = Path(tmp) / "problem.txt"
            workload.problems[case.name].write_bytes(problem_texts([case])[0])
            op = run.Op(case, 0)
            op.ok = True
            op.output = Path(tmp) / "result.txt"
            for result, expect_ok in ((r, True), (tampered, False)):
                op.output.write_text(print_result(result))
                runner = run.Rounds(workload, [case], None)
                runner.check(op)
                self.assertEqual(runner.problems == [], expect_ok, runner.problems)


if __name__ == "__main__":
    unittest.main()
