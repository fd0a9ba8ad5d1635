"""Command line interface: outputs and exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import craigseq
from craigseq.calculus import EMPTY, WL, Init, Sequent, fset, root
from craigseq.cli import main
from craigseq.formulas import Atom, Not
from craigseq.syntax import ProblemFile, print_problem

INIT_PROBLEM = "gamma1: [P0()]\ndelta2: [P0()]\nderivation: (Init [P0()] => [P0()])\n"

INIT_STDOUT = (
    "interpolant: P0()\n"
    "left: (Init [P0()] => [P0()])\n"
    "right: (Init [P0()] => [P0()])\n"
    "wellformed_left: PASS\n"
    "wellformed_right: PASS\n"
    "root_left: PASS\n"
    "root_right: PASS\n"
    "pos_left: PASS\n"
    "pos_right: PASS\n"
    "neg_left: PASS\n"
    "neg_right: PASS\n"
    "summary: PASS\n"
)


@pytest.fixture()
def problem_file(tmp_path):
    f = tmp_path / "problem.txt"
    f.write_text(INIT_PROBLEM)
    return str(f)


def test_check_pass(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(
        "(AndL [(P0() & P1())] => [P0()] (Init [P0();P1();(P0() & P1())] => [P0()]))"
    )
    code = main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "ε: AndL principal=(P0() & P1())\n"
        "0: Init principal=P0()\n"
        "PASS\n"
    )


def test_check_reports_eigenvariable(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(
        "(AllR [forall x0. P0(x0)] => [forall x0. P0(x0)] "
        "(AllL [forall x0. P0(x0)] => [forall x0. P0(x0);P0(x0)] "
        "(Init [P0(x0);forall x0. P0(x0)] => [forall x0. P0(x0);P0(x0)])))"
    )
    code = main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ε: AllR principal=forall x0. P0(x0) eigen=x0"
    assert lines[1] == "0: AllL principal=forall x0. P0(x0) term=x0"
    assert lines[2] == "0.0: Init principal=P0(x0)"
    assert lines[3] == "PASS"


def test_check_fail(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("(Init [P0()] => [P1()])")
    code = main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert out == 'ε: Init UNRESOLVED\nFAIL at node path "ε"\n'


def test_check_fail_deep_node(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("(NotR [] => [~P0()] (Init [P0()] => [~P0()]))")
    code = main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[1] == "0: Init UNRESOLVED"
    assert out.splitlines()[-1] == 'FAIL at node path "0"'


def test_interpolate_golden(problem_file, capsys):
    code = main(["interpolate", problem_file])
    assert code == 0
    assert capsys.readouterr().out == INIT_STDOUT


def test_interpolate_other_subcase(tmp_path, capsys):
    f = tmp_path / "problem.txt"
    f.write_text("gamma1: [P0()]\ndelta1: [P0()]\nderivation: (Init [P0()] => [P0()])\n")
    code = main(["interpolate", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "interpolant: bot"
    assert out.splitlines()[-1] == "summary: PASS"


def test_interpolate_weak(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("(Init [P0()] => [P0()])")
    code = main(["interpolate", "--weak", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "interpolant: P0()"
    assert out.splitlines()[-1] == "summary: PASS"


def test_interpolate_simplify_only_affects_display(tmp_path, capsys):
    text = (
        "gamma1: [bot]\n"
        "delta1: [(P0() & P1())]\n"
        "derivation: (AndR [bot] => [(P0() & P1())] "
        "(BotL [bot] => [(P0() & P1());P0()]) "
        "(BotL [bot] => [(P0() & P1());P1()]))\n"
    )
    f = tmp_path / "problem.txt"
    f.write_text(text)
    code = main(["interpolate", str(f)])
    raw = capsys.readouterr().out
    assert code == 0
    assert raw.splitlines()[0] == "interpolant: (bot | bot)"

    code = main(["interpolate", "--simplify", str(f)])
    simplified = capsys.readouterr().out
    assert code == 0
    lines = simplified.splitlines()
    assert lines[1] == "simplified: bot"
    # everything else is unchanged: simplification is display-only
    assert lines[:1] + lines[2:] == raw.splitlines()

    # and the output still re-verifies
    result = tmp_path / "result.txt"
    result.write_text(simplified)
    assert main(["verify", str(f), str(result)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "summary: PASS"


def test_interpolate_json(problem_file, capsys):
    code = main(["interpolate", "--json", problem_file])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report == {
        "wellformed_left": True,
        "wellformed_right": True,
        "root_left": True,
        "root_right": True,
        "pos_left": True,
        "pos_right": True,
        "neg_left": True,
        "neg_right": True,
    }


def test_verify_round_trip(problem_file, tmp_path, capsys):
    code = main(["interpolate", problem_file])
    out = capsys.readouterr().out
    assert code == 0
    result_file = tmp_path / "result.txt"
    result_file.write_text(out)
    code = main(["verify", problem_file, str(result_file)])
    out2 = capsys.readouterr().out
    assert code == 0
    assert out2.splitlines()[-1] == "summary: PASS"


def test_verify_detects_tampering(problem_file, tmp_path, capsys):
    result_file = tmp_path / "result.txt"
    result_file.write_text(
        "interpolant: P1()\n"
        "left: (Init [P0()] => [P0()])\n"
        "right: (Init [P0()] => [P0()])\n"
    )
    code = main(["verify", problem_file, str(result_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert "root_left: FAIL" in out.splitlines()
    assert out.splitlines()[-1] == "summary: FAIL"


def test_verify_json(problem_file, tmp_path, capsys):
    result_file = tmp_path / "result.txt"
    result_file.write_text(
        "interpolant: P0()\n"
        "left: (Init [P0()] => [P0()])\n"
        "right: (Init [P0()] => [P0()])\n"
    )
    code = main(["verify", "--json", problem_file, str(result_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert all(json.loads(out).values())


def test_root_mismatch_exits_1(tmp_path, capsys):
    f = tmp_path / "problem.txt"
    f.write_text("gamma1: [P1()]\nderivation: (Init [P0()] => [P0()])\n")
    code = main(["interpolate", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert "[P1()] => []" in captured.err
    assert "[P0()] => [P0()]" in captured.err


def test_non_wellformed_problem_exits_1(tmp_path, capsys):
    f = tmp_path / "problem.txt"
    f.write_text("gamma1: [P0()]\ndelta2: [P1()]\nderivation: (Init [P0()] => [P1()])\n")
    code = main(["interpolate", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("(Init [P0()] => ")
    code = main(["check", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["check", "interpolate"])
@pytest.mark.parametrize("formula", ["P0(x{})", "P{}()"], ids=["variable", "predicate"])
def test_overlong_number_exits_2(tmp_path, capsys, command, formula):
    # 5,000 digits is past CPython's default limit on int() conversion.
    f = formula.format("1" * 5000)
    text = f"(Init [{f}] => [{f}])"
    if command == "interpolate":
        text = f"gamma1: [{f}]\ndelta2: [{f}]\nderivation: {text}\n"
    path = tmp_path / "long.txt"
    path.write_text(text)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_deep_input_interpolates_and_verifies(tmp_path, capsys):
    # A formula nested 200 deep under a chain of 200 WL nodes: both inside the
    # parser's nesting limit, run at CPython's default recursion limit.
    depth = 200
    f = Atom(0)
    for _ in range(depth):
        f = Not(f)
    d = Init(Sequent(fset(f), fset(f)))
    for k in range(1, depth + 1):
        seq = root(d)
        d = WL(Sequent(seq.antecedent.add(Atom(k)), seq.succedent), d)
    seq = root(d)
    problem = tmp_path / "problem.txt"
    problem.write_text(print_problem(ProblemFile(seq.antecedent, EMPTY, EMPTY, seq.succedent, d)))
    out = tmp_path / "result.txt"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert main(["interpolate", str(problem)]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[-1] == "summary: PASS"
        out.write_text(printed)
        assert main(["verify", str(problem), str(out)]) == 0
    finally:
        sys.setrecursionlimit(limit)


def test_cli_import_leaves_the_oracle_and_json_unloaded():
    code = (
        "import craigseq.cli, sys\n"
        "assert 'craigseq.oracle' not in sys.modules and 'json' not in sys.modules\n"
        "import craigseq\n"
        "assert {'gen_derivation', 'GenConfig'} <= set(dir(craigseq)) & set(craigseq.__all__)\n"
        "assert craigseq.gen_derivation is craigseq.oracle.gen_derivation\n"
    )
    src = str(Path(craigseq.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True)

