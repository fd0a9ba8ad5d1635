"""Command line interface: outputs and exit codes."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import craigseq
from craigseq import calculus, cli
from craigseq.calculus import EMPTY, WL, Init, Sequent, fset, root
from craigseq.cli import main
from craigseq.formulas import Atom, Not
from craigseq.interpolation import interpolate_strong
from craigseq.oracle import GenConfig, gen_derivation, random_split
from craigseq.syntax import ProblemFile, print_derivation, print_problem
from support import recursion_limit

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


#: The README's ``AndL`` derivation and what ``check`` prints for it.
AND_L_DERIVATION = "(AndL [(P0() & P1())] => [P0()] (Init [P0();P1();(P0() & P1())] => [P0()]))"
AND_L_CHECK = "ε: AndL principal=(P0() & P1())\n0: Init principal=P0()\nPASS\n"


def test_check_pass(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(AND_L_DERIVATION)
    code = main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == AND_L_CHECK


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


def test_check_resolves_an_interpolated_derivation_afresh(tmp_path, capsys, monkeypatch):
    # The interpolator keeps each node's rule instance on the node; check
    # reads none of them.  It prints the same bytes for a derivation after
    # interpolation, and after every kept rule instance is forged to None.
    d = gen_derivation(GenConfig(40, 3, 7, True))
    f = tmp_path / "d.txt"
    f.write_text(print_derivation(d))
    monkeypatch.setattr(cli, "parse_derivation", lambda text: d)  # check this tree, not a parsed copy
    assert main(["check", str(f)]) == 0
    fresh = capsys.readouterr().out
    interpolate_strong(d, random_split(root(d), 7))
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == fresh
    stack = [d]
    while stack:
        node = stack.pop()
        object.__setattr__(node, "_rule", None)
        stack += node.premises
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == fresh


def test_check_labels_a_node_from_its_parent(tmp_path, capsys, monkeypatch):
    # 290 nested WL nodes, checked with the speller of a whole path made to
    # fail: each label is its parent's and a premise index.
    depth = 290
    d = Init(Sequent(fset(Atom(0)), fset(Atom(0))))
    for k in range(1, depth + 1):
        seq = root(d)
        d = WL(Sequent(seq.antecedent.add(Atom(k)), seq.succedent), d)
    f = tmp_path / "d.txt"
    f.write_text(print_derivation(d))

    def spelled(where):
        raise AssertionError("a label walked the path from the root")

    monkeypatch.setattr(calculus, "_path", spelled)
    monkeypatch.setattr(cli, "_path", spelled, raising=False)
    assert main(["check", str(f)]) == 0
    labels = ["ε"] + [".".join("0" * k) for k in range(1, depth + 1)]
    lines = [f"{label}: WL principal=P{depth - k}()" for k, label in enumerate(labels[:-1])]
    lines += [f"{labels[-1]}: Init principal=P0()", "PASS"]
    assert capsys.readouterr().out.splitlines() == lines


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
    code = main(["interpolate", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "interpolant: P0()"
    assert out.splitlines()[-1] == "summary: PASS"


#: Digest of the exit codes and outputs of ``craigseq interpolate --weak`` on
#: ``_bare_derivations``, taken when that flag read bare derivations.
WEAK_SHA256 = "e581d86cd956775e3b30f3f39f84b6d8bf802162153aef6ba06dcd77dd71d17e"


def _bare_derivations() -> list[str]:
    """The README's two one-line derivations and 12 seeded ones, some after blank lines."""
    texts = [
        "(Init [P0()] => [P0()])\n",
        "(AndL [(P0() & P1())] => [P0()] (Init [P0();P1();(P0() & P1())] => [P0()]))\n",
    ]
    for seed in range(12):
        d = gen_derivation(GenConfig(10 + 10 * seed, 4, seed, seed % 2 == 1))
        texts.append("\n" * (seed % 3) + print_derivation(d) + "\n")
    return texts


def test_bare_derivation_interpolates_as_the_weak_split_and_verifies(tmp_path, capsys):
    drv, result = tmp_path / "d.drv", tmp_path / "result.txt"
    h = hashlib.sha256()
    for text in _bare_derivations():
        drv.write_text(text)
        code = main(["interpolate", str(drv)])
        out = capsys.readouterr().out
        h.update(f"{code}\n{out}".encode())
        result.write_text(out)
        assert main(["verify", str(drv), str(result)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "summary: PASS"
    assert h.hexdigest() == WEAK_SHA256
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--weak", str(drv)])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_problem_with_other_line_ends_interpolates_and_verifies(tmp_path, capsys, end):
    problem = tmp_path / "problem.txt"
    problem.write_bytes(INIT_PROBLEM.replace("\n", end).encode())
    assert main(["interpolate", str(problem)]) == 0
    out = capsys.readouterr().out
    assert out == INIT_STDOUT
    result = tmp_path / "result.txt"
    result.write_bytes(out.replace("\n", end).encode())
    assert main(["verify", str(problem), str(result)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "summary: PASS"


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


#: Per ``verify`` conjunct: a problem and a result that fails that conjunct
#: alone, as ``(gamma1, delta2, derivation, interpolant, left, right)``; ``C``
#: in a witness stands for the interpolant.  The first four tamper with one
#: witness of the ``Init`` problem.  In the last four every witness is well
#: formed with the right root, and the interpolant holds a predicate that one
#: part does not hold with that polarity.
TAMPERED = {
    "wellformed_left": ("P0()", "P0()", "(Init [P0()] => [P0()])", "P0()",
                        "(BotL [P0()] => [P0()])", "(Init [P0()] => [P0()])"),
    "wellformed_right": ("P0()", "P0()", "(Init [P0()] => [P0()])", "P0()",
                         "(Init [P0()] => [P0()])", "(TopR [P0()] => [P0()])"),
    "root_left": ("P0()", "P0()", "(Init [P0()] => [P0()])", "P0()",
                  "(Init [P0()] => [P0(); P1()])", "(Init [P0()] => [P0()])"),
    "root_right": ("P0()", "P0()", "(Init [P0()] => [P0()])", "P0()",
                   "(Init [P0()] => [P0()])", "(Init [P0(); P1()] => [P0()])"),
    "pos_left": (
        "P1()", "P1(); P0()", "(Init [P1()] => [P0(); P1()])", "(P1() | (P0() & bot))",
        "(OrR [P1()] => [C] (Init [P1()] => [P1(); (P0() & bot); C]))",
        "(OrL [C] => [P0(); P1()] (Init [P1(); C] => [P0(); P1()]) "
        "(AndL [(P0() & bot); C] => [P0(); P1()] (BotL [P0(); bot; (P0() & bot); C] => [P0(); P1()])))",
    ),
    "pos_right": (
        "P1(); P0()", "P1()", "(Init [P0(); P1()] => [P1()])", "(P1() & (P0() | top))",
        "(AndR [P0(); P1()] => [C] (Init [P0(); P1()] => [P1(); C]) "
        "(OrR [P0(); P1()] => [(P0() | top); C] (TopR [P0(); P1()] => [P0(); top; (P0() | top); C])))",
        "(AndL [C] => [P1()] (Init [P1(); (P0() | top); C] => [P1()]))",
    ),
    "neg_left": (
        "P1()", "P1(); ~P0()", "(Init [P1()] => [P1(); ~P0()])", "(P1() | (~P0() & bot))",
        "(OrR [P1()] => [C] (Init [P1()] => [P1(); (~P0() & bot); C]))",
        "(OrL [C] => [P1(); ~P0()] (Init [P1(); C] => [P1(); ~P0()]) "
        "(AndL [(~P0() & bot); C] => [P1(); ~P0()] (BotL [~P0(); bot; (~P0() & bot); C] => [P1(); ~P0()])))",
    ),
    "neg_right": (
        "P1(); ~P0()", "P1()", "(Init [P1(); ~P0()] => [P1()])", "(P1() & (~P0() | top))",
        "(AndR [P1(); ~P0()] => [C] (Init [P1(); ~P0()] => [P1(); C]) "
        "(OrR [P1(); ~P0()] => [(~P0() | top); C] (TopR [P1(); ~P0()] => [~P0(); top; (~P0() | top); C])))",
        "(AndL [C] => [P1()] (Init [P1(); (~P0() | top); C] => [P1()]))",
    ),
}


@pytest.mark.parametrize("conjunct", TAMPERED)
def test_verify_fails_each_conjunct_alone(tmp_path, capsys, conjunct):
    gamma1, delta2, derivation, c, left, right = TAMPERED[conjunct]
    left, right = left.replace("C", c), right.replace("C", c)
    problem = tmp_path / "problem.txt"
    problem.write_text(f"gamma1: [{gamma1}]\ndelta2: [{delta2}]\nderivation: {derivation}\n")
    result = tmp_path / "result.txt"
    result.write_text(f"interpolant: {c}\nleft: {left}\nright: {right}\n")
    assert main(["verify", str(problem), str(result)]) == 1
    names = ["wellformed_left", "wellformed_right", "root_left", "root_right",
             "pos_left", "pos_right", "neg_left", "neg_right"]
    expected = [f"{name}: {'FAIL' if name == conjunct else 'PASS'}" for name in names]
    assert capsys.readouterr().out.splitlines() == expected + ["summary: FAIL"]
    # the witnesses that the report passes as well formed are so for check too
    for side, text in (("left", left), ("right", right)):
        if conjunct != f"wellformed_{side}":
            witness = tmp_path / f"{side}.txt"
            witness.write_text(text)
            assert main(["check", str(witness)]) == 0
            capsys.readouterr()


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


def test_mismatched_split_is_one_error_class(tmp_path, capsys):
    text = "gamma1: [P1()]\nderivation: (Init [P0()] => [P0()])\n"
    with pytest.raises(craigseq.InterpolationError) as from_file:
        craigseq.parse_problem(text)
    d = craigseq.parse_derivation("(Init [P0()] => [P0()])")
    with pytest.raises(craigseq.InterpolationError) as from_call:
        craigseq.interpolate_strong(d, craigseq.SplitSequent(fset(Atom(1)), EMPTY, EMPTY, EMPTY))
    assert type(from_file.value) is type(from_call.value) is craigseq.SplitMismatchError
    f = tmp_path / "problem.txt"
    f.write_text(text)
    assert main(["interpolate", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error: split parts give ")


def test_non_wellformed_problem_exits_1(tmp_path, capsys):
    f = tmp_path / "problem.txt"
    f.write_text("gamma1: [P0()]\ndelta2: [P1()]\nderivation: (Init [P0()] => [P1()])\n")
    code = main(["interpolate", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == 'error: derivation is not wellformed at node path "ε"\n'


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


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_input_too_large_exits_2_with_one_error_line(problem_file, capsys, monkeypatch, error):
    def parse(text):
        raise error

    monkeypatch.setattr(cli, "parse_problem", parse)
    code = main(["interpolate", problem_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: input too deep or too large to process ({error.__name__})\n"


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
    with recursion_limit(1000):
        assert main(["interpolate", str(problem)]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[-1] == "summary: PASS"
        out.write_text(printed)
        assert main(["verify", str(problem), str(out)]) == 0


def test_cli_import_leaves_the_oracle_and_json_unloaded():
    code = (
        "import craigseq.cli, sys\n"
        "assert 'craigseq.oracle' not in sys.modules and 'json' not in sys.modules\n"
        "import craigseq\n"
        "assert {'gen_derivation', 'GenConfig'} <= set(dir(craigseq)) & set(craigseq.__all__)\n"
        "assert craigseq.gen_derivation is craigseq.oracle.gen_derivation\n"
    )
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)
    # Without site, which imports pathlib itself, the command does not need it.
    code = "import craigseq.cli, sys\nassert 'pathlib' not in sys.modules\n"
    subprocess.run([sys.executable, "-S", "-c", code], env=_child_env(), check=True)
    # Nodes do not need dataclasses, which imports inspect: not at import, and
    # not on the path a command takes through the README problem.
    code = textwrap.dedent(
        r"""
        import sys
        import craigseq.cli
        from craigseq.interpolation import interpolate_strong, verify
        from craigseq.syntax import parse_problem, parse_result, print_derivation, print_formula

        unloaded = lambda: not {"dataclasses", "inspect"} & set(sys.modules)
        assert unloaded()
        problem = parse_problem(sys.argv[1])
        result = interpolate_strong(problem.derivation, problem.split())
        text = f"interpolant: {print_formula(result.interpolant)}\n"
        text += f"left: {print_derivation(result.left_witness)}\nright: {print_derivation(result.right_witness)}\n"
        assert verify(problem.split(), parse_result(text)).ok
        assert repr(problem) and repr(result) and hash(result) == hash(parse_result(text))
        assert unloaded()
        """
    )
    for flags in ([], ["-S"]):
        subprocess.run([sys.executable, *flags, "-c", code, INIT_PROBLEM], env=_child_env(), check=True)


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(Path(craigseq.__file__).parents[1])}


def _run_child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``python -m craigseq.cli ARGS`` in a child process, as users run it."""
    return subprocess.run(
        [sys.executable, "-m", "craigseq.cli", *args], env=_child_env(), capture_output=True, **kwargs
    )


def _assert_one_error_line(err: bytes) -> None:
    text = err.decode()
    assert [line.startswith("error:") for line in text.splitlines()] == [True]
    assert "Traceback" not in text and "Exception ignored" not in text


@pytest.fixture()
def quantified_problem(tmp_path):
    """The seeded 110-node quantified problem; its result is far past stdout's buffer."""
    d = gen_derivation(GenConfig(110, 4, 1, True))
    f = tmp_path / "quantified.txt"
    f.write_text(print_problem(ProblemFile(*random_split(root(d), 1), d)))
    return str(f)


def test_process_path_prints_what_main_prints(quantified_problem, problem_file, tmp_path, capsys):
    assert main(["interpolate", quantified_problem]) == 0
    printed = capsys.readouterr().out
    child = _run_child(["interpolate", quantified_problem])
    assert (child.returncode, child.stdout, child.stderr) == (0, printed.encode(), b"")

    result, bad = tmp_path / "result.txt", tmp_path / "bad-result.txt"
    result.write_bytes(_run_child(["interpolate", problem_file], check=True).stdout)
    child = _run_child(["verify", problem_file, str(result)])
    assert (child.returncode, child.stdout.splitlines()[-1]) == (0, b"summary: PASS")
    # A stdout closed before the start is None in the child: nothing to flush.
    child = _run_child(["verify", problem_file, str(result)], preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (0, b"")
    bad.write_text(result.read_text().replace("interpolant: P0()", "interpolant: bot"))
    child = _run_child(["verify", problem_file, str(bad)])
    assert (child.returncode, child.stdout.splitlines()[-1]) == (1, b"summary: FAIL")
    bad.write_text("interpolant: P0(\n")
    child = _run_child(["verify", problem_file, str(bad)])
    assert (child.returncode, child.stdout) == (2, b"")
    _assert_one_error_line(child.stderr)

    child = _run_child(["--help"])
    assert child.returncode == 0
    assert child.stdout.startswith(b"usage: craigseq ")


@pytest.mark.parametrize(
    "locale_env", [{"PYTHONIOENCODING": "ascii"}, {"LC_ALL": "C", "PYTHONUTF8": "0"}], ids=["ascii", "c-locale"]
)
def test_check_writes_utf8_whatever_the_locale(tmp_path, locale_env):
    f = tmp_path / "d.txt"
    f.write_text(AND_L_DERIVATION)
    env = {**_child_env(), "PYTHONIOENCODING": "utf-8"}
    utf8 = subprocess.run([sys.executable, "-m", "craigseq.cli", "check", str(f)], env=env, capture_output=True)
    env.pop("PYTHONIOENCODING")
    env.update(locale_env)
    child = subprocess.run([sys.executable, "-m", "craigseq.cli", "check", str(f)], env=env, capture_output=True)
    assert (child.returncode, child.stdout, child.stderr) == (0, utf8.stdout, b"")
    assert child.stdout == AND_L_CHECK.encode()
    # the error line that names a refused node's path is UTF-8 too
    f.write_text("(AndL [(P0() & P1())] => [P0()] (Init [P0()] => [P0()]))")
    child = subprocess.run([sys.executable, "-m", "craigseq.cli", "interpolate", str(f)], env=env, capture_output=True)
    assert (child.returncode, child.stderr) == (1, 'error: derivation is not wellformed at node path "ε"\n'.encode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["interpolate", "verify", "interpolate-large"])
def test_unwritable_stdout_exits_2_with_one_error_line(
    problem_file, quantified_problem, tmp_path, command, unbuffered
):
    # A large result fails inside main(), which reports it and returns 2, and
    # then again at the final flush, which must not report it twice.
    if command == "verify":
        result = tmp_path / "result.txt"
        result.write_bytes(_run_child(["interpolate", problem_file], check=True).stdout)
        args = ["verify", problem_file, str(result)]
    else:
        args = ["interpolate", quantified_problem if command == "interpolate-large" else problem_file]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        child = subprocess.run(
            [sys.executable, "-m", "craigseq.cli", *args], env=env, stdout=full, stderr=subprocess.PIPE
        )
    assert child.returncode == 2
    _assert_one_error_line(child.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("case", ["missing-file", "mismatched-split", "large-result"])
def test_unwritable_stderr_keeps_the_status(quantified_problem, tmp_path, case):
    # The error line cannot be written, so the status alone tells: 2 for an
    # OSError, 1 for an InterpolationError, and 2 when stdout and stderr are
    # both full and the result is past stdout's buffer.
    if case == "missing-file":
        args, status = ["verify", str(tmp_path / "missing.txt"), str(tmp_path / "missing.txt")], 2
    elif case == "mismatched-split":
        bad = tmp_path / "mismatch.txt"
        bad.write_text("gamma1: [P1()]\nderivation: (Init [P0()] => [P0()])\n")
        args, status = ["interpolate", str(bad)], 1
    else:
        args, status = ["interpolate", quantified_problem], 2
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        child = subprocess.run(
            [sys.executable, "-m", "craigseq.cli", *args],
            env=env,
            stdout=full if case == "large-result" else subprocess.DEVNULL,
            stderr=full,
        )
    assert child.returncode == status
