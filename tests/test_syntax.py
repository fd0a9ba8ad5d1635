"""Text formats: parsing, printing, round-trips, error reporting."""
from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings

from craigseq.calculus import (
    AndL,
    FormulaSet,
    Init,
    Sequent,
    WL,
    fset,
    root,
)
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Not, Or
from craigseq.interpolation import interpolate_strong, verify
from craigseq.oracle import GenConfig, gen_derivation, random_split
from craigseq.syntax import (
    MAX_NESTING,
    ParseError,
    ProblemFile,
    RootMismatchError,
    decode,
    parse_derivation,
    parse_formula,
    parse_problem,
    parse_result,
    print_derivation,
    print_formula,
    print_problem,
    print_result,
    print_sequent,
)
from support import derivations, formulas

p = Atom(0)
q = Atom(1)


# ------------------------------------------------------------------ formulas

def test_parse_formula_examples():
    assert parse_formula("bot") == BOT
    assert parse_formula("top") == TOP
    assert parse_formula("P0()") == Atom(0)
    assert parse_formula("P3(x1,x2)") == Atom(3, (1, 2))
    assert parse_formula("~P0()") == Not(p)
    assert parse_formula("(P0() & P1())") == And(p, q)
    assert parse_formula("(P0() | P1())") == Or(p, q)
    assert parse_formula("forall x5. P0(x5,x3)") == FAll(Atom(0, (0, 4)))
    assert parse_formula("exists x0. P0(x0)") == FEx(Atom(0, (0,)))
    assert parse_formula("forall x0. P1()") == FAll(q)


def test_parse_formula_whitespace_and_crlf():
    assert parse_formula("  ( P0()\t&\r\n P1() )  ") == And(p, q)


def test_print_formula_examples():
    assert print_formula(BOT) == "bot"
    assert print_formula(TOP) == "top"
    assert print_formula(Atom(0)) == "P0()"
    assert print_formula(Atom(3, (1, 2))) == "P3(x1,x2)"
    assert print_formula(Not(p)) == "~P0()"
    assert print_formula(And(p, q)) == "(P0() & P1())"
    assert print_formula(Or(Not(p), BOT)) == "(~P0() | bot)"
    # binder shown with the smallest variable not free in the scope
    assert print_formula(FAll(Atom(0, (0, 4)))) == "forall x0. P0(x0,x3)"
    assert print_formula(FAll(Atom(0, (0, 1)))) == "forall x1. P0(x1,x0)"
    assert print_formula(FEx(q)) == "exists x0. P1()"


def test_nested_binders_reuse_names():
    f = parse_formula("forall x0. forall x0. P0(x0)")
    assert f == FAll(FAll(Atom(0, (0,))))
    assert print_formula(f) == "forall x0. forall x0. P0(x0)"


def test_parse_formula_errors():
    for text in (
        "",
        "(P0() &",
        "(P0() & P1()",
        "P0() P1()",
        "P0",
        "x3",
        "forall x0 P0(x0)",
        "forall y. P0()",
        "(P0() ; P1())",
        "P0(,)",
        "@",
        "(P0() % P1())",
    ):
        with pytest.raises(ParseError):
            parse_formula(text)


def test_deep_nesting_is_a_parse_error_not_a_crash():
    with pytest.raises(ParseError):
        parse_formula("~" * 10_000 + "P0()")
    with pytest.raises(ParseError):
        parse_formula("(" * 10_000)
    with pytest.raises(ParseError):
        parse_derivation("(WL [] => [] " * 10_000)
    # right at the limit still parses
    deep = "~" * MAX_NESTING + "P0()"
    f = parse_formula(deep)
    assert print_formula(f) == deep


def test_decode_rejects_invalid_utf8():
    assert decode(b"P0()") == "P0()"
    with pytest.raises(ParseError):
        decode(b"\xff\xfe")


# --------------------------------------------------------------- derivations

def test_parse_derivation_example():
    d = parse_derivation("(Init [P0()] => [P0()])")
    assert d == Init(Sequent(fset(p), fset(p)))


def test_parse_derivation_nested():
    text = "(AndL [(P0() & P1())] => [P0()] (Init [P0();P1();(P0() & P1())] => [P0()]))"
    d = parse_derivation(text)
    assert d == AndL(
        Sequent(fset(And(p, q)), fset(p)),
        Init(Sequent(fset(p, q, And(p, q)), fset(p))),
    )
    assert print_derivation(d) == text


def test_print_derivation_without_recursion():
    seq = Sequent(fset(p), fset(p))
    d = Init(seq)
    for _ in range(5000):
        d = WL(seq, d)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = print_derivation(d)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "(WL [P0()] => [P0()] " * 5000 + "(Init [P0()] => [P0()])" + ")" * 5000


def test_parse_derivation_canonicalizes_sets():
    d = parse_derivation("(Init [P1();P0();P0()] => [P0()])")
    assert root(d).antecedent == fset(p, q)
    assert print_derivation(d) == "(Init [P0();P1()] => [P0()])"


def test_parse_derivation_errors():
    for text in (
        "",
        "(Init [P0()] => [P0()]",
        "(Init [P0()] => [P0()]) extra",
        "(Foo [] => [])",
        "(Init [P0()] => [P0()] (Init [P0()] => [P0()]))",
        "(AndL [P0()] => [P0()])",
        "(AndR [] => [] (Init [] => []))",
        "(Init [P0()] [P0()])",
        "Init [] => []",
    ):
        with pytest.raises(ParseError):
            parse_derivation(text)


_ARITY = {
    **dict.fromkeys(("Init", "BotL", "TopR"), 0),
    **dict.fromkeys(("AndL", "OrR", "NotL", "NotR", "AllL", "AllR", "ExL", "ExR", "WL", "WR"), 1),
    **dict.fromkeys(("AndR", "OrL"), 2),
}


@pytest.mark.parametrize(
    "tag, found",
    [(tag, n + delta) for tag, n in sorted(_ARITY.items()) for delta in (-1, 1) if n + delta >= 0],
)
def test_parse_derivation_premise_count(tag, found):
    n = _ARITY[tag]
    kids = " (Init [P0()] => [P0()])" * found
    noun = "premise" if n == 1 else "premises"
    with pytest.raises(ParseError) as exc:
        parse_derivation(f"({tag} [P0()] => [P0()]{kids})")
    assert str(exc.value) == f"{tag} expects {n} {noun}, found {found}"


def test_parse_derivation_unknown_tag():
    with pytest.raises(ParseError) as exc:
        parse_derivation("(Cut [P0()] => [P0()])")
    assert str(exc.value) == "unknown rule tag 'Cut'"


def test_print_sequent():
    s = Sequent(fset(p, q), FormulaSet())
    assert print_sequent(s) == "[P0();P1()] => []"


# ------------------------------------------------------------- problem files

def test_parse_problem_minimal():
    pf = parse_problem("derivation: (Init [] => [])\n")
    assert pf.gamma1 == FormulaSet()
    assert pf.derivation == Init(Sequent(FormulaSet(), FormulaSet()))


def test_parse_problem_headers_optional():
    pf = parse_problem(
        "gamma1: [P0()]\ndelta1: [P0()]\nderivation: (Init [P0()] => [P0()])\n"
    )
    assert pf.gamma1 == fset(p)
    assert pf.gamma2 == FormulaSet()
    assert pf.delta1 == fset(p)
    assert pf.delta2 == FormulaSet()
    assert pf.split().sequent() == root(pf.derivation)


def test_parse_problem_crlf_and_blank_lines():
    text = "gamma1: [P0()]\r\n\r\ndelta2: [P0()]\r\nderivation:\r\n (Init [P0()]\r\n => [P0()])\r\n"
    pf = parse_problem(text)
    assert pf.gamma1 == fset(p)
    assert pf.delta2 == fset(p)


def test_parse_problem_errors():
    with pytest.raises(ParseError):
        parse_problem("")
    with pytest.raises(ParseError):
        parse_problem("gamma1: [P0()]\n")
    with pytest.raises(ParseError):
        parse_problem("gamma1: []\ngamma1: []\nderivation: (Init [] => [])\n")
    with pytest.raises(ParseError):
        parse_problem("hello world\nderivation: (Init [] => [])\n")
    # header lines after the derivation belong to the derivation text
    with pytest.raises(ParseError):
        parse_problem("derivation: (Init [] => [])\ngamma1: []\n")


def test_parse_problem_root_mismatch():
    text = "gamma1: [P1()]\nderivation: (Init [P0()] => [P0()])\n"
    with pytest.raises(RootMismatchError) as exc:
        parse_problem(text)
    msg = str(exc.value)
    assert "[P1()] => []" in msg
    assert "[P0()] => [P0()]" in msg


def test_print_problem_round_trip():
    pf = parse_problem(
        "gamma1: [P0()]\ngamma2: [bot]\ndelta2: [P0()]\n"
        "derivation: (WL [P0();bot] => [P0()] (Init [P0()] => [P0()]))\n"
    )
    again = parse_problem(print_problem(pf))
    assert again == pf
    assert isinstance(pf.derivation, WL)


# -------------------------------------------------------------- result files

def test_result_round_trip():
    text = (
        "interpolant: P0()\n"
        "left: (Init [P0()] => [P0()])\n"
        "right: (Init [P0()] => [P0()])\n"
    )
    res = parse_result(text)
    assert res.interpolant == p
    assert res.left_witness == Init(Sequent(fset(p), fset(p)))
    assert print_result(res) == text


def test_result_ignores_report_lines():
    text = (
        "interpolant: bot\n"
        "left: (Init [P0()] => [P0();bot])\n"
        "right: (BotL [bot] => [])\n"
        "wellformed_left: PASS\n"
        "pos_right: PASS\n"
        "summary: PASS\n"
        "# a comment\n"
    )
    res = parse_result(text)
    assert res.interpolant == BOT


def test_result_errors():
    with pytest.raises(ParseError):
        parse_result("interpolant: P0()\nleft: (Init [P0()] => [P0()])\n")
    with pytest.raises(ParseError):
        parse_result(
            "interpolant: P0()\ninterpolant: P1()\n"
            "left: (Init [P0()] => [P0()])\nright: (Init [P0()] => [P0()])\n"
        )
    with pytest.raises(ParseError):
        parse_result(
            "interpolant: P0() trailing\n"
            "left: (Init [P0()] => [P0()])\nright: (Init [P0()] => [P0()])\n"
        )


@pytest.mark.xfail(
    strict=True,
    raises=ParseError,
    reason="ROADMAP item 1: a witness nests deeper than MAX_NESTING, so the printed result does not parse back",
)
def test_printed_result_of_280_node_problem_parses_back():
    # Fault (a): the input nests 262 deep, its left witness 316.
    d = gen_derivation(GenConfig(280, max_pred=4, seed=2, allow_quantifiers=True))
    sp = random_split(root(d), 2)
    res = interpolate_strong(d, sp)
    assert verify(sp, res).ok
    assert parse_result(print_result(res)) == res


# ----------------------------------------------------------------- properties

@given(formulas())
def test_formula_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(derivations())
def test_derivation_round_trip(d):
    assert parse_derivation(print_derivation(d)) == d


@settings(max_examples=50)
@given(derivations())
def test_problem_round_trip(d):
    original = ProblemFile(
        root(d).antecedent, FormulaSet(), FormulaSet(), root(d).succedent, d
    )
    pf = parse_problem(print_problem(original))
    assert pf == original


def test_fuzz_smoke_random_bytes():
    rng = random.Random(0)
    parsers = (parse_formula, parse_derivation, parse_problem)
    for i in range(2_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        parse = parsers[i % 3]
        try:
            parse(decode(blob))
        except (ParseError, RootMismatchError):
            pass


def test_fuzz_smoke_mutated_valid_text():
    rng = random.Random(1)
    base = "(AndL [(P0() & P1())] => [P0()] (Init [P0();P1();(P0() & P1())] => [P0()]))"
    for _ in range(500):
        i = rng.randrange(len(base))
        mutated = base[:i] + base[i + 1 :]
        try:
            parse_derivation(mutated)
        except ParseError:
            pass
