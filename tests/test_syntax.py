"""Text formats: parsing, printing, round-trips, error reporting."""
from __future__ import annotations

import hashlib
import inspect
import random
import re
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
    size,
)
from craigseq.formulas import BOT, TOP, And, Atom, FAll, FEx, Not, Or, canonical_key
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
    for text, message in (
        ("", "unexpected end of input (expected a formula)"),
        ("P0(x0", "unexpected end of input (expected ')')"),
        ("forall x0", "unexpected end of input (expected '.')"),
        ("(P0() P1())", "expected '&' or '|', found 'P1' at position 6"),
        ("forall x0 P0()", "expected '.' but found 'P0' at position 10"),
        ("forall y. P0()", "expected a variable like x0, found 'y' at position 7"),
        ("P0(x0 x1)", "expected ')' but found 'x1' at position 6"),
        ("P0() P1()", "trailing input 'P1' at position 5"),
        ("P" + "9" * 5000 + "()", "predicate number too long (5000 digits)"),
        ("~" * (MAX_NESTING + 1) + "P0()", "formula nesting too deep"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == message


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


def _chain_text(depth: int) -> str:
    """A chain of ``depth`` WL nodes above an Init leaf: its leaf sits ``depth`` deep."""
    return "(WL [P0()] => [P0()] " * depth + "(Init [P0()] => [P0()])" + ")" * depth


def test_derivation_at_the_nesting_limit_parses():
    d = parse_derivation(_chain_text(MAX_NESTING))
    assert size(d) == MAX_NESTING + 1


def test_formulas_at_the_nesting_limit_parse_without_recursion():
    texts = (
        "~" * MAX_NESTING + "P0(x0)",
        "(P0() & " * MAX_NESTING + "P1()" + ")" * MAX_NESTING,
        "forall x0. " * MAX_NESTING + "P0(x0)",
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        printed = [print_formula(parse_formula(text)) for text in texts]
    finally:
        sys.setrecursionlimit(limit)
    assert printed == list(texts)


def test_derivation_past_the_nesting_limit_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_derivation(_chain_text(MAX_NESTING + 1))
    assert str(exc.value) == "derivation nesting too deep"


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


def test_errors_inside_formula_lists_count_from_the_start_of_the_input():
    for text, message in (
        ("(Init [P0()] => [P1(); P2(x0 x1)])", "expected ')' but found 'x1' at position 29"),
        ("(Init [P0()] => [P1(); P2(x0) P3()])", "trailing input 'P3' at position 30"),
        ("(Init [P0()] => [P1(); P2(x0) @ ])", "unexpected character '@' at position 30"),
        ("(Init [P0(x0 x1)] => [])", "expected ')' but found 'x1' at position 13"),
        # no formula contains ';' or ']', so a piece that ends early stops at one and names it
        ("(Init [P0(x0] => [])", "expected ')' but found ']' at position 12"),
        ("(Init [P0(); ] => [])", "expected a formula, found ']' at position 13"),
        ("(Init [P0(] => [])", "expected a variable like x0, found ']' at position 10"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_derivation(text)
        assert str(exc.value) == message


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


def test_header_errors_name_the_line_and_the_section():
    # positions count from the start of the header's line; the derivation
    # section's messages keep counting from the text after its colon
    derivation = "derivation: (Init [P0()] => [P0()])\n"
    for text, message in (
        ("gamma1: [P0(]\n" + derivation, "line 1: gamma1: expected a variable like x0, found ']' at position 12"),
        ("\n  delta2 : [P0()] x\n" + derivation, "line 2: delta2: trailing input 'x' at position 18"),
        ("gamma2: [P0()\n" + derivation, "line 1: gamma2: unexpected end of input (expected ']')"),
        ("delta1: [P0()]\nderivation: (Init [P0(] => [])\n", "expected a variable like x0, found ']' at position 11"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert str(exc.value) == message


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


def _seeded_problems(sizes, seeds):
    """Seeded quantified problems with their interpolation results."""
    for n in sizes:
        for seed in seeds:
            d = gen_derivation(GenConfig(n, 4, seed, True))
            sp = random_split(root(d), seed)
            yield ProblemFile(sp.gamma1, sp.gamma2, sp.delta1, sp.delta2, d), interpolate_strong(d, sp)


def test_printed_corpus_digest_and_round_trip():
    # The digest was taken from the printer that rendered every formula
    # occurrence afresh; the memoised printer must print the same bytes.
    h = hashlib.sha256()
    for pf, res in _seeded_problems((30, 70, 110), range(10)):
        problem, result = print_problem(pf), print_result(res)
        assert parse_problem(problem) == pf
        assert parse_result(result) == res
        h.update(problem.encode())
        h.update(result.encode())
    assert h.hexdigest() == "764f31aa201af488c9da7dc74ae1b54dc6dd2972cda3aa79c091184ad1fec446"


def _listed(*witnesses) -> list:
    """Every member of every sequent of the witnesses, constants left out."""
    out = []
    todo = list(witnesses)
    while todo:
        node = todo.pop()
        out += [f for f in (*node.seq.antecedent, *node.seq.succedent) if f is not BOT and f is not TOP]
        todo += node.premises
    return out


def test_parse_result_shares_equal_formulas_within_one_call_only():
    _, res = next(_seeded_problems((70,), (3,)))
    text = print_result(res)
    first, second = parse_result(text), parse_result(text)
    assert first == second == res
    by_key: dict = {}
    for f in _listed(first.left_witness, first.right_witness):
        assert by_key.setdefault(canonical_key(f), f) is f
    left = {id(f) for f in _listed(first.left_witness)}
    assert left & {id(f) for f in _listed(first.right_witness)}, "the witnesses hold no formula in common"
    ids = {id(f) for f in _listed(first.left_witness, first.right_witness)}
    assert ids.isdisjoint(id(f) for f in _listed(second.left_witness, second.right_witness))
    # so are equal subformulas, the interpolant's among them, read from any piece
    subformulas = []
    for parsed in (first, second):
        subs, todo = [], [parsed.interpolant, *_listed(parsed.left_witness, parsed.right_witness)]
        while todo:
            g = todo.pop()
            subs.append(g)
            todo += [getattr(g, name) for name in ("left", "right", "sub", "body") if hasattr(g, name)]
        subformulas.append([g for g in subs if g is not BOT and g is not TOP])
    by_key = {}
    for g in subformulas[0]:
        assert by_key.setdefault(canonical_key(g), g) is g
    assert {id(g) for g in subformulas[0]}.isdisjoint(id(g) for g in subformulas[1])


@pytest.mark.xfail(
    strict=True,
    raises=ParseError,
    reason="ROADMAP item 2: a witness nests deeper than MAX_NESTING, so the printed result does not parse back",
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


_DELIMITERS = ("[", "]", ";", "=>", ")")


def _mutant(rng: random.Random, text: str) -> str:
    """``text`` with one delimiter deleted or inserted, or with ``[``, ``]``
    or ``;`` put inside a formula."""
    kind = rng.randrange(3)
    if kind == 0:
        tok = rng.choice(_DELIMITERS)
        at = rng.choice([m.start() for m in re.finditer(re.escape(tok), text)])
        return text[:at] + text[at + len(tok) :]
    if kind == 1:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(_DELIMITERS) + text[at:]
    at = rng.choice([m.end() for m in re.finditer(r"P[0-9]+\(|[&|~.] ?", text)])
    return text[:at] + rng.choice("[];") + text[at:]


def test_fuzz_mutated_printed_files():
    rng = random.Random(8)
    texts = []
    for pf, res in _seeded_problems((30,), range(4)):
        texts += [(parse_problem, print_problem(pf)), (parse_result, print_result(res))]
    for i in range(1_500):
        parse, text = texts[i % len(texts)]
        try:
            parse(_mutant(rng, text))
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
