"""Plain-text wire formats: formulas, derivations, problem and result files.

Formulas use a bracketed infix grammar (``bot``, ``top``, ``P0(x1,x2)``,
``~A``, ``(A & B)``, ``(A | B)``, ``forall x0. A``, ``exists x0. A``) with
binders printed and parsed through named variables, so files never contain raw
de Bruijn indices.  Derivations are s-expressions carrying the claimed sequent
at every node.  Problem files name the four parts of a split and end with the
derivation; result files label an interpolant and the two witnesses.

Parsing canonicalizes all formula sets.  ``parse_formula``/``parse_derivation``
require full consumption of their input; unknown lines in result files are
ignored so that ``interpolate`` output can be piped back into ``verify``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .calculus import RULES, Derivation, FormulaSet, Sequent, premises, root
from .formulas import BOT, TOP, And, Atom, FAll, FEx, Formula, Not, Or, fold, free_vars
from .interpolation import InterpolationResult, SplitSequent

MAX_NESTING = 300


class ParseError(Exception):
    """Malformed input text."""


class RootMismatchError(Exception):
    """Problem file whose split parts do not recombine to the derivation root."""


_TOKEN_RE = re.compile(r"[ \t\r\n]*(=>|[()\[\];,.~&|:]|[A-Za-z]+[0-9]*)")
_PRED_RE = re.compile(r"P([0-9]+)")
_VAR_RE = re.compile(r"x([0-9]+)")


def decode(data: bytes) -> str:
    """Decode input bytes as UTF-8, reporting failures as parse errors."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip(" \t\r\n")
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r} at position {at}")
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._pos = 0

    def peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos][0]
        return None

    def take(self, expected: str | None = None) -> str:
        if self._pos >= len(self._tokens):
            raise ParseError(f"unexpected end of input (expected {expected or 'a token'})")
        tok, at = self._tokens[self._pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r} at position {at}")
        self._pos += 1
        return tok

    def expect_end(self) -> None:
        if self._pos < len(self._tokens):
            tok, at = self._tokens[self._pos]
            raise ParseError(f"trailing input {tok!r} at position {at}")

    def variable(self) -> int:
        tok = self.take()
        m = _VAR_RE.fullmatch(tok)
        if m is None:
            raise ParseError(f"expected a variable like x0, found {tok!r}")
        return int(m.group(1))

    def formula(self, depth: int = 0, bound: tuple[int, ...] = ()) -> Formula:
        # ``bound`` names the enclosing binders, innermost first: a name's position is its index.
        if depth > MAX_NESTING:
            raise ParseError("formula nesting too deep")
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input (expected a formula)")
        if tok == "bot":
            self.take()
            return BOT
        if tok == "top":
            self.take()
            return TOP
        if tok == "~":
            self.take()
            return Not(self.formula(depth + 1, bound))
        if tok == "(":
            self.take()
            left = self.formula(depth + 1, bound)
            op = self.take()
            if op not in ("&", "|"):
                raise ParseError(f"expected '&' or '|', found {op!r}")
            right = self.formula(depth + 1, bound)
            self.take(")")
            return And(left, right) if op == "&" else Or(left, right)
        if tok in ("forall", "exists"):
            self.take()
            v = self.variable()
            self.take(".")
            body = self.formula(depth + 1, (v, *bound))
            return FAll(body) if tok == "forall" else FEx(body)
        m = _PRED_RE.fullmatch(tok)
        if m is not None:
            self.take()
            self.take("(")
            names: list[int] = []
            if self.peek() != ")":
                names.append(self.variable())
                while self.peek() == ",":
                    self.take(",")
                    names.append(self.variable())
            self.take(")")
            args = (bound.index(a) if a in bound else a + len(bound) for a in names)
            return Atom(int(m.group(1)), tuple(args))
        raise ParseError(f"expected a formula, found {tok!r}")

    def formula_list(self, depth: int = 0) -> list[Formula]:
        self.take("[")
        out: list[Formula] = []
        if self.peek() != "]":
            out.append(self.formula(depth))
            while self.peek() == ";":
                self.take(";")
                out.append(self.formula(depth))
        self.take("]")
        return out

    def derivation(self, depth: int = 0) -> Derivation:
        if depth > MAX_NESTING:
            raise ParseError("derivation nesting too deep")
        self.take("(")
        tag = self.take()
        rule = RULES.get(tag)
        if rule is None:
            raise ParseError(f"unknown rule tag {tag!r}")
        ant = self.formula_list()
        self.take("=>")
        suc = self.formula_list()
        seq = Sequent(FormulaSet(ant), FormulaSet(suc))
        children: list[Derivation] = []
        while self.peek() != ")":
            if self.peek() is None:
                raise ParseError("unexpected end of input inside a derivation")
            children.append(self.derivation(depth + 1))
        self.take(")")
        if len(children) != rule.arity:
            noun = "premise" if rule.arity == 1 else "premises"
            raise ParseError(f"{tag} expects {rule.arity} {noun}, found {len(children)}")
        return rule.cls(seq, *children)


def parse_formula(text: str) -> Formula:
    """Parse one formula; the whole input must be consumed."""
    p = _Parser(text)
    f = p.formula()
    p.expect_end()
    return f


def parse_derivation(text: str) -> Derivation:
    """Parse one derivation s-expression; the whole input must be consumed."""
    p = _Parser(text)
    d = p.derivation()
    p.expect_end()
    return d


def _name(v: int, bound: tuple[int, ...]) -> int:
    """The name of de Bruijn variable ``v`` under binders named ``bound``, innermost first."""
    return bound[v] if v < len(bound) else v - len(bound)


def _binder(g: Formula, bound: tuple[int, ...]) -> tuple[int, ...]:
    """Name the binder of ``g``: the smallest name not free in ``g``."""
    used = {_name(v, bound) for v in free_vars(g)}
    return (min(set(range(len(used) + 1)) - used), *bound)


_PRINT = (
    lambda g, bound: f"P{g.pred}({','.join(f'x{_name(v, bound)}' for v in g.args)})",
    lambda g, bound: "bot",
    lambda g, bound: "top",
    lambda g, bound, left, right: f"({left} & {right})",
    lambda g, bound, left, right: f"({left} | {right})",
    lambda g, bound, sub: f"~{sub}",
    lambda g, bound, body: f"forall x{bound[0]}. {body}",
    lambda g, bound, body: f"exists x{bound[0]}. {body}",
)


def print_formula(f: Formula) -> str:
    """Render a formula; binders are shown with the smallest fresh variable."""
    return fold(f, _PRINT, (), _binder)


def print_formula_list(formulas: FormulaSet) -> str:
    return "[" + ";".join(print_formula(f) for f in formulas) + "]"


def print_sequent(seq: Sequent) -> str:
    return f"{print_formula_list(seq.antecedent)} => {print_formula_list(seq.succedent)}"


def print_derivation(d: Derivation) -> str:
    """Render a derivation as a single-line s-expression."""
    parts: list[str] = []
    todo: list[tuple[str, Derivation | None]] = [("", d)]
    while todo:
        text, node = todo.pop()
        parts.append(text)
        if node is not None:
            parts.append(f"({node.tag} {print_sequent(root(node))}")
            todo.append((")", None))
            todo += [(" ", child) for child in reversed(premises(node))]
    return "".join(parts)


@dataclass
class ProblemFile:
    """A split sequent (four named parts) together with a derivation of it."""

    gamma1: FormulaSet
    gamma2: FormulaSet
    delta1: FormulaSet
    delta2: FormulaSet
    derivation: Derivation

    def split(self) -> SplitSequent:
        return SplitSequent(self.gamma1, self.gamma2, self.delta1, self.delta2)


_HEADER_RE = re.compile(r"(gamma1|gamma2|delta1|delta2|derivation)\s*:(.*)", re.DOTALL)


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file.

    Zero or more part headers (``gamma1:``/``gamma2:``/``delta1:``/``delta2:``,
    each a formula list, at most once each, missing means empty) followed by
    ``derivation:`` and a derivation s-expression covering the rest of the
    file.  The parts must recombine to the root sequent of the derivation.
    """
    lines = text.splitlines()
    parts: dict[str, FormulaSet] = {}
    derivation: Derivation | None = None
    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        m = _HEADER_RE.fullmatch(line.strip())
        if m is None:
            raise ParseError(f"line {idx + 1}: expected a section header")
        name, rest = m.group(1), m.group(2)
        if name == "derivation":
            derivation = parse_derivation("\n".join([rest, *lines[idx + 1 :]]))
            break
        if name in parts:
            raise ParseError(f"line {idx + 1}: duplicate section {name!r}")
        p = _Parser(rest)
        parts[name] = FormulaSet(p.formula_list())
        p.expect_end()
    if derivation is None:
        raise ParseError("missing derivation section")
    pf = ProblemFile(
        parts.get("gamma1", FormulaSet()),
        parts.get("gamma2", FormulaSet()),
        parts.get("delta1", FormulaSet()),
        parts.get("delta2", FormulaSet()),
        derivation,
    )
    combined = pf.split().sequent()
    if combined != root(derivation):
        raise RootMismatchError(
            f"split parts give {print_sequent(combined)} "
            f"but the derivation root is {print_sequent(root(derivation))}"
        )
    return pf


def print_problem(pf: ProblemFile) -> str:
    lines = []
    for name, fs in (
        ("gamma1", pf.gamma1),
        ("gamma2", pf.gamma2),
        ("delta1", pf.delta1),
        ("delta2", pf.delta2),
    ):
        if fs:
            lines.append(f"{name}: {print_formula_list(fs)}")
    lines.append(f"derivation: {print_derivation(pf.derivation)}")
    return "\n".join(lines) + "\n"


_RESULT_RE = re.compile(r"(interpolant|left|right)\s*:(.*)", re.DOTALL)


def parse_result(text: str) -> InterpolationResult:
    """Parse a result file: labeled interpolant and witness entries.

    Lines that do not start with ``interpolant:``, ``left:`` or ``right:`` are
    ignored, so the full output of the ``interpolate`` command (including its
    verification report) parses as a result file.
    """
    entries: dict[str, str] = {}
    for idx, line in enumerate(text.splitlines()):
        m = _RESULT_RE.fullmatch(line.strip())
        if m is None:
            continue
        name, rest = m.group(1), m.group(2)
        if name in entries:
            raise ParseError(f"line {idx + 1}: duplicate entry {name!r}")
        entries[name] = rest
    for name in ("interpolant", "left", "right"):
        if name not in entries:
            raise ParseError(f"missing result entry {name!r}")
    return InterpolationResult(
        parse_formula(entries["interpolant"]),
        parse_derivation(entries["left"]),
        parse_derivation(entries["right"]),
    )


def print_result(result: InterpolationResult) -> str:
    return (
        f"interpolant: {print_formula(result.interpolant)}\n"
        f"left: {print_derivation(result.left_witness)}\n"
        f"right: {print_derivation(result.right_witness)}\n"
    )
