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

The text repeats every node's sequent, so reading and writing do their work
once per distinct formula.  No formula contains ``[``, ``]`` or ``;``: the
reader walks the derivation skeleton with an explicit stack, slices each
formula list at its ``]``, splits it on ``;`` and parses each distinct piece
once per call through a local memo.  The printer renders each distinct
formula once per call the same way.  Both memos live for one call only.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .calculus import RULES, Derivation, FormulaSet, Rule, Sequent, root
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


def _number(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past CPython's limit on int() conversion length
        raise ParseError(f"{what} number too long ({len(digits)} digits)") from None


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
        return _number(m.group(1), "variable")

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
            return Atom(_number(m.group(1), "predicate"), tuple(args))
        raise ParseError(f"expected a formula, found {tok!r}")


def parse_formula(text: str) -> Formula:
    """Parse one formula; the whole input must be consumed."""
    p = _Parser(text)
    f = p.formula()
    p.expect_end()
    return f


_WS = " \t\r\n"


def _token(text: str, pos: int, expected: str | None = None) -> tuple[str, int]:
    """The token after ``pos`` (white space skipped), which must be
    ``expected`` when that is given, and the position after it."""
    m = _TOKEN_RE.match(text, pos)
    if m is None:
        _expect_end(text, pos)
        raise ParseError(f"unexpected end of input (expected {expected or 'a token'})")
    tok = m.group(1)
    if expected is not None and tok != expected:
        raise ParseError(f"expected {expected!r} but found {tok!r} at position {m.start(1)}")
    return tok, m.end()


def _expect_end(text: str, pos: int) -> None:
    """Nothing but white space may follow ``pos``."""
    m = _TOKEN_RE.match(text, pos)
    if m is not None:
        raise ParseError(f"trailing input {m.group(1)!r} at position {m.start(1)}")
    rest = text[pos:].lstrip(_WS)
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r} at position {len(text) - len(rest)}")


def _formula_list(text: str, pos: int, memo: dict[str, Formula]) -> tuple[FormulaSet, int]:
    """Read ``[f;...;f]`` after ``pos``; return the set and the position after ``]``.

    No formula contains ``[``, ``]`` or ``;``, so the list ends at the first
    ``]`` and its formulas are the pieces between the ``;``.  ``memo`` maps a
    piece's text to its formula, so each distinct text is parsed once.
    """
    _, pos = _token(text, pos, "[")
    end = text.find("]", pos)
    if end < 0:
        raise ParseError("unexpected end of input (expected ']')")
    pieces = text[pos:end].split(";")
    if len(pieces) == 1 and not pieces[0].strip(_WS):
        return FormulaSet(), end + 1
    out: list[Formula] = []
    for piece in pieces:
        f = memo.get(piece)
        if f is None:
            f = memo[piece] = parse_formula(piece)
        out.append(f)
    return FormulaSet(out), end + 1


def _derivation(text: str, pos: int, memo: dict[str, Formula]) -> tuple[Derivation, int]:
    """Read ``(TAG [..] => [..] premises)`` after ``pos`` with an explicit
    stack; return the tree and the position after its ``)``."""
    open_nodes: list[tuple[Rule, Sequent, list[Derivation]]] = []  # rule, sequent, premises so far
    while True:
        if len(open_nodes) > MAX_NESTING:
            raise ParseError("derivation nesting too deep")
        _, pos = _token(text, pos, "(")
        tag, pos = _token(text, pos)
        rule = RULES.get(tag)
        if rule is None:
            raise ParseError(f"unknown rule tag {tag!r}")
        ant, pos = _formula_list(text, pos, memo)
        _, pos = _token(text, pos, "=>")
        suc, pos = _formula_list(text, pos, memo)
        open_nodes.append((rule, Sequent(ant, suc), []))
        while (m := _TOKEN_RE.match(text, pos)) is not None and m.group(1) == ")":
            pos = m.end()
            rule, seq, children = open_nodes.pop()
            if len(children) != rule.arity:
                noun = "premise" if rule.arity == 1 else "premises"
                raise ParseError(f"{rule.cls.tag} expects {rule.arity} {noun}, found {len(children)}")
            node = rule.cls(seq, *children)
            if not open_nodes:
                return node, pos
            open_nodes[-1][2].append(node)
        if m is None:
            _expect_end(text, pos)
            raise ParseError("unexpected end of input inside a derivation")


def _parse_derivation(text: str, memo: dict[str, Formula]) -> Derivation:
    d, pos = _derivation(text, 0, memo)
    _expect_end(text, pos)
    return d


def parse_derivation(text: str) -> Derivation:
    """Parse one derivation s-expression; the whole input must be consumed."""
    return _parse_derivation(text, {})


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


def print_formula_list(formulas: FormulaSet, memo: dict[Formula, str] | None = None) -> str:
    """Render a formula list.  ``memo`` maps formulas to their text; calls
    that share one render each distinct formula once between them."""
    if memo is None:
        memo = {}
    texts: list[str] = []
    for f in formulas:
        text = memo.get(f)
        if text is None:
            text = memo[f] = print_formula(f)
        texts.append(text)
    return "[" + ";".join(texts) + "]"


def print_sequent(seq: Sequent, memo: dict[Formula, str] | None = None) -> str:
    if memo is None:
        memo = {}
    return f"{print_formula_list(seq.antecedent, memo)} => {print_formula_list(seq.succedent, memo)}"


def print_derivation(d: Derivation, memo: dict[Formula, str] | None = None) -> str:
    """Render a derivation as a single-line s-expression; ``memo`` as for
    ``print_formula_list``."""
    if memo is None:
        memo = {}
    parts: list[str] = []
    todo: list[tuple[str, Derivation | None]] = [("", d)]
    while todo:
        text, node = todo.pop()
        parts.append(text)
        if node is not None:
            parts.append(f"({node.tag} {print_sequent(node.seq, memo)}")
            todo.append((")", None))
            todo += [(" ", child) for child in reversed(node.premises)]
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
    memo: dict[str, Formula] = {}
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
            derivation = _parse_derivation("\n".join([rest, *lines[idx + 1 :]]), memo)
            break
        if name in parts:
            raise ParseError(f"line {idx + 1}: duplicate section {name!r}")
        parts[name], end = _formula_list(rest, 0, memo)
        _expect_end(rest, end)
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
    memo: dict[Formula, str] = {}
    lines = []
    for name, fs in (
        ("gamma1", pf.gamma1),
        ("gamma2", pf.gamma2),
        ("delta1", pf.delta1),
        ("delta2", pf.delta2),
    ):
        if fs:
            lines.append(f"{name}: {print_formula_list(fs, memo)}")
    lines.append(f"derivation: {print_derivation(pf.derivation, memo)}")
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
    memo: dict[str, Formula] = {}
    return InterpolationResult(
        parse_formula(entries["interpolant"]),
        _parse_derivation(entries["left"], memo),
        _parse_derivation(entries["right"], memo),
    )


def print_result(result: InterpolationResult) -> str:
    memo: dict[Formula, str] = {}
    return (
        f"interpolant: {print_formula(result.interpolant)}\n"
        f"left: {print_derivation(result.left_witness, memo)}\n"
        f"right: {print_derivation(result.right_witness, memo)}\n"
    )
