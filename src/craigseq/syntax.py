"""Plain-text wire formats: formulas, derivations, problem and result files.

Formulas use a bracketed infix grammar (``bot``, ``top``, ``P0(x1,x2)``,
``~A``, ``(A & B)``, ``(A | B)``, ``forall x0. A``, ``exists x0. A``) with
binders printed and parsed through named variables, so files never contain raw
de Bruijn indices.  Derivations are s-expressions carrying the claimed sequent
at every node.  A problem file is a bare derivation, which is the weak split
of its root, or names the four parts of a split and ends with the derivation;
result files label an interpolant and the two witnesses.  A label is a word
followed by ``:``, read with the same token cursor as the rest.

Parsing canonicalizes all formula sets.  ``parse_formula``/``parse_derivation``
require full consumption of their input; unknown lines in result files are
ignored so that ``interpolate`` output can be piped back into ``verify``.
Both break lines only at ``\r\n``, ``\r`` and ``\n`` and trim only the
reader's white space, so any other character reaches the reader.

Every token is read through one cursor (``_token``/``_expect_end``), in
reading order, so an input is reported at its first fault, at a position
counted from the start of the text read.  The cursor has no bound: only
``_expect_end`` takes one, to check that a formula fills its piece of a
formula list.  Both readers keep their unfinished nodes on an explicit stack:
the derivation skeleton and each formula.  ``MAX_NESTING`` bounds both
stacks; it is an input limit, kept until the benchmark reports the fault
problems apart.

The text repeats every node's sequent, so reading works once per distinct
formula and writing once per formula object.  No formula contains ``[``, ``]``
or ``;``: the reader slices each formula list at its ``]``, splits it on ``;``
and reads each distinct piece once per call, in place, through a local memo.
The same memo is the call's node table: every node the reader builds is kept
there under its tag and its children's identities, an atom under its predicate
and de Bruijn arguments, so equal subformulas read within one call, from any
piece, are one object.  It also keeps each list's set under the list's text,
so a list text read again within the call, as a node's unchanged side repeats
its premise's, gives the same set object.  The memo lives for one call only,
so no two calls share a node or a set.  A formula keeps its printed text on
the node, so the printer renders each formula object once, however many calls
print it.
"""
from __future__ import annotations

import re
import sys
from typing import Any, Callable, NamedTuple

from .calculus import EMPTY, RULES, Derivation, FormulaSet, Rule, Sequent, _nested, root
from .formulas import BOT, TOP, And, Atom, FAll, FEx, Formula, Not, Or, _set, fold, free_vars
from .interpolation import InterpolationResult, SplitMismatchError, SplitSequent, _weak_split

MAX_NESTING = 300


class ParseError(Exception):
    """Malformed input text."""


_TOKEN_RE = re.compile(r"[ \t\r\n]*(=>|[()\[\];,.~&|:]|[A-Za-z]+[0-9]*)")
_PRED_RE = re.compile(r"P([0-9]+)")
_VAR_RE = re.compile(r"x([0-9]+)")


def decode(data: bytes) -> str:
    """Decode input bytes as UTF-8, reporting failures as parse errors."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None


def _number(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past CPython's limit on int() conversion length
        raise ParseError(f"{what} number too long ({len(digits)} digits)") from None


_WS = " \t\r\n"
#: The default ``end`` of ``_expect_end``: no bound, as ``re`` and slices clamp it.
_NO_END = sys.maxsize


def _token(text: str, pos: int, expected: str | None = None, noun: str | None = None) -> tuple[str, int]:
    """The token after ``pos`` (white space skipped), which must be
    ``expected`` when that is given, and the position after it.  ``noun``
    names what was expected when the input ends here.  Positions count from
    the start of ``text``; the token ends at the position returned, so a
    message about it gives that position less ``len(tok)``."""
    m = _TOKEN_RE.match(text, pos)
    if m is None:
        _expect_end(text, pos)
        raise ParseError(f"unexpected end of input (expected {noun or (repr(expected) if expected else 'a token')})")
    tok = m.group(1)
    if expected is not None and tok != expected:
        raise ParseError(f"expected {expected!r} but found {tok!r} at position {m.start(1)}")
    return tok, m.end()


def _expect_end(text: str, pos: int, end: int = _NO_END) -> None:
    """Nothing but white space may follow ``pos``, up to ``end``."""
    m = _TOKEN_RE.match(text, pos, end)
    if m is not None:
        raise ParseError(f"trailing input {m.group(1)!r} at position {m.start(1)}")
    tail = text[pos:end]
    rest = tail.lstrip(_WS)
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r} at position {pos + len(tail) - len(rest)}")


def _next_is(text: str, pos: int, tok: str) -> bool:
    """Whether the token after ``pos`` is ``tok``."""
    m = _TOKEN_RE.match(text, pos)
    return m is not None and m.group(1) == tok


def _variable(text: str, pos: int) -> tuple[int, int]:
    tok, pos = _token(text, pos)
    m = _VAR_RE.fullmatch(tok)
    if m is None:
        raise ParseError(f"expected a variable like x0, found {tok!r} at position {pos - len(tok)}")
    return _number(m.group(1), "variable"), pos


def _shared(memo: dict[Any, Any], key: tuple[Any, ...], build: Callable[..., Formula], *fields: Any) -> Formula:
    """The node kept in ``memo`` under ``key``, built as ``build(*fields)``
    and kept there the first time.  Keys hold the ids of child nodes: the
    memo keeps those children alive, so no id is reused while it lives."""
    f = memo.get(key)
    if f is None:
        f = memo[key] = build(*fields)
    return f


def _formula(text: str, pos: int, memo: dict[Any, Any]) -> tuple[Formula, int]:
    """Read one formula after ``pos`` with an explicit stack; return it and
    the position after it.  Its nodes come from ``memo``, the call's node
    table, which maps a node's key to the node."""
    # An unfinished node is ("~", None), ("(", None), (op, left operand) or
    # (quantifier, enclosing binder names).  ``bound`` names the binders
    # around the current position, innermost first: a name's position is its index.
    open_nodes: list[tuple[str, Any]] = []
    bound: tuple[int, ...] = ()
    while True:
        if len(open_nodes) > MAX_NESTING:
            raise ParseError("formula nesting too deep")
        tok, pos = _token(text, pos, noun="a formula")
        if tok in ("~", "("):
            open_nodes.append((tok, None))
            continue
        if tok in ("forall", "exists"):
            v, pos = _variable(text, pos)
            _, pos = _token(text, pos, ".")
            open_nodes.append((tok, bound))
            bound = (v, *bound)
            continue
        if tok in ("bot", "top"):
            f: Formula = BOT if tok == "bot" else TOP
        elif (m := _PRED_RE.fullmatch(tok)) is not None:
            _, pos = _token(text, pos, "(")
            names: list[int] = []
            if not _next_is(text, pos, ")"):
                v, pos = _variable(text, pos)
                names.append(v)
                while _next_is(text, pos, ","):
                    v, pos = _variable(text, _token(text, pos)[1])
                    names.append(v)
            _, pos = _token(text, pos, ")")
            pred = _number(m.group(1), "predicate")
            args = tuple([bound.index(a) if a in bound else a + len(bound) for a in names])
            f = _shared(memo, (Atom._tag, pred, args), Atom, pred, args)
        else:
            raise ParseError(f"expected a formula, found {tok!r} at position {pos - len(tok)}")
        while open_nodes:
            kind, held = open_nodes[-1]
            if kind == "(":
                op, pos = _token(text, pos)
                if op not in ("&", "|"):
                    raise ParseError(f"expected '&' or '|', found {op!r} at position {pos - len(op)}")
                open_nodes[-1] = (op, f)
                break  # read the right operand
            open_nodes.pop()
            children: tuple[Formula, ...] = (f,)
            if kind == "~":
                cls: type[Formula] = Not
            elif kind in ("&", "|"):
                _, pos = _token(text, pos, ")")
                cls, children = (And if kind == "&" else Or), (held, f)
            else:
                cls = FAll if kind == "forall" else FEx
                bound = held
            f = _shared(memo, (cls._tag, *map(id, children)), cls, *children)
        else:
            return f, pos


def _parse_formula(text: str, memo: dict[Any, Any]) -> Formula:
    f, pos = _formula(text, 0, memo)
    _expect_end(text, pos)
    return f


def parse_formula(text: str) -> Formula:
    """Parse one formula; the whole input must be consumed."""
    return _parse_formula(text, {})


def _formula_list(text: str, pos: int, memo: dict[Any, Any]) -> tuple[FormulaSet, int]:
    """Read ``[f;...;f]`` after ``pos``; return the set and the position after ``]``.

    No formula contains ``[``, ``]`` or ``;``, so the list ends at the first
    ``]`` and its formulas are the pieces between the ``;``.  ``memo`` maps a
    piece's text to its formula, so each distinct text is parsed once; it is
    also the node table of ``_formula``, whose keys are tuples headed by a
    tag, and it keeps each list's set under ``("[", text between the
    brackets)``, so a list text read again gives the same set.
    """
    _, pos = _token(text, pos, "[")
    end = text.find("]", pos)
    if end < 0:
        raise ParseError("unexpected end of input (expected ']')")
    key = ("[", text[pos:end])
    fs = memo.get(key)
    if fs is not None:  # it read without a fault before, so it reads so again
        return fs, end + 1
    pieces = key[1].split(";")
    if len(pieces) == 1 and not pieces[0].strip(_WS):
        pieces = []  # the empty list
    out: list[Formula] = []
    for piece in pieces:
        f = memo.get(piece)
        if f is None:
            # read at its place in the text, so that positions count from the start;
            # no formula reads a ';' or ']', so none reads past its piece
            f, after = _formula(text, pos, memo)
            _expect_end(text, after, pos + len(piece))
            memo[piece] = f
        out.append(f)
        pos += len(piece) + 1
    fs = memo[key] = FormulaSet(out)
    return fs, end + 1


def _derivation(text: str, pos: int, memo: dict[Any, Any]) -> tuple[Derivation, int]:
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
        while _next_is(text, pos, ")"):
            _, pos = _token(text, pos)
            rule, seq, children = open_nodes.pop()
            if len(children) != rule.arity:
                noun = "premise" if rule.arity == 1 else "premises"
                raise ParseError(f"{rule.cls.tag} expects {rule.arity} {noun}, found {len(children)}")
            node = rule.cls(seq, *children)
            if not open_nodes:
                return node, pos
            open_nodes[-1][2].append(node)
        if _TOKEN_RE.match(text, pos) is None:
            _expect_end(text, pos)
            raise ParseError("unexpected end of input inside a derivation")


def _parse_derivation(text: str, memo: dict[Any, Any]) -> Derivation:
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
    """Render a formula, once, as ``f`` keeps its text; binders get the smallest fresh variable."""
    text = f._text
    if text is None:
        text = fold(f, _PRINT, (), _binder)
        _set(f, "_text", text)
    return text


def print_formula_list(formulas: FormulaSet) -> str:
    """Render a formula list."""
    return "[" + ";".join(map(print_formula, formulas)) + "]"


def print_sequent(seq: Sequent) -> str:
    return f"{print_formula_list(seq.antecedent)} => {print_formula_list(seq.succedent)}"


def print_derivation(d: Derivation) -> str:
    """Render a derivation as a single-line s-expression."""
    return _nested(d, lambda node: f"({node.tag} {print_sequent(node.seq)}", lambda node, i: " ")


class ProblemFile(NamedTuple):
    """A split sequent (four named parts) together with a derivation of it."""

    gamma1: FormulaSet
    gamma2: FormulaSet
    delta1: FormulaSet
    delta2: FormulaSet
    derivation: Derivation

    def split(self) -> SplitSequent:
        return SplitSequent(self.gamma1, self.gamma2, self.delta1, self.delta2)


_LINE_END_RE = re.compile(r"\r\n|\r|\n")


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file: a bare derivation, or labelled sections.

    A file whose first token is ``(`` is a bare derivation, read as the weak
    split of its root: ``gamma1`` is the whole antecedent and ``delta2`` the
    whole succedent.  Otherwise the file is labelled sections: zero or more
    parts (``gamma1:``/``gamma2:``/``delta1:``/``delta2:``, each a formula
    list, at most once each, missing means empty) followed by
    ``derivation:`` and a derivation s-expression covering the rest of the
    file.  A label is a word followed by ``:``, read with the token cursor.
    The parts must recombine to the root sequent of the derivation.
    """
    if _next_is(text, 0, "("):
        d = parse_derivation(text)
        return ProblemFile(*_weak_split(root(d)), d)
    lines = _LINE_END_RE.split(text)
    memo: dict[Any, Any] = {}
    parts: dict[str, FormulaSet] = {}
    for idx, line in enumerate(lines):
        if not line.strip(_WS):
            continue
        where = f"line {idx + 1}: "
        try:
            # read in the line itself, so that positions count from its start
            name, pos = _token(line, 0)
            if name not in ProblemFile._fields:
                raise ParseError(f"expected a section header, found {name!r} at position {pos - len(name)}")
            if name in parts:
                raise ParseError(f"duplicate section {name!r}")
            where += f"{name}: "
            _, pos = _token(line, pos, ":")
            if name == "derivation":
                break
            parts[name], end = _formula_list(line, pos, memo)
            _expect_end(line, end)
        except ParseError as exc:
            raise ParseError(where + str(exc)) from None
    else:
        raise ParseError("missing derivation section")
    derivation = _parse_derivation("\n".join([line[pos:], *lines[idx + 1 :]]), memo)
    pf = ProblemFile(*[parts.get(name, EMPTY) for name in SplitSequent._fields], derivation)
    combined = pf.split().sequent()
    if combined != root(derivation):
        raise SplitMismatchError(
            f"split parts give {print_sequent(combined)} "
            f"but the derivation root is {print_sequent(root(derivation))}"
        )
    return pf


def print_problem(pf: ProblemFile) -> str:
    lines = [f"{name}: {print_formula_list(fs)}" for name, fs in zip(SplitSequent._fields, pf) if fs]
    lines.append(f"derivation: {print_derivation(pf.derivation)}")
    return "\n".join(lines) + "\n"


def parse_result(text: str) -> InterpolationResult:
    """Parse a result file: labeled interpolant and witness entries.

    Lines that do not start with the label ``interpolant:``, ``left:`` or
    ``right:`` are ignored, so the full output of the ``interpolate`` command
    (including its verification report) parses as a result file.  When an
    entry is missing, the message names the first line that did not read as
    a label but holds the entry's name as a word before its first ``:``, and
    the reader's fault there.
    """
    names = ("interpolant", "left", "right")
    entries: dict[str, str] = {}
    skipped: list[tuple[str, str]] = []  # a line with a ':' that is no label: what precedes it, and the fault
    for idx, line in enumerate(_LINE_END_RE.split(text)):
        try:
            name, pos = _token(line, 0)
            _, pos = _token(line, pos, ":")
        except ParseError as exc:
            head, colon, _ = line.partition(":")
            if colon:
                skipped.append((head, f"line {idx + 1}: {exc}"))
            continue
        if name not in names:
            continue
        if name in entries:
            raise ParseError(f"line {idx + 1}: duplicate entry {name!r}")
        entries[name] = line[pos:]
    for name in names:
        if name not in entries:
            near = next((f" ({fault})" for head, fault in skipped if name in re.findall(r"\w+", head)), "")
            raise ParseError(f"missing result entry {name!r}{near}")
    memo: dict[Any, Any] = {}
    return InterpolationResult(
        _parse_formula(entries["interpolant"], memo),
        _parse_derivation(entries["left"], memo),
        _parse_derivation(entries["right"], memo),
    )


def print_result(result: InterpolationResult) -> str:
    return (
        f"interpolant: {print_formula(result.interpolant)}\n"
        f"left: {print_derivation(result.left_witness)}\n"
        f"right: {print_derivation(result.right_witness)}\n"
    )
