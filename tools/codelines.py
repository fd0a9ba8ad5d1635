"""Count the lines of each module of ``src/craigseq``: code lines, without
blank, comment and docstring lines, and all lines.

    python3 tools/codelines.py

It prints one line per module and then the total, each as ``code all``.  A
code line is a line that holds a token other than a comment, or a line that
a multi-line token spans; a docstring is a string that stands alone as the
first statement of a module, class or function.  Standard library only.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "craigseq"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The code lines and all lines of ``source``."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source))), len(source.splitlines())


def main() -> int:
    total_code = total_all = 0
    for path in sorted(PACKAGE.glob("*.py")):
        code, every = count(path.read_text(encoding="utf-8"))
        total_code, total_all = total_code + code, total_all + every
        print(f"{path.name:20} {code:6,} {every:6,}")
    print(f"{'total':20} {total_code:6,} {total_all:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
