"""A repeatable mutant sweep: which of a fixed list of planted bugs does the
Tier-1 suite miss?

    python3 tools/mutants.py [-- PYTEST-ARGS ...]

Each mutant is one or more exact text replacements in ``src/craigseq``.  For
each, the script copies ``src``, ``tests``, ``perfbench`` and
``pyproject.toml`` into a temporary directory of its own, applies the mutant
there, runs the Tier-1 suite in that copy with ``-x``, so that a killed
mutant stops at its first failing test, and deletes the copy.  It prints one
line per mutant, ``killed by TEST`` or ``SURVIVED``, and then the survivors.
Arguments after ``--`` go to pytest, for example
``-- --ignore=tests/test_calculus.py`` to ask which mutants a test outside
that file kills.  Exit status: 0 when every mutant is killed, 1
when one survives, 2 when a mutant's text is no longer in the source.

Standard library only; it runs the mutants one after another.  A check that
``verify`` or the checker gains should get its mutant here.
"""
from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

#: Each mutant: a name, and ``(file, old, new)`` replacements, each of which
#: must match exactly once.
MUTANTS: dict[str, list[tuple[str, str, str]]] = {
    **{
        f"verify-{name}": [("interpolation.py", f'"{name}": c{name[:3]} <= {name},', f'"{name}": True,')]
        for name in ("pos_left", "pos_right", "neg_left", "neg_right")
    },
    "eigenvariable-dropped": [("calculus.py", "a = match_bind(f, e, forbidden)", "a = match_bind(f, e, set())")],
    "adds-other-side-dropped": [
        ("calculus.py", "    if same is not other and same != other:\n        return None\n", "")
    ],
    "grows-by-component-dropped": [
        ("calculus.py", "    for c in parts:\n        if c not in side:\n            return False\n", "")
    ],
    "instances-one-formula-dropped": [
        ("calculus.py", "if extra is None or len(extra) > 1:\n        return\n", "if extra is None:\n        return\n")
    ],
    "weakening-one-formula-dropped": [
        ("calculus.py", "if extra is None or len(extra) > 1:\n        return None\n", "if extra is None:\n        return None\n")
    ],
    # bind and inst stop shifting the variables other than the one they bind or open
    "capture": [
        ("formulas.py", "lambda v: 0 if v == a else v + 1", "lambda v: 0 if v == a else v"),
        ("formulas.py", "lambda v: t if v == 0 else v - 1", "lambda v: t if v == 0 else v"),
    ],
    # a pickle or deep copy gives a value a new object each time a value
    # above it names it (dropping the walk's check of ``index`` instead would
    # unfold every shared subtree, which takes memory exponential in depth)
    "flat-no-sharing": [
        ("formulas.py", "[index[id(part)] for part in parts]",
         "[entries.append(entries[index[id(part)]]) or len(entries) - 1 for part in parts]")
    ],
    # a result pickles as a tuple of trees, each flattened on its own
    "result-pickled-per-part": [("interpolation.py", "    __reduce__ = _Node.__reduce__\n", "")],
}


def _apply(copy: Path, name: str) -> None:
    for file, old, new in MUTANTS[name]:
        path = copy / "src" / "craigseq" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise ValueError(f"mutant {name}: {old!r} is not in {file} exactly once")
        path.write_text(text.replace(old, new), encoding="utf-8")


def _run(copy: Path, pytest_args: list[str]) -> str | None:
    """The first failing test of the Tier-1 run in ``copy``, or ``None`` when all pass."""
    env = {**os.environ, "PYTHONPATH": "src"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *pytest_args]
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit status {done.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    survivors = []
    for name in MUTANTS:
        with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
            copy = Path(tmp)
            for item in COPIED:
                src = ROOT / item
                if src.is_dir():
                    shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns("__pycache__", "out"))
                else:
                    shutil.copy2(src, copy / item)
            try:
                _apply(copy, name)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            failed = _run(copy, args.pytest_args)
        print(f"{name}: {'SURVIVED' if failed is None else f'killed by {failed}'}", flush=True)
        if failed is None:
            survivors.append(name)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
