"""Where the benchmark finds the program, and where it writes.

The benchmark measures the ``craigseq`` sources of the checkout it lives in,
never an installed copy: ``src/`` is put first on ``sys.path`` and every child
process gets the same ``PYTHONPATH``.  Without ``src/craigseq`` (or the
independent checker in ``tests/support.py``) there is nothing to measure, and
``load`` exits with status 2 before anything is printed on standard output.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUPPORT = ROOT / "tests" / "support.py"
OUT = Path(__file__).resolve().parent / "out"


def load() -> None:
    """Make ``import craigseq`` resolve to this checkout's sources."""
    missing = [p for p in (SRC / "craigseq" / "__init__.py", SUPPORT) if not p.is_file()]
    if missing:
        print(f"perfbench: cannot find {', '.join(str(p.relative_to(ROOT)) for p in missing)}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import craigseq

    if Path(craigseq.__file__).resolve().parent != SRC / "craigseq":
        print(f"perfbench: craigseq was imported from {craigseq.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment of a child process that imports this checkout's craigseq."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env
