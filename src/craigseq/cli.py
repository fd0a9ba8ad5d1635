"""Command line interface.

Three subcommands: ``check`` walks a derivation and reports the rule instance
justifying every node, ``interpolate`` runs interpolation on a problem file
and prints the result plus its verification report, and ``verify`` re-checks
a stored result against a problem file.  A problem file may be a bare
derivation, which gets the weak split: its whole antecedent against its
whole succedent.  Exit status: 0 success, 1 contract failure (bad derivation,
mismatched split, failing report), 2 usage or parse error, or an input too
deep or too large for the interpreter's stack or memory.  A mismatched split
is one error class, ``SplitMismatchError``, from a problem file or not.

``run()`` is the process entry, for ``python -m craigseq.cli`` and the
installed ``craigseq`` command: it calls ``main()`` with stdout and stderr
in UTF-8, flushes the output and ends the process with ``os._exit``, skipping
the interpreter's teardown and its ``atexit`` handlers.  A stdout that cannot
be written ends with one ``error:`` line and status 2.  A stderr that cannot
be written loses the ``error:`` line and keeps the status.  ``main(argv)`` is
the in-process entry: it returns the status and leaves the interpreter running.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from .calculus import _preorder, resolve_rule
from .interpolation import (
    InterpolationError,
    VerifyReport,
    interpolate_strong,
    simplify_bool,
    verify,
)
from .syntax import (
    ParseError,
    parse_derivation,
    parse_problem,
    parse_result,
    decode,
    print_derivation,
    print_formula,
)


def _read(path: str) -> str:
    with open(path, "rb") as f:
        return decode(f.read())


def _describe(inst) -> str:
    parts = [inst.kind]
    if inst.analysed is not None:
        parts.append(f"principal={print_formula(inst.analysed)}")
    if inst.eigen is not None:
        parts.append(f"eigen=x{inst.eigen}")
    if inst.term is not None:
        parts.append(f"term=x{inst.term}")
    return " ".join(parts)


def cmd_check(path: str) -> int:
    """Print one line per node (preorder, root path ε) and a summary."""
    d = parse_derivation(_read(path))
    first_bad: str | None = None
    prefix = {id(None): ""}  # id of a node's ``where`` -> its label and "."; a premise's ``where`` keeps it alive
    for node, where in _preorder(d):
        inst = resolve_rule(node)
        label = "ε"
        if where is not None:  # its parent's label and its premise index: no label walks its path
            label = prefix[id(where[0])] + str(where[1])
            prefix[id(where)] = label + "."
        if inst is None:
            print(f"{label}: {node.tag} UNRESOLVED")
            if first_bad is None:
                first_bad = label
        else:
            print(f"{label}: {_describe(inst)}")
    if first_bad is None:
        print("PASS")
        return 0
    print(f'FAIL at node path "{first_bad}"')
    return 1


def _print_report(report: VerifyReport, json_out: bool) -> None:
    if json_out:
        import json  # only here: start-up time is most of a short run

        print(json.dumps(report.conjuncts))
        return
    for name, ok in report.conjuncts.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(f"summary: {'PASS' if report.ok else 'FAIL'}")


def cmd_interpolate(path: str, simplify: bool, json_out: bool) -> int:
    """Interpolate a problem file."""
    problem = parse_problem(_read(path))
    split = problem.split()
    result = interpolate_strong(problem.derivation, split)
    print(f"interpolant: {print_formula(result.interpolant)}")
    if simplify:
        print(f"simplified: {print_formula(simplify_bool(result.interpolant))}")
    print(f"left: {print_derivation(result.left_witness)}")
    print(f"right: {print_derivation(result.right_witness)}")
    report = verify(split, result)
    _print_report(report, json_out)
    return 0 if report.ok else 1


def cmd_verify(problem_path: str, result_path: str, json_out: bool) -> int:
    """Check a stored interpolation result against its problem file."""
    problem = parse_problem(_read(problem_path))
    result = parse_result(_read(result_path))
    report = verify(problem.split(), result)
    _print_report(report, json_out)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="craigseq",
        description="Craig interpolation for multiple-conclusion sequent calculus derivations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check every node of a derivation file")
    p_check.add_argument("file", help="derivation s-expression file")

    p_interp = sub.add_parser("interpolate", help="interpolate a problem file")
    p_interp.add_argument("file", help="problem file, or a bare derivation for the antecedent/succedent split")
    p_interp.add_argument("--simplify", action="store_true", help="also print the interpolant with constants simplified away")
    p_interp.add_argument("--json", action="store_true", help="print the verification report as JSON")

    p_verify = sub.add_parser("verify", help="verify a stored result against a problem file")
    p_verify.add_argument("problem", help="problem file, or a bare derivation")
    p_verify.add_argument("result", help="result file")
    p_verify.add_argument("--json", action="store_true", help="print the verification report as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.file)
        if args.command == "interpolate":
            return cmd_interpolate(args.file, args.simplify, args.json)
        return cmd_verify(args.problem, args.result, args.json)
    except (ParseError, OSError) as exc:
        return _error(exc, 2)
    except InterpolationError as exc:
        return _error(exc, 1)
    except (RecursionError, MemoryError) as exc:
        return _error(f"input too deep or too large to process ({type(exc).__name__})", 2)


def _error(message: object, status: int) -> int:
    """Print ``error: message`` to stderr and return ``status``, also when
    stderr cannot be written: then the status alone tells."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass
    return status


def run() -> NoReturn:
    """Run ``main()`` as the whole process and end it once its output is flushed.

    A command that only prints gains nothing from the interpreter's teardown,
    which frees every module and object, so the process ends with
    ``os._exit``.  A flush that fails becomes one ``error:`` line and status
    2; a status 2 from ``main()`` has had its line already.  An exception or
    ``SystemExit`` leaving ``main()`` (a usage error, ``--help``) takes the
    interpreter's usual exit.
    """
    for stream in (sys.stdout, sys.stderr):  # None: the descriptor was closed when the process started
        if stream is not None:
            stream.reconfigure(encoding="utf-8")  # as the input must be, whatever the locale
    status = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if status != 2:
            status = _error(exc, 2)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # an error line that stderr could not take: the status still tells
    os._exit(status)


if __name__ == "__main__":
    run()
