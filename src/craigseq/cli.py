"""Command line interface.

Three subcommands: ``check`` walks a derivation and reports the rule instance
justifying every node, ``interpolate`` runs interpolation on a problem file
(or a bare derivation with ``--weak``) and prints the result plus its
verification report, and ``verify`` re-checks a stored result against a
problem file.  Exit status: 0 success, 1 contract failure (bad derivation,
mismatched split, failing report), 2 usage or parse error, or an input too
deep or too large for the interpreter's stack or memory.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .calculus import EMPTY, _resolved_preorder, root
from .formulas import Formula
from .interpolation import (
    InterpolationError,
    SplitSequent,
    VERIFY_CONJUNCTS,
    VerifyReport,
    interpolate_strong,
    simplify_bool,
    verify,
)
from .syntax import (
    ParseError,
    RootMismatchError,
    parse_derivation,
    parse_problem,
    parse_result,
    decode,
    print_derivation,
    print_formula,
)


def _read(path: str) -> str:
    return decode(Path(path).read_bytes())


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
    for label, node, inst in _resolved_preorder(d):
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
    for name in VERIFY_CONJUNCTS:
        print(f"{name}: {'PASS' if report.conjuncts[name] else 'FAIL'}")
    print(f"summary: {'PASS' if report.ok else 'FAIL'}")


def cmd_interpolate(path: str, weak: bool, simplify: bool, json_out: bool) -> int:
    """Interpolate a problem file (or bare derivation with ``--weak``)."""
    text = _read(path)
    if weak:
        d = parse_derivation(text)
        seq = root(d)
        split = SplitSequent(seq.antecedent, EMPTY, EMPTY, seq.succedent)
    else:
        problem = parse_problem(text)
        d = problem.derivation
        split = problem.split()
    result = interpolate_strong(d, split)
    print(f"interpolant: {print_formula(result.interpolant)}")
    if simplify:
        print(f"simplified: {print_formula(simplify_bool(result.interpolant))}")
    memo: dict[Formula, str] = {}  # the witnesses share most of their formulas
    print(f"left: {print_derivation(result.left_witness, memo)}")
    print(f"right: {print_derivation(result.right_witness, memo)}")
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
    p_interp.add_argument("file", help="problem file (or derivation file with --weak)")
    p_interp.add_argument("--weak", action="store_true", help="read a bare derivation and use the antecedent/succedent split")
    p_interp.add_argument("--simplify", action="store_true", help="also print the interpolant with constants simplified away")
    p_interp.add_argument("--json", action="store_true", help="print the verification report as JSON")

    p_verify = sub.add_parser("verify", help="verify a stored result against a problem file")
    p_verify.add_argument("problem", help="problem file")
    p_verify.add_argument("result", help="result file")
    p_verify.add_argument("--json", action="store_true", help="print the verification report as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.file)
        if args.command == "interpolate":
            return cmd_interpolate(args.file, args.weak, args.simplify, args.json)
        return cmd_verify(args.problem, args.result, args.json)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RootMismatchError, InterpolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large to process ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
