"""``craigseq.cli`` with spans or a call count, for the benchmark's traced run.

    python3 perfbench/tracecli.py spans|profile OUT.json CLI-ARGS...

runs ``craigseq.cli.main(CLI-ARGS)`` like ``python -m craigseq.cli`` does, and
writes OUT.json: the spans around the calls ``cmd_interpolate`` and
``cmd_verify`` make into the other modules (``spans``), or the number of
Python-level calls into ``craigseq.formulas`` and the interpolation case
counters (``profile``).  The exit status and output are the command's own; an
uncaught exception still ends the process with a traceback.
"""
import sys
import time

import common

common.load()
import craigseq.cli as cli  # noqa: E402

READY = time.monotonic_ns()

import json  # noqa: E402

from craigseq import interpolation  # noqa: E402
from craigseq.calculus import size  # noqa: E402
from tracing import Tracer, count_py_calls, patched, text_bytes  # noqa: E402


def main() -> int:
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report: dict = {}
    try:
        if mode == "spans":
            tracer = Tracer()
            tracer.mark("cli.ready", READY)
            w = tracer.wrap
            with patched(
                [
                    (cli, "parse_problem", w("syntax.parse", cli.parse_problem, text_bytes)),
                    (cli, "parse_result", w("syntax.parse", cli.parse_result, text_bytes)),
                    (cli, "parse_derivation", w("syntax.parse", cli.parse_derivation, text_bytes)),
                    (cli, "print_derivation", w("syntax.print", cli.print_derivation)),
                    (cli, "print_formula", w("syntax.print", cli.print_formula)),
                    (cli, "interpolate_strong", w("interpolation.interpolate_strong", cli.interpolate_strong)),
                    (cli, "verify", w("interpolation.verify", cli.verify)),
                    (
                        interpolation,
                        "is_wellformed",
                        w("calculus.is_wellformed", interpolation.is_wellformed, size),
                    ),
                ]
            ):
                try:
                    return cli.main(argv)
                finally:
                    report["spans"] = [vars(s) for s in tracer.spans]
        if mode == "profile":
            interpolation.reset_case_counters()
            status, calls = count_py_calls(lambda: cli.main(argv))
            report["py_calls"] = calls
            report["cases"] = interpolation.case_counters()
            return status
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
