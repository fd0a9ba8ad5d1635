"""Benchmark of craigseq: the CLI round trip, large derivations and a small-derivation batch.

    python3 perfbench/run.py --workload cli|scale|batch --seed N --seconds S --trace 0|1

The run builds its inputs from ``--seed`` (three times, to time set-up),
then repeats whole rounds of the same operations for about ``--seconds``,
checks every output with the independent checks in ``checks.py``, and prints
one JSON object as the last line of standard output.  With ``--trace 0`` it
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, which also writes its spans to
``perfbench/out/<workload>-<seed>/spans.json``.  See README.md for what each
workload and metric is for.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import common

common.load()

from craigseq import interpolation, oracle  # noqa: E402
from craigseq.calculus import premises, root, size  # noqa: E402
from craigseq.formulas import And, Atom, Bot, FAll, FEx, Not, Or, Top  # noqa: E402
from craigseq.syntax import ParseError, ProblemFile, parse_problem, parse_result, print_problem  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from clock import Clock, Timed  # noqa: E402
from tracing import Tracer, count_py_calls, patched  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The ``scale`` process raises the recursion limit: interpolate_strong
#: recurses twice per derivation level and fails near 700 nodes at the
#: default of 1000.  The cli children keep the default, as users have it.
SCALE_RECURSION_LIMIT = 20000
#: The profiled pass, about five times slower than a plain one, runs every
#: tenth case of a round: each size class of cli and scale, 300 batch cases.
PROFILE_STRIDE = 10
#: A child that runs longer than this counts as a failed operation.
CHILD_TIMEOUT_S = 150


class Op(Timed):
    """One operation: a case run once, with its time and outcome."""

    __slots__ = ("case", "id", "ok", "failure", "output", "fingerprint", "peak_rss_mb")

    def __init__(self, case: inputs.Case, op_id: int) -> None:
        super().__init__()
        self.case = case
        self.id = op_id
        self.ok = False
        self.failure: str | None = None
        self.output = None
        self.fingerprint: str | None = None
        self.peak_rss_mb = 0.0


def plain_lib() -> SimpleNamespace:
    """The entry points the benchmark calls; the traced run wraps them."""
    return SimpleNamespace(
        gen_derivation=oracle.gen_derivation,
        random_split=oracle.random_split,
        interpolate_strong=interpolation.interpolate_strong,
        verify=interpolation.verify,
    )


class InProcess:
    """``interpolate_strong`` then ``verify`` on derivations held in memory."""

    def __init__(self, build, recursion_limit: int | None):
        self._build = build
        self.recursion_limit = recursion_limit

    def build(self, lib, seed: int, out: Path) -> list[inputs.Case]:
        return self._build(lib, seed)

    def warm_up(self) -> None:
        pass

    def run_op(self, clock: Clock, op: Op, lib, tracer: Tracer | None) -> None:
        case = op.case
        try:
            result = clock.time(op, lib.interpolate_strong, case.derivation, case.split)
            report = clock.time(op, lib.verify, case.split, result)
        except Exception as exc:  # a failed operation; the run goes on
            op.failure = f"{type(exc).__name__}: {exc}"[:200]
            return
        if report.ok:
            op.ok = True
            op.output = result
            op.fingerprint = str(hash(result))
        else:
            op.failure = "verify: " + " ".join(k for k, v in report.conjuncts.items() if not v)

    def profile_op(self, case: inputs.Case, lib) -> tuple[int, Counter] | None:
        interpolation.reset_case_counters()
        try:
            _, calls = count_py_calls(
                lambda: lib.verify(case.split, lib.interpolate_strong(case.derivation, case.split))
            )
        except Exception:
            return None
        return calls, Counter(interpolation.case_counters())

    def result_of(self, op: Op):
        return op.output

    def parsed_input(self, case: inputs.Case):
        return case.derivation

    def peak_rss_mb(self, ops: list[Op]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def text_bytes(self, cases: list[inputs.Case], succeeded: set[str]) -> tuple[int, int]:
        return 0, 0  # no text on this path


class Cli:
    """``python -m craigseq.cli interpolate`` then ``verify``, one child at a time."""

    recursion_limit = None

    def __init__(self) -> None:
        self.problems: dict[str, Path] = {}
        self.results: dict[str, Path] = {}
        self.out: Path | None = None

    def build(self, lib, seed: int, out: Path) -> list[inputs.Case]:
        cases = inputs.cli_cases(lib, seed)
        self.out = out
        (out / "problems").mkdir(parents=True, exist_ok=True)
        (out / "results").mkdir(parents=True, exist_ok=True)
        for case in cases:
            s = case.split
            text = print_problem(ProblemFile(s.gamma1, s.gamma2, s.delta1, s.delta2, case.derivation))
            path = out / "problems" / f"{case.name}.txt"
            path.write_text(text)
            self.problems[case.name] = path
            self.results[case.name] = out / "results" / f"{case.name}.txt"
        return cases

    def warm_up(self) -> None:
        # Compile craigseq's bytecode once, so no timed child pays for it.
        subprocess.run([sys.executable, "-c", "import craigseq.cli"], env=common.child_env(), check=True, timeout=CHILD_TIMEOUT_S)

    def _child(self, args: list[str], tracer: Tracer | None, span: str, mode: str, stdout=None) -> "ChildRun":
        """Run one command to its end and reap it with ``os.wait4`` for its peak RSS."""
        report = self.out / "child.json"
        report.unlink(missing_ok=True)
        if mode == "plain":
            cmd = [sys.executable, "-m", "craigseq.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("tracecli.py")), mode, str(report), *args]
        with tracer.span(span) if tracer else nullcontext() as sid, open(self.out / "child.err", "w+b") as err:
            proc = subprocess.Popen(
                cmd,
                stdout=stdout if stdout is not None else subprocess.DEVNULL,
                stderr=err,
                env=common.child_env(),
                cwd=common.ROOT,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            lines = err.read().decode(errors="replace").strip().splitlines()
        data = None if mode == "plain" else json.loads(report.read_text())
        if tracer is not None:
            tracer.adopt(data["spans"], sid)
        return ChildRun(proc.returncode, lines[-1] if lines else "", usage.ru_maxrss / 1024, data)

    def _round_trip(self, clock: Clock | None, op: Op, tracer: Tracer | None, mode: str) -> list[dict]:
        """Run both commands; return the child reports of a profiled pass."""
        name = op.case.name
        problem, result = str(self.problems[name]), self.results[name]
        timed = clock.time if clock else (lambda rec, fn, *a, **k: fn(*a, **k))
        runs = []
        for command, args in (("interpolate", [problem]), ("verify", [problem, str(result)])):
            with open(result, "wb") if command == "interpolate" else nullcontext() as fh:
                child = timed(op, self._child, [command, *args], tracer, f"cli.{command}", mode, fh)
            runs.append(child)
            if child.status != 0:
                op.failure = f"{command}: exit {child.status}: {child.error}"[:200]
                return [r.report for r in runs]
        op.ok = True
        op.output = result
        op.fingerprint = hashlib.sha256(result.read_bytes()).hexdigest()
        op.peak_rss_mb = max(r.rss_mb for r in runs)
        return [r.report for r in runs]

    def run_op(self, clock: Clock, op: Op, lib, tracer: Tracer | None) -> None:
        self._round_trip(clock, op, tracer, "plain" if tracer is None else "spans")

    def profile_op(self, case: inputs.Case, lib) -> tuple[int, Counter] | None:
        op = Op(case, -1)
        reports = self._round_trip(None, op, None, "profile")
        if not op.ok:
            return None
        return sum(r["py_calls"] for r in reports), sum((Counter(r["cases"]) for r in reports), Counter())

    def result_of(self, op: Op):
        return parse_result(op.output.read_text())

    def parsed_input(self, case: inputs.Case):
        return parse_problem(self.problems[case.name].read_text()).derivation

    def peak_rss_mb(self, ops: list[Op]) -> float:
        """Peak RSS of the larger child of an operation, median over operations."""
        return statistics.median(op.peak_rss_mb for op in ops if op.ok)

    def text_bytes(self, cases: list[inputs.Case], succeeded: set[str]) -> tuple[int, int]:
        """Bytes of the problem files, and of the result files of successful operations."""
        return (
            sum(self.problems[c.name].stat().st_size for c in cases),
            sum(self.results[name].stat().st_size for name in succeeded),
        )


@dataclass
class ChildRun:
    status: int
    error: str  # last line of standard error
    rss_mb: float
    report: dict | None  # what tracecli.py wrote, in a traced or profiled pass


WORKLOADS = {
    "cli": Cli,
    "scale": lambda: InProcess(inputs.scale_cases, SCALE_RECURSION_LIMIT),
    "batch": lambda: InProcess(inputs.batch_cases, None),
}


class Rounds:
    """Runs whole rounds of the same operations and checks their outputs.

    Every output of an inspected round goes through the independent checks,
    right after its operation and outside the timed steps; the output is then
    dropped, so no earlier output inflates the peak memory of a later
    operation.  Other rounds only compare each output's fingerprint with the
    first one seen for that case, and a mismatch is reported.
    """

    def __init__(self, workload, cases: list[inputs.Case], clock: Clock) -> None:
        self.workload = workload
        self.cases = cases
        self.clock = clock
        self.fingerprints: dict[int, str] = {}
        self.problems: list[str] = []
        self.sizes: Counter = Counter()
        self.check_s = 0.0
        self.peak_rss_mb = 0.0
        self.next_id = 0

    def round(self, lib, tracer: Tracer | None = None, inspect: bool = False, sharing: bool = False) -> list[Op]:
        ops = []
        for i, case in enumerate(self.cases):
            op = Op(case, self.next_id)
            self.next_id += 1
            if tracer is not None:
                tracer.op = op.id
            with tracer.span("op") if tracer else nullcontext():
                self.workload.run_op(self.clock, op, lib, tracer)
            if op.ok:
                if self.fingerprints.setdefault(i, op.fingerprint) != op.fingerprint:
                    self.problems.append(f"{case.name}: output differs between rounds")
                if inspect:
                    t0 = time.perf_counter()
                    self.check(op, sharing)
                    self.check_s += time.perf_counter() - t0
                op.output = None
            ops.append(op)
        self.clock.flush()
        if tracer is not None:
            tracer.op = None
        if inspect:
            # Read after the first round, so that the records of later rounds
            # do not make the figure depend on the run length.
            self.peak_rss_mb = self.workload.peak_rss_mb(ops)
        return ops

    def check(self, op: Op, sharing: bool = False) -> None:
        """Run the independent checks on ``op``'s output; collect sizes (and formula sharing)."""
        with checks.recursion_limit(checks.CHECK_RECURSION_LIMIT):
            try:
                result = self.workload.result_of(op)
            except ParseError as exc:
                self.problems.append(f"{op.case.name}: result does not parse: {exc}")
                return
            for failure in checks.check_result(op.case.split, result, op.case.truth_table):
                self.problems.append(f"{op.case.name}: {failure}")
            self.sizes["witness_nodes"] += size(result.left_witness) + size(result.right_witness)
            self.sizes["interpolant_nodes"] += formula_nodes(result.interpolant)
            if sharing:
                counts = formula_sharing([self.workload.parsed_input(op.case), result.left_witness, result.right_witness])
                self.sizes.update(dict(zip(("occurrences", "distinct", "objects"), counts)))


def repeat(runner: Rounds, seconds: float, *passes) -> list[list[list[Op]]]:
    """Call each pass in turn, one round each, until the next turn would end
    past ``seconds`` of run time (time spent in checks not counted); returns
    the rounds of every pass."""
    done: list[list[list[Op]]] = [[] for _ in passes]
    start = time.perf_counter() - runner.check_s
    while True:
        t_turn = time.perf_counter() - runner.check_s
        for rounds, one_round in zip(done, passes):
            rounds.append(one_round(len(rounds) == 0))
        now = time.perf_counter() - runner.check_s
        if now - start + (now - t_turn) / 2 >= seconds:
            return done


def formula_nodes(f) -> int:
    total = 0
    stack = [f]
    while stack:
        g = stack.pop()
        total += 1
        if isinstance(g, (And, Or)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, (FAll, FEx)):
            stack.append(g.body)
        elif not isinstance(g, (Atom, Bot, Top)):
            raise TypeError(f"not a formula: {g!r}")
    return total


def formula_sharing(derivations) -> tuple[int, int, int]:
    """Formula occurrences in every sequent of ``derivations``; distinct by
    equality; distinct by identity."""
    occurrences = 0
    equal: set = set()
    same: set[int] = set()
    for d in derivations:
        stack = [d]
        while stack:
            node = stack.pop()
            seq = root(node)
            for part in (seq.antecedent, seq.succedent):
                for f in part:
                    occurrences += 1
                    equal.add(f)
                    same.add(id(f))
            stack.extend(premises(node))
    return occurrences, len(equal), len(same)


def round_nodes_per_s(ops: list[Op]) -> float:
    """Input nodes of a round's successful operations per second, each size
    class's operations costed at the class's median time.

    One input can cost three times the others of its size, when the
    generator happened to nest formulas deeply; a plain total would move
    with the seed by that much.
    """
    by_class: dict[int, list[Op]] = defaultdict(list)
    for op in ops:
        if op.ok:
            by_class[op.case.size_class].append(op)
    nodes = sum(op.case.nodes for group in by_class.values() for op in group)
    seconds = sum(len(group) * statistics.median(op.seconds for op in group) for group in by_class.values())
    return nodes / seconds


def end_to_end(rounds: list[list[Op]], setups: list[Timed], witness_nodes: int, peak_rss_mb: float) -> dict:
    seconds = [op.seconds for rnd in rounds for op in rnd if op.ok]
    return {
        "setup_s": (statistics.median(r.seconds for r in setups), "s"),
        "nodes_per_s": (statistics.median(round_nodes_per_s(rnd) for rnd in rounds), "nodes/s"),
        "op_p50_ms": (1000 * statistics.median(seconds), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(seconds, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "witness_nodes": (witness_nodes, "nodes"),
    }


def growth_exponent(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log time against log input nodes."""
    return statistics.linear_regression([math.log(n) for n, _ in points], [math.log(t) for _, t in points]).slope


def per_layer(tracer: Tracer, traced: list[list[Op]], untraced: list[list[Op]], setups: list[Timed],
              setup_spans: list[list], profile: tuple[int, Counter], sizes: dict,
              text_bytes: tuple[int, int], units: list[float]) -> dict:
    ops = [op for rnd in traced for op in rnd if op.ok]
    by_op: dict[int, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    spans_by_id = {}
    for s in tracer.spans:
        spans_by_id[s.id] = s
        if s.op is not None:
            by_op[s.op].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def self_ns(s) -> int:
        return s.ns - sum(c.ns for c in children[s.id])

    acc = Counter()
    growth = []
    for op in ops:
        f = op.scale * 1e-9  # reference seconds per nanosecond of wall time
        covered = 0
        for s in by_op[op.id]:
            parent = spans_by_id.get(s.parent)
            if s.name == "syntax.parse":
                acc["parse_s"] += s.ns * f
                acc["parse_bytes"] += s.size
            elif s.name == "syntax.print":
                acc["print_s"] += s.ns * f
            elif s.name == "calculus.is_wellformed":
                acc["wellformed_s"] += s.ns * f
                acc["wellformed_nodes"] += s.size
            elif s.name == "interpolation.interpolate_strong":
                acc["interpolate_self_s"] += self_ns(s) * f
                growth.append((op.case.nodes, s.ns))
            elif s.name == "interpolation.verify":
                acc["verify_self_s"] += self_ns(s) * f
            elif s.name == "cli.ready":
                acc["startup_s"] += (s.start - parent.start) * f
                acc["children"] += 1
                covered += s.start - parent.start
            elif s.name == "cli.interpolate":
                acc["cli_interpolate_s"] += s.ns * f
            elif s.name == "cli.verify":
                acc["cli_verify_s"] += s.ns * f
            if parent is not None and parent.name.startswith("cli.") and s.name != "cli.ready":
                covered += s.ns
        if covered:
            acc["glue_s"] += max(op.raw * 1e9 - covered, 0) * f
    n = max(len(ops), 1)
    calls, cases = profile
    gen = [sum(s.ns for s in spans) * 1e-9 * rec.scale for spans, rec in zip(setup_spans, setups)]

    def round_s(rounds):
        return statistics.fmean(sum(op.seconds for op in rnd) for rnd in rounds)

    metrics = {
        "syntax.parse_ms": (1000 * acc["parse_s"] / n, "ms"),
        "syntax.print_ms": (1000 * acc["print_s"] / n, "ms"),
        "syntax.parse_bytes_per_s": (acc["parse_bytes"] / acc["parse_s"] if acc["parse_s"] else 0.0, "bytes/s"),
        "syntax.problem_bytes": (text_bytes[0], "bytes"),
        "syntax.result_bytes": (text_bytes[1], "bytes"),
        "calculus.wellformed_ms": (1000 * acc["wellformed_s"] / n, "ms"),
        "calculus.wellformed_nodes_per_s": (acc["wellformed_nodes"] / acc["wellformed_s"], "nodes/s"),
        "formulas.occurrences": (sizes["occurrences"], "count"),
        "formulas.distinct": (sizes["distinct"], "count"),
        "formulas.objects": (sizes["objects"], "count"),
        "formulas.py_calls": (calls, "count"),
        "interpolation.interpolate_self_ms": (1000 * acc["interpolate_self_s"] / n, "ms"),
        "interpolation.growth_exp": (growth_exponent(growth), "1"),
        "interpolation.verify_self_ms": (1000 * acc["verify_self_s"] / n, "ms"),
        "interpolation.branches_total": (sum(cases.values()), "count"),
        "interpolation.branches_hit": (sum(1 for v in cases.values() if v), "count"),
        "interpolation.interpolant_nodes": (sizes["interpolant_nodes"], "nodes"),
        "oracle.gen_ms": (1000 * statistics.median(gen), "ms"),
        "cli.startup_ms": (1000 * acc["startup_s"] / acc["children"] if acc["children"] else 0.0, "ms"),
        "cli.interpolate_ms": (1000 * acc["cli_interpolate_s"] / n, "ms"),
        "cli.verify_ms": (1000 * acc["cli_verify_s"] / n, "ms"),
        "cli.glue_ms": (1000 * acc["glue_s"] / n, "ms"),
        "trace.overhead_pct": (100 * (round_s(traced) / round_s(untraced) - 1), "%"),
        "host.unit_ms": (1000 * statistics.median(units), "ms"),
    }
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # One CPU for this process and its children, so that the calibration
    # unit runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[name]()
    out = common.OUT / f"{name}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    old_limit = sys.getrecursionlimit()
    if workload.recursion_limit:
        sys.setrecursionlimit(workload.recursion_limit)
    try:
        return _run(workload, name, seed, seconds, trace, out)
    finally:
        sys.setrecursionlimit(old_limit)


def _run(workload, name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    lib = plain_lib()
    clock = Clock()
    tracer = Tracer() if trace else None
    setups: list[Timed] = []
    setup_spans: list[list] = []
    cases = None
    for _ in range(SETUPS):
        cases = None
        gc.collect()
        rec = Timed()
        if tracer is not None:
            mark = len(tracer.spans)
            gen_lib = SimpleNamespace(
                gen_derivation=tracer.wrap("oracle.gen_derivation", lib.gen_derivation),
                random_split=tracer.wrap("oracle.random_split", lib.random_split),
            )
            cases = clock.time(rec, workload.build, gen_lib, seed, out)
            setup_spans.append(tracer.spans[mark:])
        else:
            cases = clock.time(rec, workload.build, lib, seed, out)
        clock.flush()
        setups.append(rec)
    workload.warm_up()
    gc.collect()

    runner = Rounds(workload, cases, clock)
    if not trace:
        (rounds,) = repeat(runner, seconds, lambda first: runner.round(lib, inspect=first))
    else:
        traced_lib = SimpleNamespace(
            interpolate_strong=tracer.wrap("interpolation.interpolate_strong", lib.interpolate_strong),
            verify=tracer.wrap("interpolation.verify", lib.verify),
        )
        wellformed = tracer.wrap("calculus.is_wellformed", interpolation.is_wellformed, size)

        def traced_round(first: bool) -> list[Op]:
            with patched([(interpolation, "is_wellformed", wellformed)]):
                return runner.round(traced_lib, tracer, inspect=first, sharing=True)

        # Alternating rounds keep drift of the host out of the overhead.
        untraced, rounds = repeat(runner, seconds, lambda first: runner.round(lib), traced_round)
    ops = [op for rnd in rounds + (untraced if trace else []) for op in rnd]
    problems, sizes = runner.problems, runner.sizes

    failures = Counter((op.case.name, op.failure) for op in ops if not op.ok)
    for (case_name, failure), count in sorted(failures.items()):
        print(f"failed x{count}: {case_name}: {failure}")
    for problem in problems:
        print(f"incorrect: {problem}")

    if not trace:
        metrics = end_to_end(rounds, setups, sizes["witness_nodes"], runner.peak_rss_mb)
    else:
        profile_calls = 0
        profile_cases: Counter = Counter()
        for case in cases[::PROFILE_STRIDE]:
            counted = None if case.fault else workload.profile_op(case, lib)
            if counted is not None:
                profile_calls += counted[0]
                profile_cases += counted[1]
        metrics = per_layer(
            tracer, rounds, untraced, setups, setup_spans, (profile_calls, profile_cases), sizes,
            workload.text_bytes(cases, {op.case.name for op in ops if op.ok}), clock.units,
        )
        tracer.dump(out / "spans.json")

    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    (out / "ops.json").write_text(
        json.dumps([[op.case.name, op.case.nodes, op.ok, op.raw, op.seconds] for op in ops], indent=0)
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
