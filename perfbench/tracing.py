"""Spans around the calls into craigseq, kept in memory and written at the end.

A span records its name, start and end (``time.monotonic_ns``, which child
processes share), the span that was open when it started, the operation it
belongs to, and one size: the bytes parsed or the derivation nodes checked.
Wrappers are installed from outside the package by replacing module
attributes for the duration of a ``patched`` block, so an untraced run calls
the library exactly as a user does.
"""
from __future__ import annotations

import cProfile
import json
import time
import types
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from craigseq import formulas


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    op: int | None
    size: int | None = None

    @property
    def ns(self) -> int:
        return self.end - self.start


def text_bytes(text: str) -> int:
    return len(text.encode())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next = 1

    def _new_id(self) -> int:
        self._next += 1
        return self._next - 1

    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body; yields the span's id."""
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.monotonic_ns()
        try:
            yield sid
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def wrap(self, name: str, fn, size=None):
        """``fn`` with a span around every call; ``size`` measures the first argument."""

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if size is not None:
                self.spans[-1].size = size(args[0])
            return out

        return traced

    def mark(self, name: str, at: int) -> None:
        """A zero-length span at ``at``, such as the moment a child finished importing."""
        self.spans.append(Span(self._new_id(), name, at, at, self._stack[-1] if self._stack else None, self.op))

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Take over spans written by a child process, under the span ``parent``."""
        ids: dict[int, int] = {}
        for raw in spans:
            ids[raw["id"]] = self._new_id()
        for raw in spans:
            self.spans.append(
                Span(
                    ids[raw["id"]],
                    raw["name"],
                    raw["start"],
                    raw["end"],
                    ids[raw["parent"]] if raw["parent"] is not None else parent,
                    self.op,
                    raw["size"],
                )
            )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


@contextmanager
def patched(replacements):
    """Set ``(object, attribute, value)`` triples, restoring them on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _formula_codes() -> set[types.CodeType]:
    """Code of the dataclass ``__eq__``/``__hash__`` generated for formula classes."""
    codes = set()
    for value in vars(formulas).values():
        if isinstance(value, type) and issubclass(value, formulas.Formula):
            for attr in ("__eq__", "__hash__"):
                fn = value.__dict__.get(attr)
                if isinstance(fn, types.FunctionType):
                    codes.add(fn.__code__)
    return codes


def count_py_calls(fn):
    """Run ``fn`` under cProfile; return its result and the number of
    Python-level calls into ``craigseq.formulas`` and the formula dataclasses'
    ``__eq__`` and ``__hash__``.  The count is exact and repeats run to run;
    the profiler's time is not used."""
    codes = _formula_codes()
    path = formulas.__file__
    prof = cProfile.Profile()
    prof.enable()
    try:
        out = fn()
    finally:
        prof.disable()
    calls = 0
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, types.CodeType) and (code.co_filename == path or code in codes):
            calls += entry.callcount
    return out, calls
