"""In-memory span tracing by wrapping the program's functions from outside.

The benchmark never edits the program: a :class:`Tracer` replaces chosen
functions and methods with timing wrappers for the duration of a traced run
and restores them afterwards.  Each call becomes a span ``(id, parent, name,
stage, thread, start, end, work)``; the parent is the innermost open span on
the same thread, so every span also has a path (``a/b/c``).  Spans stay in
memory and are written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval that its
children cover (:func:`self_times`).  On one thread the self times of all
spans under a root add up to the root's duration, which is how the benchmark
shows that its spans account for a stage's wall time.

Hot scalar functions get counting wrappers instead (:meth:`Tracer.count`):
no span, just a call count attributed to the innermost open span's root.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent: int | None
    name: str
    stage: str
    thread: int
    start: float
    end: float
    #: Units of work the span did (elements, pairs, bytes ...), 0 if unset.
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Iterable[SpanRecord]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def span_paths(spans: Iterable[SpanRecord]) -> dict[int, str]:
    """``root/.../name`` path of every span."""
    by_id = {span.span_id: span for span in spans}
    paths: dict[int, str] = {}

    def path_of(span: SpanRecord) -> str:
        known = paths.get(span.span_id)
        if known is None:
            parent = by_id.get(span.parent) if span.parent is not None else None
            known = span.name if parent is None else f"{path_of(parent)}/{span.name}"
            paths[span.span_id] = known
        return known

    for span in by_id.values():
        path_of(span)
    return paths


class Tracer:
    """Span recorder that instruments functions by replacing them."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.stage = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._counts_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._counts_lock:
                self._thread_counts.append(counts)
        return counts

    def _open(self, name: str) -> tuple[int, int | None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name if not stack else stack[0][1]))
        return span_id, parent

    def _close(self, span_id, parent, name, start, work=0.0) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            SpanRecord(
                span_id, parent, name, self.stage, threading.get_ident(), start, end,
                float(work),
            )
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of benchmark code."""
        ids = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(*ids, name, start)

    def counts(self) -> dict[tuple[str, str, str], int]:
        """Call counts keyed by ``(stage, root span name, counted name)``."""
        merged: dict = defaultdict(int)
        with self._counts_lock:
            for counts in self._thread_counts:
                for key, value in list(counts.items()):
                    merged[key] += value
        return dict(merged)

    # -- instrumentation -------------------------------------------------------------

    def _timed(self, function: Callable, name: str, work: Callable | None) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(function):
            # Time every resume of the generator: its work happens between
            # yields, interleaved with whatever the consumer does.
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    ids = tracer._open(name)
                    start = time.perf_counter()
                    try:
                        value = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(*ids, name, start)
                    yield value

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            ids = tracer._open(name)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                amount = work(args, result) if work is not None and result is not None else 0.0
                tracer._close(*ids, name, start, amount)

        return wrapper

    def _counted(self, function: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            root = stack[-1][1] if stack else ""
            tracer._counts()[(tracer.stage, root, name)] += 1
            return function(*args, **kwargs)

        return wrapper

    def _replace(self, owner: object, attribute: str, make: Callable) -> None:
        if isinstance(owner, type):
            if attribute not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} does not define {attribute}")
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            targets = [owner]
        else:
            original = getattr(owner, attribute)
            replacement = make(original)
            # Functions imported by name live on in the importing modules.
            targets = [owner] + [
                module
                for module_name, module in list(sys.modules.items())
                if module_name.startswith("repro")
                and module is not owner
                and getattr(module, attribute, None) is original
            ]
        for target in targets:
            self._restore.append((target, attribute, original))
            setattr(target, attribute, replacement)

    def wrap(
        self, owner: object, attribute: str, name: str, work: Callable | None = None
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``.

        ``owner`` is a class (methods) or a module (functions).  ``work(args,
        result)`` optionally measures the units of work a call did.
        """
        self._replace(owner, attribute, lambda original: self._timed(original, name, work))

    def count(self, owner: object, attribute: str, name: str) -> None:
        """Count calls of ``owner.attribute`` without recording spans."""
        self._replace(owner, attribute, lambda original: self._counted(original, name))

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        for target, attribute, original in reversed(self._restore):
            setattr(target, attribute, original)
        self._restore.clear()

    # -- reporting -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per stage and per span path: calls, inclusive seconds, self seconds, work."""
        selfs = self_times(self.spans)
        paths = span_paths(self.spans)
        table: dict = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_s": 0.0, "work": 0.0})
        for span in self.spans:
            row = table[(span.stage, paths[span.span_id])]
            row["calls"] += 1
            row["seconds"] += span.duration
            row["self_s"] += selfs[span.span_id]
            row["work"] += span.work
        return {
            "paths": [
                {"stage": stage, "path": path, **row}
                for (stage, path), row in sorted(table.items())
            ],
            "counts": [
                {"stage": stage, "root": root, "name": name, "calls": calls}
                for (stage, root, name), calls in sorted(self.counts().items())
            ],
        }

    def write(self, path: Path) -> None:
        """Write the span summary and the raw spans as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = self.summary()
        document["spans"] = [
            [s.span_id, s.parent, s.name, s.stage, s.thread, s.start, s.end, s.work]
            for s in self.spans
        ]
        path.write_text(json.dumps(document))


def layer_totals(summary: dict, stage: str) -> dict[str, dict]:
    """Collapse a summary's paths to span names for one stage."""
    totals: dict = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_s": 0.0, "work": 0.0})
    for row in summary["paths"]:
        if row["stage"] != stage:
            continue
        name = row["path"].rsplit("/", 1)[-1]
        for key in ("calls", "seconds", "self_s", "work"):
            totals[name][key] += row[key]
    return dict(totals)


def root_seconds(summary: dict, stage: str) -> float:
    """Summed duration of a stage's root spans (= the sum of its self times)."""
    return sum(
        row["seconds"]
        for row in summary["paths"]
        if row["stage"] == stage and "/" not in row["path"]
    )


def stage_counts(summary: dict, stage: str, root: str, name: str) -> int:
    """Calls of a counted function made under root spans named ``root``."""
    return sum(
        row["calls"]
        for row in summary["counts"]
        if row["stage"] == stage and row["root"] == root and row["name"] == name
    )
