"""Spans and counters recorded from outside, by wrapping public callables.

The tracer replaces an attribute of a class (or a function in every loaded
``repro`` module that imported it by name) with a wrapper that records one
span — ``(name, start, end, parent)`` — per call, or bumps a bare counter
where a span per call would cost more than the call.  Everything stays in
memory until the run ends; :meth:`Tracer.uninstall` restores the original
attributes, so an untraced run (or an untraced tick between two traced
ones) executes exactly the code the repo ships.

One stack per process: the tracer only sees the driver.  What happens
inside pool processes and cluster nodes is read from the statistics the
runtime already returns.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    """One timed call; ``parent`` indexes :attr:`Tracer.spans` (-1 = root)."""

    name: str
    start: float
    end: float
    parent: int


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` recorded under ``name``.

    ``owner`` is a class, or the module that defines a function (the
    wrapper is then installed in every loaded ``repro`` module holding that
    function).  ``kind="count"`` records a bare counter instead of spans.
    ``measure`` maps the call's return value to a number accumulated in
    ``counts[name]`` — rows returned by a join, hits of an attempt.
    """

    owner: Any
    attr: str
    name: str
    kind: str = "span"
    measure: Callable[[Any], float] | None = None


@dataclass
class LayerRow:
    """Aggregate of every span with one name."""

    count: int = 0
    #: Wall seconds, outermost spans only (a span nested in another of the
    #: same name is already inside its total).
    total: float = 0.0
    #: Wall seconds minus the part covered by child spans of any name.
    self_seconds: float = 0.0


class Tracer:
    """Wraps targets, records spans and counters, restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        #: Amounts accumulated by ``Target.measure`` (rows, hits), by name.
        self.counts: Counter = Counter()
        #: Calls of count-only targets, by name.  One-element lists: a bare
        #: ``box[0] += 1`` is the cheapest counter a wrapper can carry.
        self._calls: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; call :meth:`uninstall` to undo all of them."""
        for target in targets:
            original = getattr(target.owner, target.attr)
            if target.kind == "count":
                wrapper = self._count_wrapper(original, target.name, target.measure)
            else:
                wrapper = self._span_wrapper(original, target.name, target.measure)
            for holder in self._holders(target.owner, target.attr, original):
                own = target.attr in vars(holder)
                self._patches.append((holder, target.attr, original, own))
                setattr(holder, target.attr, wrapper)

    @staticmethod
    def _holders(owner: Any, attr: str, original: Any) -> list[Any]:
        if not inspect.ismodule(owner):
            return [owner]
        # ``from repro.x import f`` copies the binding: patch every copy.
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
            and getattr(module, attr, None) is original
        ]

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patches:
            holder, attr, original, own = self._patches.pop()
            if own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)  # it was inherited; drop our override

    def _span_wrapper(self, function, name: str, measure):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if measure is not None:
                counts[name] += measure(result)
            return result

        return traced

    def _count_wrapper(self, function, name: str, measure):
        counts = self.counts
        calls = self._calls.setdefault(name, [0])

        if measure is None:

            @functools.wraps(function)
            def counted(*args, **kwargs):
                calls[0] += 1
                return function(*args, **kwargs)

        else:

            @functools.wraps(function)
            def counted(*args, **kwargs):
                calls[0] += 1
                result = function(*args, **kwargs)
                counts[name] += measure(result)
                return result

        return counted

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Measured amounts by name, and ``<name>.calls`` of count-only targets."""
        merged: dict[str, float] = dict(self.counts)
        for name, calls in self._calls.items():
            merged[name + ".calls"] = calls[0]
        return merged

    def layer_rows(self, since: float = 0.0, until: float = float("inf")) -> dict[str, LayerRow]:
        """Per-name count / total / self over spans starting in ``[since, until)``."""
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        for span in spans:
            if span is not None and span.parent >= 0:
                child_seconds[span.parent] += span.end - span.start
        rows: dict[str, LayerRow] = {}
        for index, span in enumerate(spans):
            if span is None or not since <= span.start < until:
                continue
            row = rows.setdefault(span.name, LayerRow())
            duration = span.end - span.start
            row.count += 1
            row.self_seconds += duration - child_seconds[index]
            if not self._nested_in_same_name(span):
                row.total += duration
        return rows

    def _nested_in_same_name(self, span: Span) -> bool:
        parent = span.parent
        while parent >= 0:
            ancestor = self.spans[parent]
            if ancestor is None:
                return False
            if ancestor.name == span.name:
                return True
            parent = ancestor.parent
        return False

    def chrome_trace(self, pid: int) -> dict:
        """The spans as Chrome-trace "complete" events (microseconds)."""
        origin = min((span.start for span in self.spans if span is not None), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {"span": index, "parent": span.parent},
                }
                for index, span in enumerate(self.spans)
                if span is not None
            ],
        }
