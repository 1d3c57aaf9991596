"""Spans recorded around calls into hschain's layers, from outside the package.

`Recorder.wrap` replaces a function in the namespace its callers look it
up in (``hschain.cli.density_dp``, ``hschain.hamiltonian.jacobi_eigenvalues``,
a ``DensityTable`` method, ...), so a span opened by an inner call records
the span of the outer call as its parent.  Spans are kept in memory and
written out when the run ends; `restore` puts every original back.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  Per-layer times reported by the benchmark are self
times, so they partition the traced total: the `cli.main` spans the worker
opens around each CLI job are the roots, and their self time is the CLI's
own row formatting and file writing.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []
        self._patched = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError("spans must close innermost first")
        self._open.pop()
        self.spans[index].end = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, owner, attr: str, name: str | None, observe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span called
        `name` (none when `name` is None) and then hands the bound arguments
        and the result to `observe`, outside the span."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                result = self.call(name, original, *args, **kwargs)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                observe(bound.arguments, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> list:
        return [asdict(span) for span in self.spans]


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its interval
    that its children cover (child intervals clipped to the parent)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[index]
            if child.end > span.start and child.start < span.end
        ]
        out.append(span.end - span.start - covered_length(clipped))
    return out


def self_time_by_name(spans) -> dict:
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def count_by_name(spans) -> dict:
    counts = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return dict(counts)


def root_total(spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(span.end - span.start for span in spans if span.parent is None)
