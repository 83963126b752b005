"""In-memory span recorder and the statistics computed from its spans.

A span is one call of a wrapped function: its name, start and end on a
monotonic clock, the index of the enclosing span (-1 at top level), the
exception type name if the call raised, and an optional size the caller
attaches (for example the bank size a query scanned). Spans stay in memory
until the caller writes them out.

This module imports nothing from the package under test, so the same
recorder can serve any caller.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple

# Field positions of a span record (a list, so the end time can be filled
# in when the call returns).
NAME, START, END, PARENT, RAISED, SIZE = range(6)

# Candidate percentiles in tenths of a percent, highest first.
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


class Target(NamedTuple):
    """One attribute to wrap: span name, the object that owns the attribute
    (module or class), the attribute name, and an optional size function
    called with the call's arguments."""

    name: str
    owner: object
    attr: str
    size_of: Callable | None = None


class SpanRecorder:
    """Records one span per call of every wrapped function."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, size_of: Callable | None = None) -> Callable:
        spans, open_spans, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_of(*args, **kwargs) if size_of is not None else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_spans[-1] if open_spans else -1, None, size])
            open_spans.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx][RAISED] = type(exc).__name__
                raise
            finally:
                open_spans.pop()
                spans[idx][END] = clock()

        return traced

    @contextmanager
    def patched(self, targets: Iterable[Target]):
        """Replace each target attribute with a recording wrapper; every
        original is put back on exit, also when the body raises."""
        saved = []
        try:
            for t in targets:
                # vars() gives the raw class attribute, not a bound method
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t.name, original, t.size_of))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,raised,size\n")
            for s in self.spans:
                raised = s[RAISED] or ""
                size = "" if s[SIZE] is None else s[SIZE]
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{raised},{size}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children never overlap one another and lie
    inside their parent."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest of p99.9, p99, p95, p90, p75 and p50 that has at least
    `beyond` of n samples above it, or None when even p50 has fewer."""
    for pm in _TAIL_PERMILLE:
        if n * (1000 - pm) >= beyond * 1000:
            return pm / 10
    return None


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class NameStats(NamedTuple):
    calls: int
    durations: list[float]
    self_s: float
    raised: int
    sizes: list[int]
    starts: list[float]


def summarize(spans: list[list]) -> dict[str, NameStats]:
    """Per span name: call count, durations, summed self time, calls that
    raised, recorded sizes and start times (in call order)."""
    selfs = self_times(spans)
    acc: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        a = acc.setdefault(
            s[NAME], {"durations": [], "self_s": 0.0, "raised": 0, "sizes": [], "starts": []}
        )
        a["durations"].append(s[END] - s[START])
        a["self_s"] += own
        a["raised"] += s[RAISED] is not None
        if s[SIZE] is not None:
            a["sizes"].append(s[SIZE])
        a["starts"].append(s[START])
    return {
        name: NameStats(calls=len(a["durations"]), **a) for name, a in acc.items()
    }
