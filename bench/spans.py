"""In-memory spans for the traced benchmark run, and their arithmetic.

A span is one timed call at a layer boundary: name, start, end and the span
that was open when it began (its parent).  The tracer wraps functions from
outside the program, so the program itself carries no timers.

Generator functions (``read_packets_jsonl``) are timed over their iteration:
the span opens at the first ``next()`` and closes when the generator is
exhausted or closed, not when the generator object is created.  A generator
span is not pushed on the parent stack, because its consumer keeps running
between items; spans opened while it is live are its siblings, and the
union in :func:`covered` keeps the parent's self time from counting an
interval twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (name, start, end, parent index or -1)
Span = Tuple[str, float, float, int]


class Tracer:
    """Collects spans and per-name counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._spans: List[list] = []     # [name, start, end, parent]
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}

    @property
    def spans(self) -> List[Span]:
        return [tuple(s) for s in self._spans]

    def begin(self, name: str, push: bool = True) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, self.clock(), None, parent])
        idx = len(self._spans) - 1
        if push:
            self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._spans[idx][2] = self.clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        """Return ``fn`` timed as span ``name``.

        ``observe(tracer, args, kwargs, result)`` runs after the span closes
        (outside the timed interval).  For a generator function, ``result``
        is the number of items yielded.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs),
                                     observe, args, kwargs)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def _iterate(self, name, gen, observe, args, kwargs):
        idx = self.begin(name, push=False)   # runs at the first next()
        n = 0
        try:
            for item in gen:
                n += 1
                yield item
        finally:
            self.end(idx)
            gen.close()
        if observe is not None:
            observe(self, args, kwargs, n)


def covered(interval: Tuple[float, float],
            others: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``others``
    covers."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in others
                     if min(e, hi) > max(s, lo))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its direct children cover.

    Grandchildren lie inside children, so they are not subtracted twice;
    overlapping or repeated children count once through the union.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, s, e, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    return [(e - s) - covered((s, e), children.get(i, ()))
            for i, (name, s, e, parent) in enumerate(spans)]


def summarize(spans: Sequence[Span]) -> Dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds, slowest call and
    total self seconds."""
    out: Dict[str, dict] = {}
    for (name, s, e, _), self_s in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "max_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += e - s
        row["max_s"] = max(row["max_s"], e - s)
        row["self_s"] += self_s
    return out
