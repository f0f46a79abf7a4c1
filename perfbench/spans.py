"""In-memory span recording for the traced benchmark run.

A span is one call across a layer boundary: name, start, end, parent span
and repetition id.  Spans are recorded by wrappers that the benchmark
installs on the module attributes that callers resolve at call time, so
nothing inside the program is edited.  Counts are recorded by the same
wrappers.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, REP = range(5)


class Tracer:
    """Collects spans and counters for one benchmark process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)  # (rep, counter name) -> value
        self.rep = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.rep])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self.rep, name)] += value

    def wrap(self, name: str, fn, counter=None):
        """fn wrapped in a span; counter(args, kwargs, result) returns
        {counter name: value} to add once the call has returned."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.count(key, value)
            return result

        return traced

    def install(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) with a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, counter)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, counter))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(spans[child][START], reach)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def rollup(spans) -> dict:
    """Per repetition and span name: calls, inclusive seconds, self seconds,
    and inclusive seconds of the calls not nested in a span of the same
    layer (the layer's own boundary crossings).

    Returns {rep: {name: [calls, inclusive_s, self_s, outer_s]}}.
    """
    own = self_times(spans)
    table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0.0]))
    for span, self_s in zip(spans, own):
        row = table[span[REP]][span[NAME]]
        duration = span[END] - span[START]
        row[0] += 1
        row[1] += duration
        row[2] += self_s
        parent = span[PARENT]
        if parent < 0 or layer_of(spans[parent][NAME]) != layer_of(span[NAME]):
            row[3] += duration
    return table


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def write_csv(path: str, spans, t0: float) -> None:
    """All spans as CSV rows, times in seconds from t0."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,rep,name,start_s,end_s\n")
        for index, span in enumerate(spans):
            fh.write(
                f"{index},{span[PARENT]},{span[REP]},{span[NAME]},"
                f"{span[START] - t0:.9f},{span[END] - t0:.9f}\n"
            )
