"""In-memory span tracer for the traced benchmark run.

A span records one call into a layer: its name, start and end, the span
that was open when it started, and the operation it belongs to.  Spans are
kept in memory and written out once, when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.
"""

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span, None at top level
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter_ns(), 0, parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end_ns = perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Self time in seconds of each layer name, per operation."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, children in zip(self.spans, child_ns):
            out[s.op][s.name] += (s.end_ns - s.start_ns - children) * 1e-9
        return out

    def top_level_s(self) -> dict[int, float]:
        """Time in seconds covered by top-level spans, per operation."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is None:
                out[s.op] += (s.end_ns - s.start_ns) * 1e-9
        return out

    def spans_per_op(self) -> dict[int, int]:
        return Counter(s.op for s in self.spans)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _noop() -> None:
    pass


def span_cost_s(calls: int = 20_000) -> float:
    """Time that recording one span adds to a call, measured on a call that
    does nothing.  (The wall time of a traced and an untraced evaluation
    differs by far less than the machine's drift between the two.)"""
    tracer = Tracer()
    t0 = perf_counter_ns()
    for _ in range(calls):
        tracer.call("probe", _noop)
    t1 = perf_counter_ns()
    for _ in range(calls):
        _noop()
    t2 = perf_counter_ns()
    return ((t1 - t0) - (t2 - t1)) * 1e-9 / calls


class NullTracer:
    """The untraced path: the same calls, no spans."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextmanager
def instrument(tracer, module, attr: str, name: str):
    """Record a span around every call of `module.attr` made through that
    module's namespace, for the duration of the block."""
    original = getattr(module, attr)

    def traced(*args, **kwargs):
        return tracer.call(name, original, *args, **kwargs)

    setattr(module, attr, traced)
    try:
        yield
    finally:
        setattr(module, attr, original)
