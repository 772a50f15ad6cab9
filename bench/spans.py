"""In-memory spans, self times and the tail-percentile rule.

Standard library only: replay.py imports this module before it times
`import ivcheck`, so importing it must not pull in numpy.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Public functions wrapped with a span in a traced process, by module. Calls
# between ivcheck modules go through these module attributes too, so a span
# for `clrtest.run_test` gets a child span for `npreg.local_linear_weights`.
TRACED = {
    "data": ("load_csv",),
    "estimators": ("fit_ols", "fit_iv", "fit_gmm2step", "fit_boxcox"),
    "moments": ("build_for_spec", "build_parametric_grid"),
    "npreg": ("local_linear_weights", "fit_series", "fit_cell_means"),
    "clrtest": ("first_step_fit", "run_test", "test_model", "identified_set"),
    "overid": ("sargan", "hansen_j"),
    "mte": ("fit_propensity", "fit_control_function", "uniformity_diagnostic",
            "condition1_diagnostic", "estimate_mte", "estimate_asf"),
    "simulate": ("generate", "run_study"),
}
# Spans that also record their peak of traced allocations when the tracer is
# made with memory=True. tracemalloc runs only while one of them is open, but
# it still slows the allocations inside, so timings come from a tracer
# without it.
MEMORY_SPANS = {"clrtest.run_test", "npreg.local_linear_weights"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the same span list
    op: str  # operation id shared by every span of one request or study
    peak_mb: float | None = None


class Tracer:
    """Records nested spans in memory; `dump` writes them when the run ends."""

    def __init__(self, op: str = "", memory: bool = False):
        self.spans: list[Span] = []
        self.op = op
        self.memory = memory
        self._stack: list[int] = []
        self._mem: list[list[float]] = []  # per open memory span: [base, peak so far]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        tracked = self.memory and name in MEMORY_SPANS
        if tracked:
            self._mem_enter()
        try:
            yield
        finally:
            if tracked:
                self.spans[index].peak_mb = self._mem_exit()
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def _mem_enter(self):
        if not self._mem:
            tracemalloc.start()
        else:
            self._mem[-1][1] = max(self._mem[-1][1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self._mem.append([tracemalloc.get_traced_memory()[0], 0.0])

    def _mem_exit(self) -> float:
        base, peak = self._mem.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()
        return (peak - base) / 2**20

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def instrument(tracer: Tracer, package: str = "ivcheck"):
    """Replace each function in TRACED, wherever an ivcheck module holds it.

    `cli` imports them by name, so its `_cmd_*` functions call the wrapped
    ones too. Returns a function that puts the originals back.
    """
    pkg = importlib.import_module(package)
    modules = [pkg] + [importlib.import_module(f"{package}.{m}") for m in (*TRACED, "cli")]
    replaced = []
    for modname, names in TRACED.items():
        owner = importlib.import_module(f"{package}.{modname}")
        for name in names:
            fn = getattr(owner, name)
            wrapped = tracer.wrap(f"{modname}.{name}", fn)
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    setattr(mod, name, wrapped)
                    replaced.append((mod, name, fn))

    def restore():
        for mod, name, fn in replaced:
            setattr(mod, name, fn)

    return restore


def load_spans(path, op: str, parent: int | None, offset: int) -> list[Span]:
    """Spans written by `Tracer.dump`, re-indexed to follow `offset` earlier spans.

    Root spans get `parent` as their parent, and every span gets `op`.
    """
    with open(path) as fh:
        raw = json.load(fh)
    out = []
    for rec in raw:
        rec["parent"] = parent if rec["parent"] is None else rec["parent"] + offset
        rec["op"] = op
        out.append(Span(**rec))
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def tail(samples, beyond: int = 10):
    """(value, percentile) at the highest percentile with `beyond` samples above it.

    With n sorted samples that is the value at 1-based rank n - beyond, i.e.
    percentile 100 (n - beyond) / n. Needs more than `beyond` samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def median(values) -> float:
    return float(statistics.median(values))
