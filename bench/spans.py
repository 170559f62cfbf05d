"""Spans around the exported functions of pathalg's layers, and the
per-layer self times and work counts derived from them.

The tracer replaces, for the length of a ``with`` block, every function
that the pathalg package exports from a layer module, and ``cli.main``,
by a wrapper that records a span: name, job id, start, end and the
enclosing span.  Calls between functions of one module go through the
module's globals, so nested calls are recorded too.  Generator functions
are left alone, since their work happens in the caller that consumes
them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType


@dataclass
class Span:
    name: str
    job: object
    start: float
    end: float = 0.0
    parent: int = -1
    count: int = 0


# functions whose self time is reported on its own; every other traced
# function of a layer counts toward "<layer>.other"
GROUP = {
    "rewriting.hilbert": "rewriting.hilbert",
    "rewriting.compare": "rewriting.compare",
    "rewriting.complete": "rewriting.complete",
    "rewriting.repair_search": "rewriting.repair_search",
    "rewriting.filtration_check": "rewriting.checks",
    "rewriting.anti_automorphism_check": "rewriting.checks",
    "rewriting.heredity_check": "rewriting.checks",
    "homology.path_space_homology": "homology.path_space_homology",
    "homology.consistency_checks": "homology.consistency_checks",
    "geometry.critical_index": "geometry.critical_index",
    "geometry.half_circle": "geometry.half_circle",
    "geometry.concat_min": "geometry.concat_min",
    "geometry.sample_yk": "geometry.sample_yk",
    "geometry.path_norm": "geometry.path_norm",
    "geometry.path_energy": "geometry.path_energy",
    "cli.main": "cli",
}

# work done by one call: the metric suffix, and how to read it from the result
COUNTERS = {
    "rewriting.hilbert": ("words", lambda table: sum(v for _, v in table.entries)),
    "rewriting.complete": ("rules", lambda rs: len(rs.rules)),
    "rewriting.repair_search": ("augmentations", len),
    "geometry.critical_index": ("dim", lambda res: len(res.eigenvalues)),
    "geometry.half_circle": ("samples", lambda path: path.num_samples),
}

PER_LAYER = [
    ("rewriting.hilbert.self_s", "s"),
    ("rewriting.hilbert.calls", "count"),
    ("rewriting.hilbert.words", "count"),
    ("rewriting.compare.self_s", "s"),
    ("rewriting.compare.calls", "count"),
    ("rewriting.complete.self_s", "s"),
    ("rewriting.complete.calls", "count"),
    ("rewriting.complete.rules", "count"),
    ("rewriting.repair_search.self_s", "s"),
    ("rewriting.repair_search.calls", "count"),
    ("rewriting.repair_search.augmentations", "count"),
    ("rewriting.repair_search.survivor_ratio", "ratio"),
    ("rewriting.checks.self_s", "s"),
    ("rewriting.checks.calls", "count"),
    ("rewriting.other.self_s", "s"),
    ("homology.path_space_homology.self_s", "s"),
    ("homology.consistency_checks.self_s", "s"),
    ("homology.other.self_s", "s"),
    ("geometry.critical_index.self_s", "s"),
    ("geometry.critical_index.calls", "count"),
    ("geometry.critical_index.dim", "count"),
    ("geometry.half_circle.self_s", "s"),
    ("geometry.half_circle.calls", "count"),
    ("geometry.half_circle.samples", "count"),
    ("geometry.concat_min.self_s", "s"),
    ("geometry.concat_min.calls", "count"),
    ("geometry.sample_yk.self_s", "s"),
    ("geometry.sample_yk.calls", "count"),
    ("geometry.path_norm.self_s", "s"),
    ("geometry.path_norm.calls", "count"),
    ("geometry.path_energy.self_s", "s"),
    ("geometry.path_energy.calls", "count"),
    ("geometry.other.self_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def group(name: str) -> str:
    return GROUP.get(name, name.split(".")[0] + ".other")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _inside(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def accumulate(spans: list[Span], totals: defaultdict) -> None:
    """Add the self times, call counts and work counts of spans to totals,
    keyed by metric name."""
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        g = group(s.name)
        totals[g + ".self_s"] += own
        totals[g + ".calls"] += 1
        if s.name in COUNTERS:
            totals[g + "." + COUNTERS[s.name][0]] += s.count
        if s.name == "rewriting.complete" and _inside(spans, i, "rewriting.repair_search"):
            totals["rewriting.repair_search.completes"] += 1


def layer_metrics(totals: dict) -> dict[str, float]:
    """The PER_LAYER metrics from accumulated totals."""
    completes = totals.get("rewriting.repair_search.completes", 0)
    derived = {"rewriting.repair_search.survivor_ratio":
               totals.get("rewriting.repair_search.augmentations", 0) / completes
               if completes else 0.0}
    return {name: derived.get(name, totals.get(name, 0)) for name, _ in PER_LAYER}


class Tracer:
    """Context manager that records spans around the exported functions
    of the given layer modules and around ``entry.main``."""

    def __init__(self, layers: dict[str, ModuleType], entry: ModuleType):
        self.spans: list[Span] = []
        self.job: object = None
        self._stack: list[int] = []
        self._targets = [(entry, "main", "cli.main")]
        for prefix, mod in layers.items():
            exported = vars(sys.modules[mod.__package__])
            for attr, fn in vars(mod).items():
                if (exported.get(attr) is fn and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    self._targets.append((mod, attr, f"{prefix}.{attr}"))
        self._saved: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.job, perf_counter(),
                        parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter[1](result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for mod, attr, name in self._targets:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out
