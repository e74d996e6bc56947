"""Span tracer that instruments a package's functions from the outside.

`instrument` wraps the public functions of the listed modules and rebinds the
wrapper everywhere the original is bound inside the package, so calls through
`from .x import f` copies are timed as well as calls through `module.f`. Each
call records one span (name, start, end, parent). A layer's self time is its
span durations minus the part of each span that its child spans cover.

Nothing here imports the traced package; callers pass module names.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; a stack of open spans gives each its parent."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Return fn wrapped in a span; count(args, kwargs, result) -> counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx].counts.update(count(args, kwargs, result))
            return result

        return traced


def layer_name(module_name: str) -> str:
    """'degcorr._exact' -> 'exact': last dotted part, leading '_' dropped."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Instrumentation:
    """The rebinding made by `instrument`; `restore` undoes it."""

    def __init__(self, patched: list[tuple[object, str, object]]):
        self.patched = patched

    def restore(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []


def instrument(
    tracer: Tracer,
    package: str,
    modules: list[str],
    aliases: dict[str, str] | None = None,
    counters: dict[str, Callable] | None = None,
) -> Instrumentation:
    """Wrap the public functions defined in `modules` (relative to `package`).

    aliases maps a private function ('measures._f') to the layer name it
    should report under, which also makes it wrapped. Generator functions are
    skipped: a span around them would close before their work runs.
    """
    aliases = aliases or {}
    counters = counters or {}
    wrappers: dict[int, tuple[object, Callable]] = {}
    for rel in modules:
        module = importlib.import_module(f"{package}.{rel}")
        prefix = layer_name(module.__name__)
        for attr, value in vars(module).items():
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            key = f"{prefix}.{attr}"
            if attr.startswith("_") and key not in aliases:
                continue
            if inspect.isgeneratorfunction(value):
                continue
            name = aliases.get(key, key)
            wrappers[id(value)] = (value, tracer.wrap(name, value, counters.get(name)))

    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return Instrumentation(patched)


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of its children,
    each child clipped to the parent's interval."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, summed self time, summed duration of the
    outermost spans of that name (so recursion is not counted twice), and
    summed counts."""
    selfs = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.self_s += selfs[i]
        if not _has_ancestor_named(spans, i, s.name):
            t.total_s += s.duration
        for k, v in s.counts.items():
            t.counts[k] = t.counts.get(k, 0) + v
    return totals


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
