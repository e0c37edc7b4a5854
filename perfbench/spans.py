"""Span recording, function wrapping and the decision-gap clock.

Everything here lives outside the program: the tracer replaces module
attributes and class methods of ``apexopt`` for the length of a traced
phase and puts the originals back afterwards, so the package itself
carries no instrumentation.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_TAIL = 10


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``.

    Intervals are clipped to [start, end]; overlaps count once.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def top_percentile(n: int) -> float | None:
    """Highest reportable percentile: at least MIN_TAIL samples lie beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_TAIL - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def min_over_passes(values: Sequence[float], pass_ends: Sequence[int]) -> list[float]:
    """Element-wise minimum over passes of repeated, identical work.

    ``pass_ends[k]`` is the number of values recorded when pass k ended.
    Every pass must have recorded the same number of values.
    """
    bounds = [0, *pass_ends]
    passes = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    if not passes or len({len(p) for p in passes}) != 1:
        raise ValueError(f"passes differ in length: {[len(p) for p in passes]}")
    return [min(column) for column in zip(*passes)]


class TrialClock:
    """Times the engine between consecutive executor calls.

    Wrapped around ``run_trial``, it records one gap per trial after the
    first of each run: from the previous call returning to the next call
    starting, on the same executor. That is the engine's analysis and
    selection time for one trial. ``on_release`` sees each executor once
    the clock has moved on to the next one (and at ``finish``).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 on_release: Callable[[object], None] | None = None):
        self.clock = clock
        self.on_release = on_release
        self.gap_starts: list[float] = []
        self.gap_ends: list[float] = []
        self.trials = 0
        self._owner = None
        self._last_return = 0.0

    def wrap(self, run_trial: Callable) -> Callable:
        clock = self.clock

        def timed_run_trial(executor, set_index, trial_index):
            t_call = clock()
            if executor is self._owner:
                self.gap_starts.append(self._last_return)
                self.gap_ends.append(t_call)
            else:
                self._release()
                self._owner = executor
            obs = run_trial(executor, set_index, trial_index)
            self._last_return = clock()
            self.trials += 1
            return obs

        return timed_run_trial

    @property
    def gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.gap_starts, self.gap_ends)]

    def _release(self) -> None:
        if self._owner is not None and self.on_release is not None:
            self.on_release(self._owner)
        self._owner = None

    def finish(self) -> None:
        self._release()


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    approach: str
    iteration: int  # the engine seed, unique within one approach
    trial: int  # index of the last trial run in the iteration
    size: float  # rows, points or a flag, per span kind; 0 when unused


class Tracer:
    """In-memory span store with a parent stack (single thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.approach = ""
        self.iteration = -1
        self.trial = 0

    def wrap(self, fn: Callable, name: str,
             size: Callable | None = None, bind: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``bind(args)`` runs before the call to update the id context;
        ``size(args, result)`` gives the span's size field.
        """
        clock = self.clock
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if bind is not None:
                bind(self, args)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            ids = (self.approach, self.iteration, self.trial)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = Span(name, start, end, parent, *ids, 0.0)
            if size is not None:
                spans[slot] = spans[slot]._replace(size=float(size(args, result)))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per closed span: duration minus the part its child spans cover."""
        kids: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                kids[s.parent].append((s.start, s.end))
        return [(s.end - s.start) - covered(s.start, s.end, kids[i])
                for i, s in enumerate(self.spans)]

    def write_jsonl(self, path) -> None:
        """One header line with the field names, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(list(Span._fields)) + "\n")
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


@dataclass(frozen=True)
class Target:
    """One function or method to wrap: ``module:attr`` or ``module:Class.attr``."""

    path: str
    span: str
    size: Callable | None = None
    bind: Callable | None = None


class Patcher:
    """Install wrappers on ``apexopt`` attributes and restore the originals.

    A module-level function is replaced in every loaded ``apexopt`` module
    that holds it under its own name, which covers ``from x import f``.
    """

    def __init__(self, package: str = "apexopt"):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self, targets: Sequence[Target], make: Callable) -> None:
        """``make(original_function, target)`` returns the replacement."""
        for t in targets:
            mod_name, attr_path = t.path.split(":")
            owner = importlib.import_module(mod_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make(raw.__func__, t))
                else:
                    new = make(raw, t)
                self._set(owner, attr, raw, new)
                continue
            raw = getattr(owner, attr)
            new = make(raw, t)
            for mod in self._modules():
                if mod.__dict__.get(attr) is raw:
                    self._set(mod, attr, raw, new)

    def _set(self, owner, attr, raw, new) -> None:
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every original back; raise if any attribute did not revert."""
        first: dict[tuple[int, str], tuple[object, str, object]] = {}
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
            first[(id(owner), attr)] = (owner, attr, raw)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, raw in first.values()
               if o.__dict__[a] is not raw]
        self._saved.clear()
        if bad:
            raise RuntimeError(f"wrappers not restored: {bad}")
