"""Spans for the traced benchmark run.

A ``Tracer`` replaces functions of the program with wrappers that record one
span per call: its name, start, end and the span that was open when the call
began. Spans stay in memory, in flat arrays, until the process ends;
``summarise`` then turns them into calls and self time per name.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional, Sequence

Span = tuple[str, float, float, int]  # name, start, end, parent index (-1: none)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable[[dict, object], None]] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``count(counters, result)`` reads work counts from the returned value.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return wrapper

    def spans(self) -> list[Span]:
        return [(self.names[n], s, e, p)
                for n, s, e, p in zip(self._name, self._start, self._end, self._parent)]


def summarise(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Calls, self time and total time per span name.

    A span's self time is its duration minus the part of it that its direct
    child spans cover. ``calls`` and ``total_s`` count only outermost spans,
    those with no ancestor of the same name, so recursion is counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    covered = defaultdict(float)
    for parent, intervals in children.items():
        _, lo, hi, _ = spans[parent]
        covered[parent] = _union_length(intervals, lo, hi)

    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["self_s"] += (end - start) - covered[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            rec["calls"] += 1
            rec["total_s"] += end - start
    return out


def _union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def install(tracer: Tracer, package: str,
            targets: Iterable[tuple[str, str, str, Optional[Callable]]]) -> None:
    """Wrap each target (owner, attribute, span name, counter).

    ``owner`` is a module path, or ``module:Class`` for a method. A module
    function is replaced in every loaded module of ``package`` that binds
    it, so callers that imported it by name see the wrapper too.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    for owner, attr, name, count in targets:
        module_name, _, class_name = owner.partition(":")
        module = sys.modules[module_name]
        if class_name:
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, count)))
            else:
                setattr(cls, attr, tracer.wrap(raw, name, count))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(orig, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
