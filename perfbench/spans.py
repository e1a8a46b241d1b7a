"""Layer spans for the curation-session benchmark.

The tracer wraps the public entry points of each layer on the paper's
path (editor, xmldb, relational source, provenance store, ProvTable,
queries, storage table/index/plan, WAL) from the benchmark's side: the
program itself carries no instrumentation.  A span is opened around
every wrapped call, and around every ``next()`` on an iterator such a
call returns, so lazily consumed index scans are charged to the layer
that produces their rows.

A span's self time is its duration minus the time its child spans
cover.  Self times are summed per ``(layer, kind)``; time inside a
traced window that no span covers is the window's unattributed time, so
the layer rows plus ``unattributed_s`` add up to the window total.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_SKIP = (staticmethod, classmethod, property)


class Tracer:
    """Span bookkeeping for wrapped layer entry points."""

    def __init__(self) -> None:
        self.active = False
        #: open spans: [layer, kind, start, child_seconds, crossing]
        self._stack: List[list] = []
        self.self_s: Dict[tuple, float] = defaultdict(float)
        #: wrapped calls entering a layer from another layer (or from the
        #: benchmark itself), keyed by (layer, kind, "Class.method")
        self.entries: Counter = Counter()
        #: iterators a layer handed to another layer, and the items they
        #: yielded across that boundary, keyed by layer
        self.probes: Counter = Counter()
        self.rows: Counter = Counter()
        #: inclusive durations of the sampled entry points, by name
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.window_s = 0.0
        self.covered_s = 0.0
        self._restore: List[tuple] = []

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    @contextmanager
    def window(self):
        """Trace the calls made inside the ``with`` block."""
        if self._stack:
            raise RuntimeError("a traced window opened inside an open span")
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.window_s += time.perf_counter() - start
            self.active = False
        if self._stack:
            raise RuntimeError("spans left open at the end of a traced window")

    @property
    def unattributed_s(self) -> float:
        return self.window_s - self.covered_s

    def entry_count(self, layer: str, kind: Optional[str] = None, method: str = "") -> int:
        """Calls into ``layer`` from outside it, optionally only those of
        one ``kind`` or whose method name starts with ``method``."""
        return sum(
            count
            for (span_layer, span_kind, name), count in self.entries.items()
            if span_layer == layer
            and (kind is None or span_kind == kind)
            and name.split(".", 1)[1].startswith(method)
        )

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, layer: str, kind: str, name: Optional[str]) -> list:
        """Open a span; ``name`` is None for an iterator step, which
        continues a call already counted."""
        stack = self._stack
        crossing = not stack or stack[-1][0] != layer
        if name is not None and crossing:
            self.entries[(layer, kind, name)] += 1
        frame = [layer, kind, time.perf_counter(), 0.0, crossing]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        duration = time.perf_counter() - frame[2]
        self._stack.pop()
        self.self_s[(frame[0], frame[1])] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.covered_s += duration
        return duration

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap_class(
        self,
        cls: type,
        layer: str,
        kind_of: Callable[[str], Optional[str]] = lambda name: "self",
        sampled: tuple = (),
    ) -> None:
        """Wrap every public function defined on ``cls`` itself.

        ``kind_of(name)`` names the row the call's self time goes to;
        ``None`` leaves that method unwrapped.  Calls to the names in
        ``sampled`` also record their inclusive duration."""
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or isinstance(attr, _SKIP) or not callable(attr):
                continue
            kind = kind_of(name)
            if kind is None:
                continue
            sample = f"{layer}.{name}" if name in sampled else None
            qualified = f"{cls.__name__}.{name}"
            setattr(cls, name, self._wrap(attr, layer, kind, qualified, sample))
            self._restore.append((cls, name, attr))

    def _wrap(self, fn, layer: str, kind: str, name: str, sample: Optional[str]):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer, kind, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
            if sample is not None:
                tracer.samples[sample].append(duration)
            if isinstance(result, Iterator):
                if frame[4]:
                    tracer.probes[layer] += 1
                return _TracedIterator(tracer, result, layer, kind)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def unwrap_all(self) -> None:
        """Put every wrapped method back."""
        for cls, name, attr in reversed(self._restore):
            setattr(cls, name, attr)
        self._restore.clear()


class _TracedIterator:
    """An iterator whose every ``next()`` is a span of the producing layer."""

    __slots__ = ("_tracer", "_inner", "_layer", "_kind")

    def __init__(self, tracer: Tracer, inner, layer: str, kind: str) -> None:
        self._tracer = tracer
        self._inner = inner
        self._layer = layer
        self._kind = kind

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._inner)
        frame = tracer._enter(self._layer, self._kind, None)
        try:
            item = next(self._inner)
        finally:
            tracer._exit(frame)
        if frame[4]:
            tracer.rows[self._layer] += 1
        return item
