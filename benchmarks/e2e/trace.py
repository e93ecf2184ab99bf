"""Benchmark-side span recorder (standard library only).

``Tracer.span(name, **attrs)`` times one call into a layer.  Spans nest
through a ``contextvars`` variable, so a span opened inside another
records it as its parent and shares its trace id; each thread starts
its own traces.  Spans stay in memory until :meth:`Tracer.write` dumps
them as JSONL.  A disabled tracer hands out one shared no-op context,
so untraced runs pay almost nothing for the instrumentation.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import time
from typing import Dict, List, Tuple

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)

    def span(self, name: str, **attrs):
        return self._span(name, attrs) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _span(self, name: str, attrs: Dict):
        parent = self._current.get()
        record = {
            "name": name,
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        if record["trace"] is None:
            record["trace"] = record["id"]
        token = self._current.set(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)  # list.append is atomic under the GIL

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``, in end order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (spans, total s, self s)``; self excludes child spans."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        table: Dict[str, Tuple[int, float, float]] = {}
        for s in self.spans:
            total = s["end"] - s["start"]
            n, t, own = table.get(s["name"], (0, 0.0, 0.0))
            table[s["name"]] = (n + 1, t + total, own + total - child_time.get(s["id"], 0.0))
        return table

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")
