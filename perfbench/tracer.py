"""Spans and work counters recorded by the benchmark around library calls.

A span is (id, name, start, end, parent id, request id).  Spans stay in
memory and are written out once, when the run ends.  With tracing off,
Tracer.call is a plain call and nothing is recorded.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._next_id = 0
        self._request: tuple[int, int] | None = None  # (span id, request id)

    def begin(self, request_id: int) -> float:
        """Open a request's root span; returns its start time."""
        self._request = (self._new_id(), request_id)
        return time.perf_counter()

    def end(self, name: str, start: float) -> None:
        if self.on and self._request is not None:
            sid, rid = self._request
            self.spans.append((sid, name, start, time.perf_counter(), None, rid))
        self._request = None

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span named `<module>.<function>`."""
        if not self.on:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        except BaseException:
            self.counters[name.split(".", 1)[0] + ".errors"] += 1
            raise
        finally:
            self.span(name, start, time.perf_counter())

    def span(self, name: str, start: float, end: float) -> None:
        parent, rid = self._request if self._request else (None, -1)
        self.spans.append((self._new_id(), name, start, end, parent, rid))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def bits(self, name: str, *fractions) -> None:
        """Track the largest denominator bit length seen under `name`."""
        top = max((q.denominator.bit_length() for q in fractions), default=0)
        if top > self.maxima[name]:
            self.maxima[name] = top

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self, functions: list[str]) -> dict[str, tuple[float, str]]:
        """calls, busy_s (summed self time) and ms_p50 for each function."""
        selfs = self.self_times()
        durations: dict[str, list[float]] = defaultdict(list)
        busy: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            durations[name].append(end - start)
            busy[name] += selfs[sid]
        out = {}
        for fn in functions:
            ds = durations.get(fn, [])
            out[f"{fn}.calls"] = (len(ds), "count")
            out[f"{fn}.busy_s"] = (busy.get(fn, 0.0), "s")
            out[f"{fn}.ms_p50"] = (statistics.median(ds) * 1e3 if ds else 0.0, "ms")
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,request\n")
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{rid}\n")
            fh.write("# " + json.dumps({"counters": self.counters, "maxima": self.maxima}) + "\n")
