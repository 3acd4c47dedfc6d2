"""Spans around the benchmark's own calls into meetlogic.

A span has a name, start, end, parent span and query id. Spans are kept in
memory and written out when the run ends. ``NULL`` is the tracer of untraced
runs: its spans cost one method call and record nothing.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    on = False
    _span = _NullSpan()

    def span(self, name: str):
        return self._span

    def query(self, qid: int, name: str):
        return self._span


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "qid", "index")

    def __init__(self, tracer, name, qid):
        self.tracer, self.name, self.qid = tracer, name, qid

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        qid = self.qid if self.qid is not None else t.qid
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, qid])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


class Tracer:
    on = True

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, query id]
        self.stack: list = []
        self.qid = -1

    def span(self, name: str):
        return _Span(self, name, None)

    def query(self, qid: int, name: str):
        self.qid = qid
        return _Span(self, name, qid)

    def summary(self) -> dict:
        """name -> {"total_s", "self_s", "count"}; self time is the span's
        duration minus the time its direct children cover."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "count": 0})
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["count"] += 1
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "query": q}
                for n, s, e, p, q in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "summary": self.summary()}, fh)
