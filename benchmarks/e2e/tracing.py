"""In-memory spans for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing under ``src/repro`` knows about
them.  A span is ``[name, start, end, parent index, request id]``; they are
kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

_clock = time.perf_counter


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "_Span":
        self._record[1] = _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._record[2] = _clock()
        self._tracer._stack.pop()


class Tracer:
    """Records nested spans; one request id is shared by a request's spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request_id: Optional[int] = None

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.request_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record)

    def self_times(self, first: int = 0,
                   last: Optional[int] = None) -> Dict[str, float]:
        """Total self time per span name over ``spans[first:last]`` (whole
        requests): a span's duration minus its children's."""
        last = len(self.spans) if last is None else last
        children = [0.0] * (last - first)
        for _name, start, end, parent, _request in self.spans[first:last]:
            if parent >= 0:
                children[parent - first] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _request) in enumerate(
                self.spans[first:last]):
            totals[name] += (end - start) - children[index]
        return dict(totals)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, handle)
