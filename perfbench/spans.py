"""In-memory spans, self time, and per-request layer attribution.

A span has a name, start, end, parent span and request id.  The load
generator opens one ``request`` span per HTTP exchange and sends its id
in :data:`HEADER`; the traced server's handler adopts it as the remote
parent, so every span the request causes in the service joins that
request's tree.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

#: Request header carrying ``<request id>.<span id>`` of the caller's span.
HEADER = "X-Perfbench-Span"


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    request: int
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class _Remote:
    """A parent span opened in another thread (the client's request)."""

    id: int
    request: int


class Recorder:
    """Collects spans from every thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Optional[Span]:
        """Start a span as a child of this thread's innermost open one."""
        if not self.active:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            parent=None if parent is None else parent.id,
            request=span_id if parent is None else parent.request,
            start=0.0,
            attrs=attrs,
        )
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Span]]:
        opened = self.open(name, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    @staticmethod
    def header(span: Span) -> Dict[str, str]:
        return {HEADER: f"{span.request}.{span.id}"}

    @contextmanager
    def adopt(self, value: Optional[str]) -> Iterator[None]:
        """Parent this thread's spans on the caller span named in ``value``."""
        remote = None
        if value and self.active:
            request, _, span_id = value.partition(".")
            remote = _Remote(int(span_id), int(request))
            self._stack().append(remote)
        try:
            yield
        finally:
            if remote is not None:
                self._stack().remove(remote)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "request": s.request, "start": s.start, "end": s.end,
                    "attrs": s.attrs,
                }) + "\n")


def _covered(start: float, end: float, children: Iterable[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    total, reach = 0.0, start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: s.duration - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def attribute(
    spans: Iterable[Span], layer_of: Mapping[str, Optional[str]]
) -> List[Dict[str, float]]:
    """Per request: wall time, self time per layer, and the unattributed rest.

    A request is the tree under one root span.  Spans whose name maps to
    no layer contribute their self time to ``unattributed``: code that
    runs inside the request but outside every measured layer.
    """
    spans = list(spans)
    own = self_times(spans)
    by_request: Dict[int, List[Span]] = {}
    for s in spans:
        by_request.setdefault(s.request, []).append(s)
    rows = []
    for request, members in by_request.items():
        root = next((s for s in members if s.id == request), None)
        if root is None:
            continue
        row: Dict[str, float] = {"wall": root.duration}
        for s in members:
            layer = layer_of.get(s.name)
            if layer is not None:
                row[layer] = row.get(layer, 0.0) + own[s.id]
        row["unattributed"] = root.duration - sum(
            v for k, v in row.items() if k != "wall"
        )
        rows.append(row)
    return rows
