"""In-memory spans recorded by the benchmark around the program's calls.

The traced run patches the public functions listed in ``README.md`` with
wrappers that open a span per call; nothing under ``src/`` changes.  A
span has a name, start, end and parent (the innermost open span on the
same thread).  Spans stay in a list until the run ends, then
:func:`self_times` turns them into per-layer busy time: a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        start = perf_counter()
        record = Span(next(self._ids), name, start, start,
                      stack[-1] if stack else None, attrs)
        stack.append(record.sid)
        try:
            yield record
        finally:
            record.end = perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until
        :meth:`restore`.  ``owner`` is a class, a module or a dict;
        ``after(span, args, result)`` may add attributes to the span."""
        original = self.original(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
                return result

        self.patch(owner, attr, wrapper)

    @staticmethod
    def original(owner, attr: str):
        if isinstance(owner, dict):
            return owner[attr]
        if isinstance(owner, type):
            return owner.__dict__[attr]
        return getattr(owner, attr)

    def patch(self, owner, attr: str, replacement) -> None:
        """Install ``replacement`` as ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, self.original(owner, attr)))
        _assign(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            _assign(owner, attr, original)
        self._patches.clear()


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.sid] = s.duration - covered
    return result


def has_ancestor(span: Span, by_id: Dict[int, Span], name: str) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id.get(parent)
        if node is None:
            return False
        if node.name == name:
            return True
        parent = node.parent
    return False
