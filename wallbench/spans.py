"""Wall-clock spans recorded from outside the program under test.

The recorder keeps every span in memory: its name, start and end
(``perf_counter_ns``), the span that was open on the same thread when it
started (its parent) and the request id it belongs to.  A span's *self*
time is its duration minus the durations of its direct children, which on
one thread are nested and sequential, so per-layer self times add up
without double counting.

:func:`patch` installs a timing wrapper in place of a function or method,
under the name its callers look it up by (a class attribute for methods,
the importing module's global for ``from x import f`` bindings), so the
package under test is never edited.  :meth:`Recorder.unpatch_all` restores
every original.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

NameFn = Union[str, Callable[..., str]]


class Span:
    """One timed call: ``[start, end)`` in nanoseconds on one thread."""

    __slots__ = ("name", "start", "end", "parent", "request_id", "child_ns")

    def __init__(self, name: str, start: int, parent: Optional["Span"], request_id) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.enabled = False
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = Span(name, time.perf_counter_ns(), parent, request_id)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.end - span.start
        self.spans.append(span)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the calling thread."""
        return any(s.name == name for s in self._stack())

    def count(self, name: str, value: float = 1.0) -> None:
        with self._count_lock:  # runtime workers count concurrently
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # -- patching -------------------------------------------------------
    def patch(
        self,
        owner: object,
        attr: str,
        name: NameFn,
        *,
        request_id: Optional[Callable[..., object]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.  ``request_id`` derives the span's request id from
        the arguments (otherwise it is inherited from the enclosing span).
        ``after(recorder, args, kwargs, result)`` runs once the call returns,
        to record counts taken at the same boundary.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            span = recorder.open(
                name if isinstance(name, str) else name(*args, **kwargs),
                request_id(*args, **kwargs) if request_id is not None else None,
            )
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def uncovered_ns(windows: Iterable[Tuple[int, int]], cover: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``windows`` that no interval of ``cover`` overlaps."""
    merged_windows, merged_cover = _merge(windows), _merge(cover)
    overlap, j = 0, 0
    for start, end in merged_windows:
        while j < len(merged_cover) and merged_cover[j][1] <= start:
            j += 1
        k = j
        while k < len(merged_cover) and merged_cover[k][0] < end:
            overlap += min(end, merged_cover[k][1]) - max(start, merged_cover[k][0])
            k += 1
    return sum(end - start for start, end in merged_windows) - overlap


def _merge(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sorted, disjoint union of ``[start, end)`` intervals."""
    out: List[List[int]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(s, e) for s, e in out]


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds.

    A call nested in another call of the same name (one public function
    calling another of its layer) counts once and adds only its self time.
    """
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = out[span.name]
        row["self_s"] += span.self_ns * 1e-9
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            row["count"] += 1
            row["busy_s"] += span.duration_ns * 1e-9
    return dict(out)
