"""Structured tracing and the one telemetry ring.

A span measures one pipeline stage: wall time (``time.perf_counter``),
CPU time (``time.process_time``) and nesting (parent/depth), plus
arbitrary JSON-able attributes. Finished spans land in the
process-global, bounded telemetry ring this module owns. The ring also
holds the other two record types, in arrival order:
:class:`~repro.robustness.diagnostics.Diagnostic`\\ s (from
:func:`repro.robustness.diagnostics.emit`) and event dicts (from
:func:`repro.observability.manifest.record_event`). One sequence numbers
all three, so one :func:`mark` opens one :func:`window` over all of
them, and :mod:`repro.observability.manifest` aggregates that window.

Design constraints, in order:

* **Zero overhead when off.** With ``SIEVE_OBS=off`` (or
  :func:`repro.observability.state.set_enabled` ``(False)``) ``span()``
  returns one shared null context manager — no allocation, no clock
  reads. The no-op-overhead test in
  ``tests/observability/test_spans.py`` pins this. Diagnostics and
  events are recorded either way.
* **Bounded.** :data:`MAX_RECORDS` caps the ring for every record type;
  eviction is O(1) and reading the newest k records costs O(k).
* **Exception safe.** A span closes (and records the exception type in
  its ``error`` field) even when its body raises; the stack always
  unwinds, so one failing stage cannot corrupt the trace of the next.
* **Picklable records.** A forked worker resets the ring and ships its
  one window back through the evaluation engine's supervised executor;
  :func:`adopt` grafts it under the parent's fan-out span, re-issuing
  span ids with a ``proc`` tag so self-time accounting stays
  per-process, and hands every adopted record to the sinks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Iterable, Iterator

from repro.observability import state

#: Upper bound on retained telemetry records of every type; the oldest
#: are evicted FIFO (with a count kept) so week-long sessions cannot
#: grow without bound.
MAX_RECORDS = 500_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span. ``wall_s``/``cpu_s`` are durations, not stamps.

    ``start_s`` is the span's ``perf_counter`` reading at entry — an
    arbitrary-origin, *per-process* stamp. Exporters that lay spans on a
    timeline (:mod:`repro.observability.export`) normalize it per track;
    deterministic (structural) exports exclude it entirely.
    """

    name: str
    wall_s: float
    cpu_s: float
    span_id: int
    parent_id: int  # -1 for a root span
    depth: int
    error: str | None = None  # exception type name if the body raised
    proc: str = "main"  # "main", or "worker" for worker-shipped spans
    attrs: dict = field(default_factory=dict)
    start_s: float = 0.0  # per-process perf_counter stamp at __enter__


class _NullSpan:
    """Shared do-nothing context manager for disabled observability."""

    __slots__ = ()

    span_id = -1

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_lock = threading.Lock()
_ring: deque = deque()
_dropped = 0
_next_id = 0
_tls = threading.local()

#: Live sinks as ``(callback, kind)``: each callback gets every
#: published record that is an instance of its kind.
_sinks: list[tuple[Callable[[object], None], type]] = []


def add_sink(sink: Callable[[object], None], kind: type) -> None:
    """Call ``sink(record)`` for every future record of ``kind``,
    in-process and adopted alike, in ring order."""
    _sinks.append((sink, kind))


def remove_sink(sink: Callable[[object], None]) -> None:
    _sinks[:] = [entry for entry in _sinks if entry[0] != sink]


def clear_sinks() -> None:
    """Drop every registered sink (forked workers, tests)."""
    _sinks.clear()


def _stack() -> list[int]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_stack() -> tuple[int, ...]:
    """The calling thread's open span ids, outermost first."""
    return tuple(_stack())


def continue_stack(stack: tuple[int, ...]) -> None:
    """Open this thread's next spans under another thread's ``stack``
    (a helper thread would otherwise record root spans)."""
    _tls.stack = list(stack)


def _allocate_id() -> int:
    global _next_id
    with _lock:
        span_id = _next_id
        _next_id += 1
    return span_id


def publish(record) -> None:
    """Append one record to the ring and hand it to the matching sinks."""
    global _dropped
    with _lock:
        _ring.append(record)
        while len(_ring) > MAX_RECORDS:
            _ring.popleft()
            _dropped += 1
    for sink, kind in _sinks:
        if isinstance(record, kind):
            sink(record)


class _Span:
    """A live span; created by :func:`span`, recorded on ``__exit__``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth", "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = _stack()
        self.span_id = _allocate_id()
        self.parent_id = stack[-1] if stack else -1
        self.depth = len(stack)
        stack.append(self.span_id)
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = _stack()
        # Unwind to (and past) this span even if an inner span leaked.
        while stack and stack[-1] != self.span_id:
            stack.pop()
        if stack:
            stack.pop()
        publish(
            SpanRecord(
                name=self.name,
                wall_s=wall,
                cpu_s=cpu,
                span_id=self.span_id,
                parent_id=self.parent_id,
                depth=self.depth,
                error=None if exc_type is None else exc_type.__name__,
                attrs=self.attrs,
                start_s=self._wall0,
            )
        )
        return False  # never swallow the body's exception


def span(name: str, **attrs) -> _Span | _NullSpan:
    """Open a span named ``name``; use as a context manager.

    >>> from repro.observability import spans
    >>> mark = spans.mark()
    >>> with spans.span("doctest.outer"):
    ...     with spans.span("doctest.inner", k=1):
    ...         pass
    >>> [r.name for r in spans.records(since=mark)]
    ['doctest.inner', 'doctest.outer']
    """
    if not state.enabled():
        return _NULL_SPAN
    return _Span(name, attrs)


def mark() -> int:
    """A position in the ring's sequence; pass to ``window``/``records``.

    Marks taken before records were evicted under :data:`MAX_RECORDS`
    pressure degrade gracefully (they clamp to the oldest retained
    record).
    """
    with _lock:
        return len(_ring) + _dropped


def window(since: int = 0, kind: type = object) -> tuple:
    """Retained records of ``kind`` from mark ``since`` on, oldest first.

    Walks in from the newest end, so reading the newest k records costs
    O(k) however full the ring is.
    """
    with _lock:
        newest = len(_ring) + _dropped - max(since, _dropped)
        if newest <= 0:
            return ()
        tail = list(islice(reversed(_ring), newest))
    tail.reverse()
    return tuple(record for record in tail if isinstance(record, kind))


def records(since: int = 0) -> tuple[SpanRecord, ...]:
    """Finished spans (completion order), optionally from a mark on."""
    return window(since, SpanRecord)


def dropped() -> int:
    """Records evicted so far under the :data:`MAX_RECORDS` bound."""
    return _dropped


def reset() -> None:
    """Empty the ring and the live-stack state (tests, forked workers)."""
    global _dropped, _next_id
    with _lock:
        _ring.clear()
        _dropped = 0
        _next_id = 0
    _tls.stack = []


def adopt(shipped: Iterable, parent_id: int = -1, proc: str = "worker") -> tuple:
    """Graft a window shipped from another process into this ring.

    Span ids are reassigned from this process's counter (preserving the
    internal parent/child links of the batch); roots of the shipped batch
    are re-parented under ``parent_id``; every span is tagged ``proc`` so
    self-time accounting never subtracts cross-process children.
    Diagnostics and events pass through unchanged. Every record is
    published in shipped order — the engine adopts in task input order,
    so the ring and its sinks see the same order under any ``--jobs``.
    """
    shipped = tuple(shipped)
    id_map = {
        record.span_id: _allocate_id()
        for record in shipped
        if isinstance(record, SpanRecord)
    }
    adopted = tuple(
        replace(
            record,
            span_id=id_map[record.span_id],
            parent_id=id_map.get(record.parent_id, parent_id),
            proc=proc,
        )
        if isinstance(record, SpanRecord)
        else record
        for record in shipped
    )
    for record in adopted:
        publish(record)
    return adopted


@contextmanager
def capture(kind: type) -> Iterator[list]:
    """Collect the records of ``kind`` published inside the ``with``
    block (tests); the list fills from the ring's window on exit."""
    caught: list = []
    since = mark()
    try:
        yield caught
    finally:
        caught.extend(window(since, kind))


def capture_spans():
    """:func:`capture` for the spans finished inside the block.

    >>> with capture_spans() as caught:
    ...     with span("doctest.captured"):
    ...         pass
    >>> [r.name for r in caught]
    ['doctest.captured']
    """
    return capture(SpanRecord)
