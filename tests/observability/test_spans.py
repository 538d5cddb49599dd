"""Span nesting, exception safety, disabled mode and overhead bounds."""

import threading
import time

import pytest

from repro.observability import spans, state
from repro.observability.spans import span


@pytest.fixture(autouse=True)
def _clean_spans():
    spans.reset()
    yield
    spans.reset()
    state.set_enabled(None)


def test_nesting_parent_child_and_depth():
    with spans.capture_spans() as caught:
        with span("outer") as outer:
            with span("inner", k=1) as inner:
                pass
    by_name = {r.name: r for r in caught}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["outer"].parent_id == -1
    assert by_name["outer"].depth == 0
    assert by_name["inner"].parent_id == outer.span_id
    assert by_name["inner"].depth == 1
    assert by_name["inner"].span_id == inner.span_id
    assert by_name["inner"].attrs == {"k": 1}


def test_helper_thread_continues_the_callers_stack():
    """A helper thread seeded with the caller's stack nests its spans
    under the caller's live span instead of recording a root."""
    with spans.capture_spans() as caught:
        with span("outer") as outer:
            stack = spans.current_stack()

            def helper():
                spans.continue_stack(stack)
                with span("helper"):
                    pass

            thread = threading.Thread(target=helper)
            thread.start()
            thread.join(5.0)
            assert not thread.is_alive()
    record = next(r for r in caught if r.name == "helper")
    assert record.parent_id == outer.span_id
    assert record.depth == 1


def test_records_are_completion_ordered():
    with spans.capture_spans() as caught:
        with span("a"):
            with span("b"):
                pass
        with span("c"):
            pass
    assert [r.name for r in caught] == ["b", "a", "c"]


def test_exception_closes_span_and_records_error():
    with spans.capture_spans() as caught:
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
    (record,) = caught
    assert record.name == "failing"
    assert record.error == "ValueError"
    # The stack unwound: a fresh span is a root again.
    with spans.capture_spans() as after:
        with span("next"):
            pass
    assert after[0].parent_id == -1
    assert after[0].depth == 0


def test_exception_in_nested_span_unwinds_both():
    with spans.capture_spans() as caught:
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError
    by_name = {r.name: r for r in caught}
    assert by_name["inner"].error == "RuntimeError"
    assert by_name["outer"].error == "RuntimeError"


def test_wall_and_cpu_are_positive_durations():
    with spans.capture_spans() as caught:
        with span("timed"):
            sum(range(1000))
    (record,) = caught
    assert record.wall_s >= 0.0
    assert record.cpu_s >= 0.0
    assert record.wall_s < 1.0  # a duration, not a timestamp


def test_disabled_records_nothing():
    state.set_enabled(False)
    with spans.capture_spans() as caught:
        with span("invisible"):
            pass
    assert caught == []
    state.set_enabled(True)
    with spans.capture_spans() as caught:
        with span("visible"):
            pass
    assert [r.name for r in caught] == ["visible"]


def test_disabled_span_is_shared_null_instance():
    state.set_enabled(False)
    assert span("a") is span("b")


def test_mark_and_since_window():
    with span("before"):
        pass
    mark = spans.mark()
    with span("after"):
        pass
    assert [r.name for r in spans.records(since=mark)] == ["after"]


def test_adopt_reparents_and_tags_proc():
    # Simulate records shipped from a worker process.
    with spans.capture_spans() as worker_caught:
        with span("w.outer"):
            with span("w.inner"):
                pass
    shipped = tuple(worker_caught)
    spans.reset()
    with span("pool") as pool_span:
        adopted = spans.adopt(shipped, parent_id=pool_span.span_id)
    by_name = {r.name: r for r in adopted}
    assert all(r.proc == "worker" for r in adopted)
    # Batch-internal links survive; the batch root hangs off the pool span.
    assert by_name["w.outer"].parent_id == pool_span.span_id
    assert by_name["w.inner"].parent_id == by_name["w.outer"].span_id
    # Adopted ids never collide with local ones.
    local_ids = {r.span_id for r in spans.records() if r.proc == "main"}
    assert local_ids.isdisjoint({r.span_id for r in adopted})


def test_record_cap_drops_oldest():
    """One cap bounds the ring for every record type."""
    from repro.observability.manifest import record_event
    from repro.robustness.diagnostics import Diagnostic, emit

    def produce(kind, i):
        if kind is spans.SpanRecord:
            with span(f"s{i}"):
                pass
        elif kind is dict:
            record_event(f"s{i}")
        else:
            emit("cap", f"s{i}")

    def name(record):
        if isinstance(record, spans.SpanRecord):
            return record.name
        return record["kind"] if isinstance(record, dict) else record.message

    original = spans.MAX_RECORDS
    spans.MAX_RECORDS = 10
    try:
        for kind in (spans.SpanRecord, dict, Diagnostic):
            spans.reset()
            for i in range(25):
                produce(kind, i)
            assert len(spans.window()) == 10
            assert spans.dropped() == 15
            assert name(spans.window()[0]) == "s15"
            # A stale mark clamps instead of slicing negatively.
            assert len(spans.window(since=3)) == 10
            # The typed view reads the same bounded ring.
            assert spans.window(kind=kind) == spans.window()
        # Records of any type evict the oldest, whatever its type.
        spans.reset()
        produce(spans.SpanRecord, 0)
        for i in range(10):
            produce(dict, i)
        assert spans.records() == ()
        assert spans.dropped() == 1
    finally:
        spans.MAX_RECORDS = original


def test_mixed_records_share_one_sequence():
    """Spans, events and diagnostics interleave in arrival order; the
    span view skips the others and a mark spans all three."""
    from repro.observability.manifest import record_event
    from repro.robustness.diagnostics import Diagnostic, emit

    with span("a"):
        pass
    mark = spans.mark()
    record_event("e")
    with span("b"):
        pass
    emit("d", "m")
    assert spans.mark() == mark + 3
    assert [type(r) for r in spans.window(since=mark)] == [dict, spans.SpanRecord, Diagnostic]
    assert [r.name for r in spans.records(since=mark)] == ["b"]
    assert [r.name for r in spans.records()] == ["a", "b"]


def test_concurrent_publishers_lose_no_records():
    """Threads publishing spans, events and diagnostics into a ring at
    its cap: every record is either retained or counted as dropped."""
    import sys

    from repro.observability.manifest import record_event
    from repro.robustness.diagnostics import emit

    def publish_many(i):
        for j in range(300):
            with span(f"t{i}"):
                record_event("e", i=i, j=j)
                emit("stress", f"{i}/{j}")

    original, interval = spans.MAX_RECORDS, sys.getswitchinterval()
    spans.MAX_RECORDS = 500
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=publish_many, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        spans.MAX_RECORDS = original
    assert spans.mark() == 8 * 300 * 3
    assert len(spans.window()) == 500
    assert spans.dropped() == 8 * 300 * 3 - 500


def test_disabled_overhead_is_negligible():
    """Disabled spans must cost ~a function call, not clock reads."""
    state.set_enabled(False)
    n = 20_000
    start = time.perf_counter()
    for _ in range(n):
        with span("hot", a=1):
            pass
    elapsed = time.perf_counter() - start
    # Generous bound: < 10 microseconds per disabled span even on a
    # heavily loaded CI box (observed ~0.1-0.3 us).
    assert elapsed / n < 10e-6
    assert spans.records() == ()
