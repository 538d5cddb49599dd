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
    original = spans.MAX_RECORDS
    spans.MAX_RECORDS = 10
    try:
        for i in range(25):
            with span(f"s{i}"):
                pass
        assert len(spans.records()) == 10
        assert spans.dropped() == 15
        assert spans.records()[0].name == "s15"
        # A stale mark clamps instead of slicing negatively.
        assert len(spans.records(since=3)) == 10
    finally:
        spans.MAX_RECORDS = original


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
