"""Tests for the diagnostics channel."""

import pytest

from repro.observability import spans
from repro.robustness import diagnostics


def test_emit_records_and_str():
    with diagnostics.capture_diagnostics() as caught:
        record = diagnostics.emit("unit", "fallback taken", severity="info")
    assert caught == [record]
    assert record.severity == "info"
    assert "unit" in str(record) and "fallback taken" in str(record)


def test_emit_rejects_unknown_severity():
    with pytest.raises(ValueError, match="severity"):
        diagnostics.emit("unit", "boom", severity="catastrophic")


def test_capture_is_scoped():
    with diagnostics.capture_diagnostics() as outer:
        diagnostics.emit("unit", "one")
        with diagnostics.capture_diagnostics() as inner:
            diagnostics.emit("unit", "two")
        diagnostics.emit("unit", "three")
    assert [c.message for c in inner] == ["two"]
    assert [c.message for c in outer] == ["one", "two", "three"]


def test_records_are_retained_and_clearable():
    """Diagnostics are retained in the telemetry ring and cleared with it."""
    spans.reset()
    diagnostics.emit("unit", "kept")
    assert any(r.message == "kept" for r in spans.window(kind=diagnostics.Diagnostic))
    spans.reset()
    assert spans.window(kind=diagnostics.Diagnostic) == ()


def test_sink_add_and_remove():
    """A ring sink registered for Diagnostic hears emits until removed,
    and never sees other record types."""
    seen = []
    spans.add_sink(seen.append, diagnostics.Diagnostic)
    try:
        diagnostics.emit("unit", "heard")
        with spans.span("not.a.diagnostic"):
            pass
    finally:
        spans.remove_sink(seen.append)
    diagnostics.emit("unit", "unheard")
    assert [r.message for r in seen] == ["heard"]
