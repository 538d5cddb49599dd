"""Diagnostics channel for graceful-degradation warnings.

When a pipeline stage survives bad input by taking a documented fallback
(kernel-mean imputation, uniform weights, clamped counters) it must say
so — silently degraded predictions are worse than crashes. Stages call
:func:`emit`; every record lands in the one bounded telemetry ring
(:mod:`repro.observability.spans`), where the run manifest's window
reads it, sinks registered for :class:`Diagnostic` hear it (the CLI
installs a stderr printer), and :func:`capture_diagnostics` views it in
a scope (what tests use). Diagnostics are recorded even with
observability off, and a forked worker's diagnostics reach the parent's
ring in task input order.

It is *not* a logging framework. It exists so that "the run completed"
and "the run completed but 14 representatives were imputed" are
distinguishable programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability import spans

#: Diagnostic severities, mildest first.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Diagnostic:
    """One degraded-path event emitted by a pipeline stage."""

    severity: str  # one of SEVERITIES
    source: str  # e.g. "sieve.predict", "csv.read", "stratify"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.source}: {self.message}"


def emit(source: str, message: str, severity: str = "warning") -> Diagnostic:
    """Publish a diagnostic to the telemetry ring and its sinks."""
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")
    record = Diagnostic(severity=severity, source=source, message=message)
    spans.publish(record)
    return record


def capture_diagnostics():
    """Collect the diagnostics recorded inside the ``with`` block — the
    ring's :func:`~repro.observability.spans.capture` for
    :class:`Diagnostic`; the list fills when the block exits.

    >>> with capture_diagnostics() as caught:
    ...     _ = emit("doctest", "fallback taken")
    >>> [c.source for c in caught]
    ['doctest']
    """
    return spans.capture(Diagnostic)
