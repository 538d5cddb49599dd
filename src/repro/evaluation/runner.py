"""Method evaluation: run any registered sampling method on a context.

``evaluate_method`` is the one scorecard path — it resolves a method
through :mod:`repro.methods`, runs select + predict, and collects the
full metric set (accuracy, speedup, dispersion) into a
:class:`MethodResult`. Sieve and PKS run through it by name
(``evaluate_method("sieve", context)``); the equivalence property tests
pin it byte-identical to their original hand-written runners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import SampleSelection
from repro.evaluation.context import WorkloadContext
from repro.evaluation.dispersion import weighted_cycle_cov
from repro.evaluation.imputation import cycles_in_table_order
from repro.evaluation.metrics import prediction_error, simulation_speedup
from repro.methods import get_method
from repro.observability import metrics, span
from repro.observability.attribution import ErrorAttribution, attribute_error


@dataclass(frozen=True)
class MethodResult:
    """One sampling method's full scorecard on one workload."""

    workload: str
    method: str
    error: float
    speedup: float
    num_representatives: int
    cycle_cov: float  # weighted within-group cycle dispersion (Figure 4)
    predicted_cycles: float
    measured_cycles: int
    selection: SampleSelection
    #: Signed per-kernel / per-stratum decomposition of ``error``
    #: (see :mod:`repro.observability.attribution`).
    attribution: ErrorAttribution | None = None

    @property
    def error_percent(self) -> float:
        return self.error * 100.0


def _score_selection(
    method,
    method_name: str,
    context: WorkloadContext,
    config: object | None,
    selection: SampleSelection,
) -> MethodResult:
    """Predict + score an already-made selection (shared batch/stream)."""
    prediction = method.predict(selection, context.golden, config)
    cycles = cycles_in_table_order(method.profile_table(context), context.golden)
    cov = weighted_cycle_cov(method.group_rows(selection), cycles)
    attribution = attribute_error(method, selection, prediction, context, config)
    # Accuracy is judged against the *clean* reference (context.truth);
    # under fault injection it differs from the corrupted context.golden
    # the method consumed.
    return MethodResult(
        workload=context.label,
        method=selection.method,
        error=prediction_error(prediction.predicted_cycles, context.truth.total_cycles),
        speedup=simulation_speedup(selection, context.golden),
        num_representatives=selection.num_representatives,
        cycle_cov=cov,
        predicted_cycles=prediction.predicted_cycles,
        measured_cycles=context.truth.total_cycles,
        selection=selection,
        attribution=attribution,
    )


def evaluate_method(
    method_name: str,
    context: WorkloadContext,
    config: object | None = None,
) -> MethodResult:
    """Run one registered sampling method on a workload context.

    ``method_name`` resolves through the registry (raising a typed
    :class:`~repro.utils.errors.UnknownMethodError` when absent);
    ``config`` must be ``None`` (method defaults) or an instance of the
    method's ``config_schema``.
    """
    method = get_method(method_name)
    config = method.resolve_config(config)
    with span(f"evaluate.{method_name}", workload=context.label):
        selection = method.select(context, config)
        result = _score_selection(method, method_name, context, config, selection)
    metrics.inc("evaluate.method", method=method_name)
    return result


def evaluate_method_streaming(
    method_name: str,
    context: WorkloadContext,
    config: object | None = None,
    *,
    chunk_rows: int = 4096,
    reservoir_rows: int | None = None,
) -> MethodResult:
    """Like :func:`evaluate_method`, but the profile reaches the method
    as a chunked stream through its ``begin_stream`` surface.

    With an unbounded reservoir (the default) the result is byte-identical
    to :func:`evaluate_method` — the per-method property tests pin this —
    while the ``streaming.high_water_rows`` gauge reports the stream's
    actual resident footprint (O(rows) for buffering fallbacks, O(kernels
    + reservoir) for true streams). ``reservoir_rows`` bounds the
    per-kernel retained sample for genuinely memory-constrained runs, at
    the price of approximate Tier-3 splits.
    """
    from repro.streaming.base import StreamContext, iter_table_chunks

    method = get_method(method_name)
    config = method.resolve_config(config)
    table = method.profile_table(context)
    with span(
        f"evaluate-stream.{method_name}",
        workload=context.label,
        chunk_rows=chunk_rows,
    ):
        stream = method.begin_stream(
            StreamContext(
                workload=table.workload,
                golden=context.golden,
                batch=context,
                reservoir_rows=reservoir_rows,
            ),
            config,
        )
        for index, chunk in enumerate(iter_table_chunks(table, chunk_rows)):
            with span("streaming.flush", chunk=index, rows=len(chunk)):
                stream.observe(chunk)
        selection = stream.finalize()
        result = _score_selection(method, method_name, context, config, selection)
    metrics.inc("evaluate.method.streamed", method=method_name)
    return result


def predicted_speedup_between(
    selection: SampleSelection,
    method: str,
    baseline,  # WorkloadMeasurement on the baseline architecture
    other,  # WorkloadMeasurement on the comparison architecture
) -> float:
    """A method's predicted (other -> baseline) wall-time speedup (Fig. 9).

    Both methods predict per-architecture application cycles from the same
    representatives; wall-time speedup follows from the clocks. ``method``
    is a registry name or a selection's method string (policy-suffixed
    strings like ``"pks-first"`` resolve to their registry prefix).
    """
    resolved = get_method(_registry_name(method))
    config = resolved.default_config()
    base_cycles = resolved.predict(selection, baseline, config).predicted_cycles
    other_cycles = resolved.predict(selection, other, config).predicted_cycles
    base_seconds = base_cycles / (baseline.clock_ghz * 1e9)
    other_seconds = other_cycles / (other.clock_ghz * 1e9)
    return other_seconds / base_seconds


def _registry_name(method: str) -> str:
    """Map a selection's method string onto its registry name.

    Selections label themselves with policy-qualified strings
    (``"pks-first"``, ``"pks-two-level"``); prediction only depends on the
    registered method, so fall back to progressively shorter ``-``
    prefixes until one resolves.
    """
    from repro.methods import list_methods

    names = set(list_methods())
    parts = method.split("-")
    for end in range(len(parts), 0, -1):
        candidate = "-".join(parts[:end])
        if candidate in names:
            return candidate
    return method  # let get_method raise its typed error


def hardware_speedup_between(baseline, other) -> float:
    """Measured (other -> baseline) wall-time speedup."""
    return other.wall_time_seconds / baseline.wall_time_seconds


def sieve_tier_fractions(context: WorkloadContext, theta: float) -> np.ndarray:
    """Invocation fractions in Tier-1/2/3 at threshold ``theta`` (Fig. 2).

    Raises :class:`~repro.utils.errors.SelectionError` when the profile
    holds no invocations at all — a 0/0 here would otherwise surface as
    silent NaN fractions downstream.
    """
    from repro.core.tiers import classify_invocations
    from repro.utils.errors import SelectionError

    table = context.sieve_table
    counts = np.zeros(3)
    for kernel_id in range(table.num_kernels):
        rows = table.rows_for_kernel(kernel_id)
        if len(rows) == 0:
            continue
        tier = classify_invocations(table.insn_count[rows], theta).tier
        counts[tier.value - 1] += len(rows)
    total = counts.sum()
    if total == 0:
        raise SelectionError(
            f"profile for {context.label!r} holds no invocations; "
            "tier fractions are undefined"
        )
    return counts / total
