"""Graceful-degradation tests: dirty input degrades, never crashes."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.pks import PksPipeline
from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.core.stratify import stratify_table
from repro.evaluation.context import build_context
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from repro.robustness import diagnostics
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.utils.errors import PredictionError


def zeroed_measurement(measurement, kernel_name, invocation):
    """A copy of ``measurement`` with one invocation's cycles zeroed."""
    kernel = measurement.per_kernel[kernel_name]
    cycles = kernel.cycles.copy()
    cycles[invocation] = 0
    per_kernel = dict(measurement.per_kernel)
    per_kernel[kernel_name] = dataclasses.replace(kernel, cycles=cycles)
    return dataclasses.replace(measurement, per_kernel=per_kernel)


def all_zero_measurement(measurement):
    per_kernel = {
        name: dataclasses.replace(k, cycles=np.zeros_like(k.cycles))
        for name, k in measurement.per_kernel.items()
    }
    return dataclasses.replace(measurement, per_kernel=per_kernel)


def test_sieve_predict_imputes_zero_cycle_representative(
    toy_run, toy_measurement
):
    table, _ = NVBitProfiler().profile(toy_run)
    pipeline = SievePipeline()
    selection = pipeline.select(table)
    rep = selection.representatives[0]
    dirty = zeroed_measurement(
        toy_measurement, rep.kernel_name, rep.invocation_id
    )
    with diagnostics.capture_diagnostics() as caught:
        prediction = pipeline.predict(selection, dirty)
    assert np.isfinite(prediction.predicted_cycles)
    assert prediction.predicted_cycles > 0
    assert any("imputed kernel-mean IPC" in c.message for c in caught)
    # The imputation keeps the prediction close to the clean one.
    clean = pipeline.predict(selection, toy_measurement)
    assert prediction.predicted_cycles == pytest.approx(
        clean.predicted_cycles, rel=0.25
    )


def test_sieve_predict_all_unusable_raises_prediction_error(
    toy_run, toy_measurement
):
    table, _ = NVBitProfiler().profile(toy_run)
    pipeline = SievePipeline()
    selection = pipeline.select(table)
    with pytest.raises(PredictionError, match="no representative"):
        pipeline.predict(selection, all_zero_measurement(toy_measurement))


def test_pks_predict_imputes_zero_cycle_representative(
    toy_run, toy_measurement
):
    table, _ = NsightComputeProfiler().profile(toy_run)
    pipeline = PksPipeline()
    selection = pipeline.select(table, toy_measurement)
    rep = selection.representatives[0]
    dirty = zeroed_measurement(
        toy_measurement, rep.kernel_name, rep.invocation_id
    )
    with diagnostics.capture_diagnostics() as caught:
        prediction = pipeline.predict(selection, dirty)
    assert np.isfinite(prediction.predicted_cycles)
    assert prediction.predicted_cycles > 0
    assert any("imputed kernel-mean cycles" in c.message for c in caught)


def test_pks_predict_all_unusable_raises_prediction_error(
    toy_run, toy_measurement
):
    table, _ = NsightComputeProfiler().profile(toy_run)
    pipeline = PksPipeline()
    selection = pipeline.select(table, toy_measurement)
    with pytest.raises(PredictionError, match="no representative"):
        pipeline.predict(selection, all_zero_measurement(toy_measurement))


def test_pks_select_survives_nan_metrics(toy_run, toy_measurement):
    table, _ = NsightComputeProfiler().profile(toy_run)
    metrics = table.metrics.copy()
    rng = np.random.default_rng(0)
    rows = rng.integers(len(table), size=50)
    cols = rng.integers(metrics.shape[1], size=50)
    metrics[rows, cols] = np.nan
    dirty = dataclasses.replace(table, metrics=metrics)
    with diagnostics.capture_diagnostics() as caught:
        selection = PksPipeline().select(dirty, toy_measurement)
    assert selection.num_representatives >= 1
    assert any("non-finite metric cells" in c.message for c in caught)


def test_stratify_clamps_nonpositive_insn(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    insn = table.insn_count.copy()
    insn[:5] = -1
    dirty = dataclasses.replace(table, insn_count=insn)
    with diagnostics.capture_diagnostics() as caught:
        strata = stratify_table(dirty, SieveConfig())
    assert len(strata) >= 1
    assert all(s.insn_total > 0 for s in strata)
    assert any("clamped" in c.message for c in caught)


@pytest.mark.parametrize("rate", [0.1, 0.2])
def test_full_pipelines_survive_composite_faults(rate):
    """Acceptance: at fault rates up to 0.2 neither pipeline crashes and
    every degraded path returns a finite prediction plus diagnostics."""
    plan = FaultPlan(
        specs=tuple(
            FaultSpec(mode, rate)
            for mode in ("drop", "duplicate", "nan", "negative",
                         "zero_cycles", "cycle_noise", "clock_drift")
        ),
        seed=5,
    )
    from repro.evaluation.runner import evaluate_method

    context = build_context("cactus/gru", max_invocations=1500, fault_plan=plan)
    with diagnostics.capture_diagnostics() as caught:
        sieve = evaluate_method("sieve", context)
        pks = evaluate_method("pks", context)
    for result in (sieve, pks):
        assert np.isfinite(result.predicted_cycles)
        assert result.predicted_cycles > 0
        assert np.isfinite(result.error)
    assert len(caught) > 0


def test_fault_free_plan_reproduces_clean_results():
    """Acceptance: a rate-0 plan reproduces the clean errors exactly."""
    from repro.evaluation.runner import evaluate_method

    clean = build_context("cactus/gru", max_invocations=1500)
    plan = FaultPlan(specs=(FaultSpec("drop", 0.0), FaultSpec("nan", 0.0)))
    faulted = build_context("cactus/gru", max_invocations=1500, fault_plan=plan)
    assert evaluate_method("sieve", faulted).error == evaluate_method("sieve", clean).error
    assert evaluate_method("pks", faulted).error == evaluate_method("pks", clean).error
