"""One telemetry ring: a run's diagnostics and events do not depend on
``--jobs`` or on ``SIEVE_OBS``."""

import pytest

from repro.cli import main
from repro.evaluation.context import _cached_context
from repro.evaluation.engine import EngineConfig, EvaluationEngine, EvaluationTask
from repro.observability import metrics, spans, state
from repro.observability.manifest import RunManifest
from repro.robustness.diagnostics import capture_diagnostics
from repro.robustness.faults import parse_fault_plan

FAULTS = "nan:0.05,zero_cycles:0.05"
WORKLOADS = ("cactus/gru", "cactus/lmc", "mlperf/ssd-resnet34")


@pytest.fixture(autouse=True)
def _clean_telemetry():
    spans.reset()
    metrics.get_registry().reset()
    yield
    spans.reset()
    metrics.get_registry().reset()
    state.set_enabled(None)


def traced_compare(jobs, tmp_path, capsys):
    # Workers always build contexts from scratch; drop the main-process
    # memoization so every run records the same context events.
    _cached_context.cache_clear()
    path = tmp_path / f"jobs{jobs}.json"
    code = main(
        ["--cap", "1200", "--no-cache", "--jobs", str(jobs),
         "--inject-faults", FAULTS, "--fault-seed", "3",
         "--trace-out", str(path), "compare", *WORKLOADS]
    )
    assert code == 0
    stderr = capsys.readouterr().err.splitlines()
    return RunManifest.load(path), [line for line in stderr if not line.startswith("[trace]")]


@pytest.mark.parametrize("obs", ["on", "off"])
def test_manifest_and_stderr_telemetry_match_across_jobs(obs, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIEVE_OBS", obs)
    state.set_enabled(None)
    serial, serial_err = traced_compare(1, tmp_path, capsys)
    parallel, parallel_err = traced_compare(2, tmp_path, capsys)
    assert serial.diagnostics and serial.events
    assert parallel.diagnostics == serial.diagnostics
    assert parallel.events == serial.events
    # stderr carries the same diagnostics, in the same order.
    assert serial_err == [
        f"[{d['severity']}] {d['source']}: {d['message']}" for d in serial.diagnostics
    ]
    assert parallel_err == serial_err


def test_capture_sees_worker_diagnostics():
    """Diagnostics a forked worker emits reach the parent's ring, so a
    capture around ``run`` at jobs=2 sees the worker's imputations."""
    plan = parse_fault_plan(FAULTS, seed=3)
    tasks = [
        EvaluationTask(label=label, max_invocations=1200, fault_plan=plan)
        for label in WORKLOADS[:2]
    ]
    engine = EvaluationEngine(EngineConfig(jobs=2, use_cache=False))
    with capture_diagnostics() as caught:
        engine.run(tasks)
    sources = {record.source for record in caught}
    assert "pks.golden" in sources
    assert any("imputed" in record.message for record in caught)
