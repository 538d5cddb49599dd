"""Manifest assembly, JSON round-trip, self-time accounting, and the
1-vs-1 manifest diff through the regression gate."""

import dataclasses
import time

import pytest

from repro.observability import manifest as obs_manifest
from repro.observability import metrics, spans, state
from repro.observability.manifest import (
    RunManifest,
    StageStat,
    aggregate_stages,
    collect_manifest,
)
from repro.observability.spans import span
from repro.perfstore.gate import gate_manifests
from repro.robustness import diagnostics


@pytest.fixture(autouse=True)
def _clean_telemetry():
    spans.reset()
    metrics.get_registry().reset()
    yield
    spans.reset()
    metrics.get_registry().reset()
    state.set_enabled(None)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_aggregate_stages_self_time_sums_to_total():
    with span("root"):
        with span("child"):
            _busy(0.005)
        with span("child"):
            _busy(0.005)
        _busy(0.002)
    stages = {s.name: s for s in aggregate_stages(spans.records())}
    root, child = stages["root"], stages["child"]
    assert child.count == 2
    assert root.wall_s >= child.wall_s
    # Self times partition the root's wall exactly.
    assert root.self_s + child.self_s == pytest.approx(root.wall_s, rel=1e-9)


def test_self_time_ignores_cross_process_children():
    with span("pool") as pool_span:
        _busy(0.002)
        worker = (
            spans.SpanRecord(
                name="w.task", wall_s=5.0, cpu_s=5.0,
                span_id=0, parent_id=-1, depth=0,
            ),
        )
        spans.adopt(worker, parent_id=pool_span.span_id)
    stages = {s.name: s for s in aggregate_stages(spans.records())}
    # The worker's 5s overlap the pool span; subtracting them would make
    # the pool's self time negative nonsense.
    assert stages["pool"].self_s == pytest.approx(stages["pool"].wall_s)
    assert stages["w.task"].self_s == 5.0


def test_collect_manifest_and_round_trip():
    obs_manifest.record_event("test.before_mark")
    diagnostics.emit("s", "before mark")
    mark = spans.mark()
    metrics.inc("test.counter", 3, kind="x")
    obs_manifest.record_event("test.event", detail="boom")
    diagnostics.emit("s", "m")
    with span("stage.a", workload="w"):
        _busy(0.002)
    manifest = collect_manifest(
        "test-command",
        config={"cap": 100},
        workloads=[{"workload": "w", "sieve_error": 0.01}],
        aggregates={"avg": 0.01},
        since=mark,
        created="2026-01-01T00:00:00+00:00",
    )
    assert manifest.schema == obs_manifest.MANIFEST_SCHEMA
    assert manifest.package_version
    assert manifest.source_fingerprint
    assert manifest.stage("stage.a").count == 1
    assert manifest.total_wall_s == pytest.approx(
        manifest.stage("stage.a").wall_s
    )
    assert manifest.events == ({"kind": "test.event", "detail": "boom"},)
    assert manifest.diagnostics == (
        {"severity": "warning", "source": "s", "message": "m"},
    )
    assert manifest.metrics["counters"] == {"test.counter{kind=x}": 3.0}

    restored = RunManifest.from_json(manifest.to_json())
    assert restored == manifest  # lossless round-trip


def test_save_load_file_round_trip(tmp_path):
    with span("s"):
        pass
    manifest = collect_manifest("cmd")
    path = manifest.save(tmp_path / "sub" / "m.json")
    assert RunManifest.load(path) == manifest


def test_events_recorded_even_when_disabled():
    state.set_enabled(False)
    mark = spans.mark()
    obs_manifest.record_event("pool.failure", exception="OSError('x')")
    events = spans.window(since=mark, kind=dict)
    assert events == ({"kind": "pool.failure", "exception": "OSError('x')"},)
    assert collect_manifest("cmd", since=mark).events == events


def _manifest(total, stages, workloads=(), aggregates=None):
    return RunManifest(
        command="m",
        total_wall_s=total,
        stages=tuple(
            StageStat(name=n, count=1, wall_s=w, self_s=w, cpu_s=w)
            for n, w in stages
        ),
        workloads=tuple(workloads),
        aggregates=dict(aggregates or {}),
    )


# Diffing two manifests is the 1-vs-1 case of the one regression gate
# (what ``sieve-repro report A B`` runs): walls take the labeled
# single-sample path, deterministic fields are compared exactly.


def _failed(baseline, current):
    report = gate_manifests([baseline], [current])
    return {(row.kind, row.name) for row in report.failures}


def test_diff_clean_when_identical():
    baseline = _manifest(
        1.0, [("a", 0.6), ("b", 0.4)],
        workloads=[{"workload": "w", "sieve_error": 0.01}],
        aggregates={"avg": 0.01},
    )
    report = gate_manifests([baseline], [baseline])
    assert not report.regressed
    assert report.verdict == "indistinguishable"


def test_diff_flags_two_x_slowdown():
    baseline = _manifest(1.0, [("a", 0.6), ("b", 0.4)])
    slowed = _manifest(2.0, [("a", 1.2), ("b", 0.8)])
    report = gate_manifests([baseline], [slowed])
    assert {(r.kind, r.name) for r in report.failures} == {
        ("total-wall", "total"),
        ("stage-wall", "a"),
        ("stage-wall", "b"),
    }
    assert all(r.mode == "single-sample" for r in report.failures)


def test_diff_min_seconds_floor_absorbs_noise():
    baseline = _manifest(0.010, [("tiny", 0.010)])
    slowed = _manifest(0.020, [("tiny", 0.020)])
    assert _failed(baseline, slowed) == set()  # 2x but < 50ms delta


def test_diff_flags_missing_stage_and_workload():
    baseline = _manifest(
        1.0, [("a", 0.9)], workloads=[{"workload": "w", "sieve_error": 0.01}]
    )
    current = _manifest(1.0, [])
    failed = _failed(baseline, current)
    assert ("stage-removed", "a") in failed
    assert ("workload-removed", "w") in failed


def test_diff_reports_new_stage_as_info_not_failure():
    baseline = _manifest(1.0, [("a", 0.9)])
    current = _manifest(1.0, [("a", 0.9), ("b", 0.3)])
    report = gate_manifests([baseline], [current])
    row = next(r for r in report.rows if (r.kind, r.name) == ("stage-new", "b"))
    assert row.severity == "info"
    assert not row.failed
    assert not report.regressed  # info rows never gate


def test_diff_ignores_new_stage_below_floor():
    baseline = _manifest(1.0, [("a", 0.9)])
    current = _manifest(1.0, [("a", 0.9), ("blip", 0.001)])
    assert _failed(baseline, current) == set()


def test_diff_zero_baseline_wall_is_informational():
    # A 0-second baseline wall must not produce a millions-of-x ratio
    # (or a ZeroDivisionError): the row is reported, never failed.
    baseline = _manifest(0.0, [("a", 0.0)])
    current = _manifest(3.0, [("a", 3.0)])
    report = gate_manifests([baseline], [current])
    walls = [r for r in report.rows if r.kind in ("total-wall", "stage-wall")]
    assert len(walls) == 2  # visible, not silently skipped
    assert not report.regressed
    assert all("n/a" in r.detail for r in walls)  # no ratio against nothing


def test_diff_removed_stage_still_fails():
    baseline = _manifest(1.0, [("a", 0.9)])
    current = _manifest(1.0, [("b", 0.9)])
    report = gate_manifests([baseline], [current])
    removed = [r for r in report.rows if r.kind == "stage-removed"]
    assert removed and removed[0].severity == "fail" and removed[0].failed
    assert removed[0] in report.failures


def test_diff_flags_accuracy_and_aggregate_drift():
    baseline = _manifest(
        1.0, [("a", 0.9)],
        workloads=[{"workload": "w", "sieve_error": 0.010, "sieve_cov": 0.2}],
        aggregates={"sieve_avg": 0.010},
    )
    current = dataclasses.replace(
        baseline,
        workloads=({"workload": "w", "sieve_error": 0.011, "sieve_cov": 0.9},),
        aggregates={"sieve_avg": 0.011},
    )
    # *_error keys and aggregates are gated; other row fields are not.
    assert {name for _, name in _failed(baseline, current)} == {
        "w.sieve_error",
        "sieve_avg",
    }
    # But float-reassociation noise within rtol passes.
    nearly = dataclasses.replace(
        baseline,
        workloads=({"workload": "w", "sieve_error": 0.010 * (1 + 1e-9),
                    "sieve_cov": 0.2},),
        aggregates={"sieve_avg": 0.010 * (1 + 1e-9)},
    )
    assert _failed(baseline, nearly) == set()
