"""The statistical regression gate over run *sets* (acceptance bar)."""

import pytest

from repro.perfstore.gate import gate_manifests, render_gate_report

from .conftest import make_manifest

#: +-3% run-to-run jitter shapes (the rerun shape matches the gate self-test).
BASE_JITTER = (0.97, 1.00, 1.03)
RERUN_JITTER = (0.98, 1.01, 1.02)


def jittered(factor, jitter=BASE_JITTER, **kwargs):
    """Three runs of the same shape, walls scaled by ``factor``."""
    return [
        make_manifest(
            total=2.0 * factor * j,
            stages=(("stratify", 1.2 * factor * j), ("select", 0.8 * factor * j)),
            **kwargs,
        )
        for j in jitter
    ]


def test_2x_slowdown_over_3_runs_regresses():
    report = gate_manifests(jittered(1.0), jittered(2.0, RERUN_JITTER))
    assert report.regressed
    assert report.verdict == "regressed"
    failed = {(row.kind, row.name) for row in report.failures}
    assert ("total-wall", "total") in failed
    assert ("stage-wall", "stratify") in failed
    assert ("stage-wall", "select") in failed
    total = next(r for r in report.rows if r.kind == "total-wall")
    assert total.mode == "rank"
    assert total.p_slower == pytest.approx(0.05)


def test_same_distribution_reruns_pass():
    report = gate_manifests(jittered(1.0), jittered(1.0, RERUN_JITTER))
    assert not report.regressed
    assert report.verdict == "indistinguishable"
    assert all(row.mode == "rank" for row in report.rows)


def test_removed_stage_fails_and_new_stage_informs():
    baseline = [
        make_manifest(total=2.0 * j, stages=(("old", 2.0 * j),))
        for j in BASE_JITTER
    ]
    current = [
        make_manifest(total=2.0 * j, stages=(("fresh", 2.0 * j),))
        for j in RERUN_JITTER
    ]
    report = gate_manifests(baseline, current)
    rows = {row.kind: row for row in report.rows}
    assert rows["stage-removed"].failed
    assert rows["stage-removed"].verdict == "removed"
    assert not rows["stage-new"].failed
    assert rows["stage-new"].verdict == "new"
    assert report.regressed


def test_removed_trivial_stage_is_only_informational():
    baseline = [
        make_manifest(total=2.0 * j, stages=(("main", 2.0 * j), ("blip", 0.001)))
        for j in BASE_JITTER
    ]
    current = [
        make_manifest(total=2.0 * j, stages=(("main", 2.0 * j),))
        for j in RERUN_JITTER
    ]
    report = gate_manifests(baseline, current)
    removed = next(r for r in report.rows if r.kind == "stage-removed")
    assert not removed.failed
    assert not report.regressed


def test_accuracy_uses_tighter_floor_than_wall_metrics():
    # A 5% error increase is far below the 10% wall floor, but the
    # pipeline is seed-deterministic, so accuracy is compared exactly:
    # a systematic shift of any size is algorithmic drift.
    baseline = [
        make_manifest(workloads=[{"workload": "w", "sieve_error": 0.0100 + i * 1e-5}])
        for i in range(3)
    ]
    current = [
        make_manifest(workloads=[{"workload": "w", "sieve_error": 0.0105 + i * 1e-5}])
        for i in range(3)
    ]
    report = gate_manifests(baseline, current)
    accuracy = next(r for r in report.rows if r.kind == "accuracy")
    assert accuracy.name == "w.sieve_error"
    assert accuracy.failed and accuracy.verdict == "drifted"


def test_removed_metric_and_workload_fail_new_ones_inform():
    baseline = [
        make_manifest(
            workloads=[
                {"workload": "w", "sieve_error": 0.01, "pks_error": 0.02},
                {"workload": "gone", "sieve_error": 0.01},
            ]
        )
        for _ in range(2)
    ]
    current = [
        make_manifest(
            workloads=[
                {"workload": "w", "sieve_error": 0.01, "random_error": 0.09},
                {"workload": "fresh", "sieve_error": 0.01},
            ]
        )
        for _ in range(2)
    ]
    report = gate_manifests(baseline, current)
    by_name = {(row.kind, row.name): row for row in report.rows}
    assert by_name[("accuracy", "w.pks_error")].failed  # metric vanished
    assert not by_name[("accuracy", "w.random_error")].failed  # new metric
    assert by_name[("workload-removed", "gone")].failed
    assert not by_name[("workload-new", "fresh")].failed


def test_aggregate_regression_and_removal():
    baseline = [
        make_manifest(aggregates={"sieve_avg": 0.010, "old_key": 1.0})
        for _ in range(3)
    ]
    current = [make_manifest(aggregates={"sieve_avg": 0.012}) for _ in range(3)]
    report = gate_manifests(baseline, current)
    by_name = {(row.kind, row.name): row for row in report.rows}
    assert by_name[("aggregate", "sieve_avg")].verdict == "drifted"
    assert by_name[("aggregate", "old_key")].verdict == "removed"
    assert by_name[("aggregate", "old_key")].failed


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "kind, before, after",
    [
        # Moves a lower-is-better test would read as improvements...
        ("aggregate", {"picks_identical": 1.0}, {"picks_identical": 0.0}),
        ("aggregate", {"sieve_hmean": 13.3}, {"sieve_hmean": 6.65}),
        ("aggregate", {"http_2xx": 96.0}, {"http_2xx": 90.0}),
        # ...and increases far below any wall-time floor.
        ("accuracy", {"sieve_error": 0.0090}, {"sieve_error": 0.0090 * 1.005}),
        ("accuracy", {"sieve_error": 0.0090}, {"sieve_error": 0.0090 * 0.995}),
    ],
)
def test_deterministic_fields_fail_on_drift_in_either_direction(n, kind, before, after):
    def runs(fields, jitter):
        return jittered(
            1.0,
            jitter[:n],
            workloads=[{"workload": "w", **fields}] if kind == "accuracy" else (),
            aggregates=fields if kind == "aggregate" else None,
        )

    report = gate_manifests(runs(before, BASE_JITTER), runs(after, RERUN_JITTER))
    assert [(row.kind, row.verdict, row.mode) for row in report.failures] == [
        (kind, "drifted", "exact")
    ]
    same = gate_manifests(runs(before, BASE_JITTER), runs(before, RERUN_JITTER))
    assert not same.regressed


def test_deterministic_float_noise_within_tolerance_passes():
    def runs(error):
        return jittered(
            1.0,
            workloads=[{"workload": "w", "sieve_error": error}],
            aggregates={"sieve_avg": error},
        )

    report = gate_manifests(runs(0.010), runs(0.010 * (1 + 1e-9)))
    assert not report.regressed
    assert {row.mode for row in report.rows if row.kind == "aggregate"} == {"exact"}


def test_2x_below_min_seconds_passes():
    def runs(factor, jitter):
        return [
            make_manifest(total=0.010 * factor * j, stages=(("tiny", 0.010 * factor * j),))
            for j in jitter
        ]

    report = gate_manifests(runs(1.0, BASE_JITTER), runs(2.0, RERUN_JITTER))
    assert not report.regressed  # significant, but under the 50ms floor


def test_zero_wall_baseline_does_not_divide_by_zero():
    baseline = [make_manifest(total=0.0, stages=(("instant", 0.0),)) for _ in range(3)]
    current = [make_manifest(total=0.0, stages=(("instant", 0.0),)) for _ in range(3)]
    report = gate_manifests(baseline, current)
    assert not report.regressed
    render_gate_report(report, verbose=True)


def test_single_runs_fall_back_to_labeled_heuristic():
    report = gate_manifests(jittered(1.0)[:1], jittered(2.0)[:1])
    assert report.regressed
    assert all(
        row.mode == "single-sample"
        for row in report.rows
        if row.kind in ("total-wall", "stage-wall")
    )


def test_report_round_trips_to_dict():
    report = gate_manifests(
        jittered(1.0), jittered(2.0, RERUN_JITTER), figure="fig3",
        baseline_label="abc123", current_label="def456",
    )
    payload = report.to_dict()
    assert payload["verdict"] == "regressed"
    assert payload["figure"] == "fig3"
    assert payload["n_baseline"] == payload["n_current"] == 3
    total = next(r for r in payload["rows"] if r["kind"] == "total-wall")
    assert total["baseline"]["n"] == 3
    assert total["baseline"]["ci_low"] <= total["baseline"]["ci_high"]


def test_render_folds_indistinguishable_rows():
    clean = gate_manifests(jittered(1.0), jittered(1.0, RERUN_JITTER))
    text = render_gate_report(clean)
    assert "statistically indistinguishable" in text
    assert "verdict: INDISTINGUISHABLE" in text
    assert "stage-wall" not in text  # folded away

    verbose = render_gate_report(clean, verbose=True)
    assert "stratify" in verbose and "CI[" in verbose

    bad = gate_manifests(jittered(1.0), jittered(2.0, RERUN_JITTER))
    text = render_gate_report(bad)
    assert "FAIL" in text and "verdict: REGRESSED" in text


def test_empty_run_sets_rejected():
    with pytest.raises(ValueError):
        gate_manifests([], jittered(1.0))
    with pytest.raises(ValueError):
        gate_manifests(jittered(1.0), [])
