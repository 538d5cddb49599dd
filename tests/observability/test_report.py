"""Smoke tests for the manifest and gate-report renderers."""

import dataclasses

from repro.observability.manifest import RunManifest, StageStat
from repro.observability.report import (
    render_attribution,
    render_attribution_drift,
    render_manifest,
)
from repro.perfstore.gate import gate_manifests, render_gate_report


def _manifest(total, stage_wall, error=0.012):
    return RunManifest(
        command="sieve-repro compare",
        created="2026-01-01T00:00:00+00:00",
        package_version="1.0.0",
        source_fingerprint="abcdef0123456789",
        total_wall_s=total,
        total_cpu_s=total,
        stages=(
            StageStat(
                name="sieve.stratify", count=2, wall_s=stage_wall,
                self_s=stage_wall, cpu_s=stage_wall,
            ),
        ),
        workloads=({"workload": "cactus/gru", "sieve_error": error},),
        aggregates={"sieve_avg": error},
        cache={"jobs": 1, "enabled": True, "hits": 3, "misses": 1,
               "writes": 1, "invalid": 0},
        events=({"kind": "engine.pool_failure", "exception": "OSError('x')"},),
    )


def test_render_manifest_includes_key_sections():
    text = render_manifest(_manifest(1.0, 0.6))
    assert "sieve-repro compare" in text
    assert "sieve.stratify" in text
    assert "60.00%" in text  # stage share of total
    assert "cactus/gru" in text
    assert "1.20%" in text  # *_error rendered as a percentage
    assert "sieve_avg" in text
    assert "3 hits / 1 misses" in text
    assert "engine.pool_failure" in text


def _gate_text(baseline, current, verbose=False):
    report = gate_manifests([baseline], [current])
    return report, render_gate_report(report, verbose=verbose)


def test_render_gate_report_lists_regressions():
    report, text = _gate_text(_manifest(1.0, 0.6), _manifest(2.0, 1.2))
    assert "[stage-wall] sieve.stratify: FAIL" in text
    assert "2.00x" in text
    assert "verdict: REGRESSED" in text
    assert report.regressed


def test_render_gate_report_clean():
    baseline = _manifest(1.0, 0.6)
    report, text = _gate_text(baseline, baseline)
    assert "verdict: INDISTINGUISHABLE" in text
    assert "FAIL" not in text and not report.regressed


def _with_stages(manifest, stages):
    return dataclasses.replace(manifest, stages=tuple(stages))


def _stage(name, wall):
    return StageStat(name=name, count=1, wall_s=wall, self_s=wall, cpu_s=wall)


def test_render_gate_report_stage_present_in_only_one_manifest():
    baseline = _with_stages(
        _manifest(1.0, 0.6), [_stage("sieve.stratify", 0.6), _stage("old.only", 0.2)]
    )
    current = _with_stages(
        _manifest(1.0, 0.6), [_stage("sieve.stratify", 0.6), _stage("new.only", 0.3)]
    )
    report, text = _gate_text(baseline, current)
    # The vanished stage renders as removed (and gates); the new one as new.
    assert "[stage-removed] old.only: FAIL" in text
    assert "[stage-new] new.only: new" in text
    assert {(r.kind, r.name) for r in report.failures} == {
        ("stage-removed", "old.only")
    }


def test_render_gate_report_zero_wall_stage_no_zero_division():
    baseline = _with_stages(_manifest(1.0, 0.6), [_stage("instant", 0.0)])
    current = _with_stages(_manifest(1.0, 0.6), [_stage("instant", 0.0)])
    report, text = _gate_text(baseline, current, verbose=True)  # must not raise
    assert not report.regressed
    instant = next(line for line in text.splitlines() if "instant" in line)
    assert "n/a" in instant  # no ratio against a zero wall


def test_render_gate_report_zero_total_wall_no_zero_division():
    baseline = _manifest(0.0, 0.0)
    current = _manifest(0.0, 0.0)
    report, _ = _gate_text(baseline, current, verbose=True)
    assert not report.regressed
    render_manifest(baseline)  # stage share falls back without dividing by 0


# --------------------------------------------------------------------- #
# Attribution rendering


def _attribution_entry(signed=-0.02, kernel_contribution=-0.015):
    return {
        "workload": "cactus/gru",
        "method": "sieve",
        "predicted_cycles": 9.8e8,
        "measured_cycles": 1.0e9,
        "signed_error": signed,
        "per_kernel": [
            {
                "kernel_name": "gru_k000",
                "predicted_cycles": 4.0e8,
                "measured_cycles": 4.15e8,
                "contribution": kernel_contribution,
                "num_representatives": 2,
            },
            {
                "kernel_name": "gru_k001",
                "predicted_cycles": 5.8e8,
                "measured_cycles": 5.85e8,
                "contribution": signed - kernel_contribution,
                "num_representatives": 1,
            },
        ],
        "per_group": [
            {
                "group": "gru_k000/s0",
                "kernel_name": "gru_k000",
                "size": 51,
                "weight": 0.1,
                "predicted_cycles": 4.0e8,
                "measured_cycles": 4.15e8,
                "contribution": kernel_contribution,
            },
        ],
        "groups_partition": True,
        "health": [
            {
                "group": "gru_k000/s0",
                "kernel_name": "gru_k000",
                "tier": "IRREGULAR",
                "size": 51,
                "occupancy": 0.12,
                "insn_cov": 0.55,
                "cov_drift": 0.15,
                "rep_distance": 0.08,
                "split_balance": 0.9,
            },
        ],
    }


def test_render_attribution_tables():
    text = render_attribution([_attribution_entry()])
    assert "cactus/gru · sieve" in text
    assert "-2.000%" in text  # signed error, signed formatting
    assert "gru_k000" in text
    assert "strata above the CoV target:" in text
    assert "+0.150" in text  # cov drift rendered signed


def test_render_attribution_marks_non_partitioning_groups():
    entry = _attribution_entry()
    entry["groups_partition"] = False
    text = render_attribution([entry])
    assert "per-group (non-partitioning):" in text


def test_render_attribution_top_bounds_rows():
    entry = _attribution_entry()
    text = render_attribution([entry], top=1)
    # Only the largest |contribution| kernel survives the cut.
    assert "gru_k000" in text
    assert text.count("gru_k001") == 0


def test_diff_attribution_reports_drift_and_largest_mover():
    baseline = dataclasses.replace(
        _manifest(1.0, 0.6), attribution=(_attribution_entry(),)
    )
    current = dataclasses.replace(
        _manifest(1.0, 0.6),
        attribution=(_attribution_entry(signed=-0.05, kernel_contribution=-0.045),),
    )
    text = render_attribution_drift(baseline.attribution, current.attribution)
    assert "attribution drift:" in text
    assert "cactus/gru · sieve" in text
    assert "-3.000%" in text  # delta between the signed errors
    assert "gru_k000" in text  # the kernel that moved most
    # The gate report carries the same table when both sides attribute.
    _, gate_text = _gate_text(baseline, current)
    assert text in gate_text


def test_diff_attribution_empty_when_absent():
    baseline = _manifest(1.0, 0.6)
    attributed = dataclasses.replace(baseline, attribution=(_attribution_entry(),))
    assert render_attribution_drift(baseline.attribution, baseline.attribution) == ""
    # The gate report stays attribution-free unless *both* sides carry it.
    assert "attribution drift" not in _gate_text(baseline, baseline)[1]
    assert "attribution drift" not in _gate_text(baseline, attributed)[1]
