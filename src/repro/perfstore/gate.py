"""The regression gate: a diff of two run *sets* (baseline vs current).

:func:`gate_manifests` compares every stored run of the baseline version
against every run of the current one and emits one :class:`GateRow` per
metric. Two kinds of metric are gated differently:

* **Wall times** (the total and each stage's inclusive wall) are noisy,
  so they get :func:`repro.perfstore.stats.degradation_test`: a rank
  test plus a practical floor, or its labeled single-sample fallback
  when a side has one run. Improvements pass.
* **Seed-deterministic fields** (every workload ``*_error`` and every
  numeric aggregate) must reproduce exactly, up to float reassociation
  (``DETERMINISTIC_ATOL`` + ``DETERMINISTIC_RTOL``), whatever the run
  count. A move in *either* direction fails: an error that halves or a
  ``picks_identical`` that drops to 0 is algorithmic drift, not noise.

Stages present on only one side get explicit ``new`` / ``removed`` rows
instead of a silent skip or a near-zero division: ``removed`` (the
baseline spent real time there and the current run never entered it)
fails; ``new`` is informational — a freshly added stage has no baseline
to regress from. A single baseline and a single current manifest (what
``sieve-repro report A B`` passes) is just the n=1 case of the same gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.observability import metrics
from repro.observability.manifest import RunManifest
from repro.observability.report import render_attribution_drift
from repro.perfstore.stats import (
    DistributionSummary,
    GateVerdict,
    degradation_test,
    summarize,
)
from repro.utils.validation import require

#: Row severities: only ``fail`` rows gate a build.
SEVERITY_FAIL = "fail"
SEVERITY_INFO = "info"

#: Tolerance for seed-deterministic fields: absorbs float reassociation,
#: never algorithmic drift.
DETERMINISTIC_ATOL = 1e-9
DETERMINISTIC_RTOL = 1e-6


@dataclass(frozen=True)
class GateRow:
    """One metric's comparison across the two run sets."""

    #: "total-wall" | "stage-wall" | "stage-new" | "stage-removed"
    #: | "accuracy" | "aggregate" | "workload-new" | "workload-removed"
    kind: str
    name: str
    #: "regressed" | "improved" | "indistinguishable" | "drifted" | "new"
    #: | "removed"
    verdict: str
    severity: str
    detail: str
    baseline: DistributionSummary | None = None
    current: DistributionSummary | None = None
    p_slower: float | None = None
    p_faster: float | None = None
    #: "rank" | "single-sample" | "exact" | "presence"
    mode: str = "presence"

    @property
    def failed(self) -> bool:
        return self.severity == SEVERITY_FAIL

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "verdict": self.verdict,
            "severity": self.severity,
            "detail": self.detail,
            "baseline": self.baseline.to_dict() if self.baseline else None,
            "current": self.current.to_dict() if self.current else None,
            "p_slower": self.p_slower,
            "p_faster": self.p_faster,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class GateReport:
    """Everything the gate decided, plus enough context to render it."""

    baseline_label: str
    current_label: str
    n_baseline: int
    n_current: int
    rows: tuple[GateRow, ...] = ()
    figure: str = ""
    #: Per-workload error attributions of the first run on each side
    #: (seed-deterministic, so one run speaks for all); rendered as an
    #: attribution-drift table when both sides carry them.
    baseline_attribution: tuple[dict, ...] = field(default=(), repr=False)
    current_attribution: tuple[dict, ...] = field(default=(), repr=False)

    @property
    def failures(self) -> tuple[GateRow, ...]:
        return tuple(row for row in self.rows if row.failed)

    @property
    def regressed(self) -> bool:
        return bool(self.failures)

    @property
    def verdict(self) -> str:
        """Overall: worst row wins (regressed > improved > indistinguishable)."""
        if self.regressed:
            return "regressed"
        if any(row.verdict == "improved" for row in self.rows):
            return "improved"
        return "indistinguishable"

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_label,
            "current": self.current_label,
            "n_baseline": self.n_baseline,
            "n_current": self.n_current,
            "figure": self.figure,
            "verdict": self.verdict,
            "rows": [row.to_dict() for row in self.rows],
        }


def _verdict_row(
    kind: str, name: str, verdict: GateVerdict, *, fail_on: str = "regressed"
) -> GateRow:
    return GateRow(
        kind=kind,
        name=name,
        verdict=verdict.verdict,
        severity=SEVERITY_FAIL if verdict.verdict == fail_on else SEVERITY_INFO,
        detail=verdict.detail,
        baseline=verdict.baseline,
        current=verdict.current,
        p_slower=verdict.p_slower,
        p_faster=verdict.p_faster,
        mode=verdict.mode,
    )


def _exact_row(
    kind: str, name: str, base_vals: Sequence[float], cur_vals: Sequence[float]
) -> GateRow:
    """Every current value must reproduce the baseline's, in both directions."""
    base_summary = summarize(base_vals)
    reference = base_summary.median
    worst = max(cur_vals, key=lambda value: abs(value - reference))
    drifted = abs(worst - reference) > DETERMINISTIC_ATOL + DETERMINISTIC_RTOL * abs(
        reference
    )
    tolerance = f"atol={DETERMINISTIC_ATOL:g}, rtol={DETERMINISTIC_RTOL:g}"
    return GateRow(
        kind=kind,
        name=name,
        verdict="drifted" if drifted else "indistinguishable",
        severity=SEVERITY_FAIL if drifted else SEVERITY_INFO,
        detail=(
            f"{worst!r} vs baseline {reference!r} (exact, {tolerance})"
            if drifted
            else f"reproduces {reference!r} (exact, {tolerance})"
        ),
        baseline=base_summary,
        current=summarize(cur_vals),
        mode="exact",
    )


def _stage_walls(runs: Sequence[RunManifest]) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for manifest in runs:
        for stage in manifest.stages:
            walls.setdefault(stage.name, []).append(stage.wall_s)
    return walls


def _workload_errors(
    runs: Sequence[RunManifest],
) -> dict[str, dict[str, list[float]]]:
    """``{workload: {error_key: [value per run where present]}}``."""
    table: dict[str, dict[str, list[float]]] = {}
    for manifest in runs:
        for row in manifest.workloads:
            workload = str(row.get("workload"))
            for key, value in row.items():
                if key.endswith("_error") and isinstance(value, (int, float)):
                    table.setdefault(workload, {}).setdefault(key, []).append(
                        float(value)
                    )
    return table


def _aggregate_values(runs: Sequence[RunManifest]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for manifest in runs:
        for key, value in manifest.aggregates.items():
            if isinstance(value, (int, float)):
                values.setdefault(key, []).append(float(value))
    return values


def gate_manifests(
    baseline: Sequence[RunManifest],
    current: Sequence[RunManifest],
    *,
    alpha: float = 0.05,
    min_ratio: float = 1.10,
    min_seconds: float = 0.05,
    fallback_slowdown: float = 1.25,
    baseline_label: str = "baseline",
    current_label: str = "current",
    figure: str = "",
) -> GateReport:
    """Gate ``current`` runs against ``baseline`` runs.

    Wall metrics regress when the rank test is significant at ``alpha``
    *and* the median moved by ``min_ratio``× and ``min_seconds``
    absolute; with a single run on either side they degrade to the
    labeled ``single-sample`` heuristic (``fallback_slowdown``).
    Accuracy/aggregate metrics are compared exactly (see the module
    docstring), whatever the run count.

    The overall verdict lands on the ``perfstore.gate`` metric.
    """
    baseline = list(baseline)
    current = list(current)
    require(bool(baseline), "gate_manifests needs at least one baseline run")
    require(bool(current), "gate_manifests needs at least one current run")
    rows: list[GateRow] = []

    def wall_test(base_vals: Sequence[float], cur_vals: Sequence[float]) -> GateVerdict:
        return degradation_test(
            base_vals,
            cur_vals,
            alpha=alpha,
            min_ratio=min_ratio,
            min_abs=min_seconds,
            fallback_slowdown=fallback_slowdown,
        )

    rows.append(
        _verdict_row(
            "total-wall",
            "total",
            wall_test(
                [m.total_wall_s for m in baseline],
                [m.total_wall_s for m in current],
            ),
        )
    )

    base_stages = _stage_walls(baseline)
    cur_stages = _stage_walls(current)
    for name in sorted(set(base_stages) | set(cur_stages)):
        base_vals = base_stages.get(name)
        cur_vals = cur_stages.get(name)
        if base_vals and cur_vals:
            rows.append(_verdict_row("stage-wall", name, wall_test(base_vals, cur_vals)))
        elif base_vals:
            summary = summarize(base_vals)
            significant = summary.median > min_seconds
            rows.append(
                GateRow(
                    kind="stage-removed",
                    name=name,
                    verdict="removed",
                    severity=SEVERITY_FAIL if significant else SEVERITY_INFO,
                    detail=(
                        f"stage ran in baseline (median {summary.median:.3f}s over "
                        f"{summary.n} run(s)) but never in current"
                    ),
                    baseline=summary,
                    current=None,
                )
            )
        else:
            summary = summarize(cur_vals)
            rows.append(
                GateRow(
                    kind="stage-new",
                    name=name,
                    verdict="new",
                    severity=SEVERITY_INFO,
                    detail=(
                        f"stage is new in current (median {summary.median:.3f}s over "
                        f"{summary.n} run(s)); no baseline to compare"
                    ),
                    baseline=None,
                    current=summary,
                )
            )

    base_workloads = _workload_errors(baseline)
    cur_workloads = _workload_errors(current)
    for workload in sorted(set(base_workloads) | set(cur_workloads)):
        base_metrics = base_workloads.get(workload)
        cur_metrics = cur_workloads.get(workload)
        if base_metrics and cur_metrics:
            for key in sorted(set(base_metrics) | set(cur_metrics)):
                base_vals = base_metrics.get(key)
                cur_vals = cur_metrics.get(key)
                name = f"{workload}.{key}"
                if base_vals and cur_vals:
                    rows.append(_exact_row("accuracy", name, base_vals, cur_vals))
                elif base_vals:
                    rows.append(
                        GateRow(
                            kind="accuracy",
                            name=name,
                            verdict="removed",
                            severity=SEVERITY_FAIL,
                            detail="metric present in baseline runs but absent from current",
                            baseline=summarize(base_vals),
                        )
                    )
                else:
                    rows.append(
                        GateRow(
                            kind="accuracy",
                            name=name,
                            verdict="new",
                            severity=SEVERITY_INFO,
                            detail="metric is new in current runs",
                            current=summarize(cur_vals),
                        )
                    )
        elif base_metrics:
            rows.append(
                GateRow(
                    kind="workload-removed",
                    name=workload,
                    verdict="removed",
                    severity=SEVERITY_FAIL,
                    detail="workload present in baseline runs but absent from current",
                )
            )
        else:
            rows.append(
                GateRow(
                    kind="workload-new",
                    name=workload,
                    verdict="new",
                    severity=SEVERITY_INFO,
                    detail="workload is new in current runs",
                )
            )

    base_aggregates = _aggregate_values(baseline)
    cur_aggregates = _aggregate_values(current)
    for key in sorted(set(base_aggregates) | set(cur_aggregates)):
        base_vals = base_aggregates.get(key)
        cur_vals = cur_aggregates.get(key)
        if base_vals and cur_vals:
            rows.append(_exact_row("aggregate", key, base_vals, cur_vals))
        elif base_vals:
            rows.append(
                GateRow(
                    kind="aggregate",
                    name=key,
                    verdict="removed",
                    severity=SEVERITY_FAIL,
                    detail="aggregate present in baseline runs but absent from current",
                    baseline=summarize(base_vals),
                )
            )
        else:
            rows.append(
                GateRow(
                    kind="aggregate",
                    name=key,
                    verdict="new",
                    severity=SEVERITY_INFO,
                    detail="aggregate is new in current runs",
                    current=summarize(cur_vals),
                )
            )

    report = GateReport(
        baseline_label=baseline_label,
        current_label=current_label,
        n_baseline=len(baseline),
        n_current=len(current),
        rows=tuple(rows),
        figure=figure,
        baseline_attribution=baseline[0].attribution,
        current_attribution=current[0].attribution,
    )
    metrics.inc("perfstore.gate", verdict=report.verdict)
    return report


def _ci(summary: DistributionSummary | None) -> str:
    if summary is None:
        return "-"
    if summary.n == 1:
        return f"{summary.median:.4g}"
    return f"{summary.median:.4g} CI[{summary.ci_low:.4g}, {summary.ci_high:.4g}]"


def render_gate_report(report: GateReport, *, verbose: bool = False) -> str:
    """Human-readable gate report.

    Non-verbose output shows every decided row (regressed / improved /
    drifted / new / removed) and folds the indistinguishable bulk into
    one count; ``verbose=True`` prints everything. When both sides carry
    error attributions, an attribution-drift table follows the verdict.
    """
    lines = [
        f"perf gate: {report.current_label} (n={report.n_current}) vs "
        f"{report.baseline_label} (n={report.n_baseline})"
        + (f" [{report.figure}]" if report.figure else "")
    ]
    quiet = 0
    for row in report.rows:
        if not verbose and row.verdict == "indistinguishable":
            quiet += 1
            continue
        marker = "FAIL" if row.failed else row.verdict
        lines.append(
            f"  [{row.kind}] {row.name}: {marker} — {row.detail} "
            f"({_ci(row.baseline)} -> {_ci(row.current)})"
        )
    if quiet:
        lines.append(f"  ({quiet} metric(s) statistically indistinguishable)")
    lines.append(f"verdict: {report.verdict.upper()}")
    drift = render_attribution_drift(
        report.baseline_attribution, report.current_attribution
    )
    if drift:
        lines.extend(["", drift])
    return "\n".join(lines)
