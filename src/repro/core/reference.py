"""Retained scalar reference implementations of the vectorized hot paths.

The profile-side math (stratify/CoV, KDE splits, golden-cycle alignment,
the harmonic-mean predictor, PKS cluster bookkeeping, k-means snapshot
assignment and PKS's choice of k) runs as grouped or blocked numpy array
ops. These are the original per-kernel / per-row / per-snapshot loops,
kept verbatim (minus telemetry emission) for two reasons:

* the hypothesis property tests in
  ``tests/core/test_vectorized_reference.py`` pin every vectorized path
  equal to its scalar reference across methods x workloads x caps;
* ``scripts/scale_smoke.py`` times them against the vectorized paths on
  a cap=100k synthetic profile, turning the speedup into a pinned,
  regression-gated number (``BENCH_scale.json``).

Nothing in the production pipeline calls this module.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import KMeansResult, _squared_distances
from repro.core.config import SieveConfig
from repro.core.kde import kde_strata
from repro.core.prediction import PredictionResult, predict_cycles, predict_ipc
from repro.core.stratify import Stratum
from repro.core.tiers import classify_invocations
from repro.core.types import SampleSelection
from repro.evaluation.imputation import (
    kernel_mean_cycles,
    kernel_mean_ipc,
    measured_ipc_or_none,
)
from repro.gpu.hardware import WorkloadMeasurement
from repro.profiling.table import ProfileTable
from repro.utils.seeding import rng_for
from repro.utils.stats import coefficient_of_variation
from repro.workloads.spec import Tier


def stratify_table_scalar(
    table: ProfileTable, config: SieveConfig
) -> list[Stratum]:
    """Pre-vectorization ``stratify_table``: one pass per kernel.

    ``rows_for_kernel`` scans the whole kernel-id column once per kernel,
    which is the O(rows x kernels) behaviour the grouped implementation
    replaced.
    """
    strata: list[Stratum] = []
    for kernel_id in range(table.num_kernels):
        rows = table.rows_for_kernel(kernel_id)
        if len(rows) == 0:
            continue
        insn = table.insn_count[rows]
        bad = insn <= 0
        if bad.any():
            insn = np.where(bad, 1, insn)
        classification = classify_invocations(insn, config.theta)
        if classification.tier in (Tier.TIER1, Tier.TIER2):
            groups = [np.arange(len(rows))]
        else:
            groups = kde_strata(
                insn,
                config.theta,
                grid_points=config.kde_grid_points,
                bandwidth_scale=config.kde_bandwidth_scale,
            )
        for index, group in enumerate(groups):
            order = np.sort(group)
            member_rows = rows[order]
            member_insn = insn[order]
            strata.append(
                Stratum(
                    kernel_id=kernel_id,
                    kernel_name=table.kernel_names[kernel_id],
                    tier=classification.tier,
                    index=index,
                    rows=member_rows,
                    insn_total=int(member_insn.sum()),
                    insn_cov=coefficient_of_variation(member_insn),
                )
            )
    return strata


def split_by_boundaries_scalar(
    values: np.ndarray, boundaries: np.ndarray
) -> list[np.ndarray]:
    """Pre-vectorization KDE split: one ``flatnonzero`` scan per bin."""
    if len(boundaries) == 0:
        return [np.arange(len(values))]
    bins = np.digitize(values, boundaries)
    return [np.flatnonzero(bins == b) for b in np.unique(bins)]


def cycles_in_table_order_scalar(
    table: ProfileTable, measurement: WorkloadMeasurement
) -> np.ndarray:
    """Pre-vectorization golden-cycle alignment: per-kernel row scans."""
    cycles = np.full(len(table), np.nan, dtype=np.float64)
    for kernel_id, kernel_name in enumerate(table.kernel_names):
        rows = table.rows_for_kernel(kernel_id)
        if len(rows) == 0:
            continue
        per_kernel = measurement.per_kernel.get(kernel_name)
        if per_kernel is None:
            continue
        ids = table.invocation_id[rows]
        valid = (ids >= 0) & (ids < len(per_kernel.cycles))
        values = np.full(len(rows), np.nan)
        values[valid] = per_kernel.cycles[ids[valid]].astype(np.float64)
        values[values <= 0] = np.nan
        cycles[rows] = values

    bad = ~np.isfinite(cycles)
    if bad.any():
        for kernel_id, kernel_name in enumerate(table.kernel_names):
            rows = table.rows_for_kernel(kernel_id)
            kernel_bad = rows[bad[rows]] if len(rows) else rows
            if len(kernel_bad) == 0:
                continue
            fallback = kernel_mean_cycles(kernel_name, measurement)
            if fallback is not None:
                cycles[kernel_bad] = fallback
        still_bad = ~np.isfinite(cycles)
        if still_bad.any():
            finite = cycles[~still_bad]
            cycles[still_bad] = float(finite.mean()) if len(finite) else 0.0
    return cycles


def sieve_predict_scalar(
    selection: SampleSelection, measurement: WorkloadMeasurement
) -> PredictionResult:
    """Pre-vectorization harmonic-mean predictor: one lookup per rep."""
    reps = selection.representatives
    ipc = np.empty(len(reps), dtype=np.float64)
    missing: list[int] = []
    for i, rep in enumerate(reps):
        value = measured_ipc_or_none(rep, measurement)
        if value is None:
            value = kernel_mean_ipc(rep.kernel_name, measurement)
            if value is None:
                missing.append(i)
                continue
        ipc[i] = value

    if missing:
        usable = [i for i in range(len(reps)) if i not in set(missing)]
        if not usable:
            raise ValueError("no representative has a usable measurement")
        fallback = float(ipc[usable].mean())
        for i in missing:
            ipc[i] = fallback

    weights = np.array([r.weight for r in reps], dtype=np.float64)
    if not np.isfinite(weights).all() or weights.sum() <= 0:
        weights = np.full(len(reps), 1.0 / len(reps))
    predicted_ipc = predict_ipc(ipc, weights)
    normalized = weights / weights.sum()
    contributions = selection.total_instructions * normalized / ipc
    return PredictionResult(
        workload=selection.workload,
        method=selection.method,
        predicted_cycles=predict_cycles(
            selection.total_instructions, predicted_ipc
        ),
        predicted_ipc=predicted_ipc,
        num_representatives=len(reps),
        contributions=tuple(float(c) for c in contributions),
    )


def pks_representative_rows_scalar(
    table: ProfileTable,
    projected: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    policy: str,
) -> tuple[list[int], list[np.ndarray]]:
    """Pre-vectorization PKS cluster bookkeeping: one scan per cluster."""
    rows: list[int] = []
    members: list[np.ndarray] = []
    for cluster in range(len(centroids)):
        cluster_rows = np.flatnonzero(labels == cluster)
        if len(cluster_rows) == 0:
            continue
        if policy == "first":
            row = int(cluster_rows[0])
        elif policy == "random":
            rng = rng_for("pks-select", table.workload, cluster, len(centroids))
            row = int(cluster_rows[rng.integers(len(cluster_rows))])
        else:  # centroid
            deltas = projected[cluster_rows] - centroids[cluster]
            row = int(
                cluster_rows[np.argmin(np.einsum("ij,ij->i", deltas, deltas))]
            )
        rows.append(row)
        members.append(cluster_rows)
    return rows, members


def pks_choose_k_scalar(
    table: ProfileTable,
    projected: np.ndarray,
    clusterings: dict[int, KMeansResult],
    cycles_by_row: np.ndarray,
    policy: str,
) -> tuple[dict[int, float], int, list[int], list[np.ndarray]]:
    """Member-array PKS k search: every candidate k builds its clusters.

    Returns each candidate k's golden-reference error, then the chosen k
    with its representative rows and cluster members.
    """
    measured_total = float(cycles_by_row.sum())
    errors: dict[int, float] = {}
    best: tuple[float, int, list[int], list[np.ndarray]] | None = None
    for k in [k for k in sorted(clusterings) if k >= 2] or [1]:
        clustering = clusterings[k]
        rows, members = pks_representative_rows_scalar(
            table, projected, clustering.labels, clustering.centroids, policy
        )
        predicted = float(
            sum(
                len(cluster_rows) * cycles_by_row[row]
                for row, cluster_rows in zip(rows, members)
            )
        )
        error = abs(predicted - measured_total) / measured_total
        errors[k] = error
        if best is None or error < best[0]:
            best = (error, k, rows, members)
    assert best is not None
    return errors, best[1], best[2], best[3]


def bisecting_assign_scalar(
    points: np.ndarray, snapshots: dict[int, np.ndarray]
) -> dict[int, KMeansResult]:
    """Per-snapshot full-population assignment: one n x k matrix per k."""
    results: dict[int, KMeansResult] = {}
    for k, centroids in snapshots.items():
        distances = _squared_distances(points, centroids)
        labels = distances.argmin(axis=1)
        inertia = float(distances[np.arange(len(points)), labels].sum())
        results[k] = KMeansResult(
            centroids=centroids, labels=labels, inertia=inertia
        )
    return results
