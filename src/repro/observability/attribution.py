"""Prediction-error attribution: *where* a method's error comes from.

The evaluation layer reports one scalar per (method, workload): the
absolute relative cycle-count error. That is the paper's headline metric
(Section IV-3), but it explains nothing — a fig3 regression today says a
number moved, not which kernel or stratum moved it. This module
decomposes the error.

Every built-in predictor exposes its prediction as a sum of signed
per-representative cycle terms (:class:`~repro.core.prediction.
PredictionResult.contributions`):

* Sieve:      ``C_pred = Σ_i N · ŵ_i / IPC_i``  (harmonic-mean sensitivity)
* PKS:        ``C_pred = Σ_i |cluster_i| · cycles_i``
* periodic /
  random:     ``C_pred = Σ_i cycles_i · n / s``  (Horvitz-Thompson terms)

Grouping those terms by kernel — and taking each kernel's measured
cycles from the golden reference, which partitions the measured total
exactly — gives signed per-kernel contributions

    contribution_k = (pred_k - meas_k) / C_meas

that sum to the workload's signed prediction error up to float
reassociation (the property test pins 1e-9 rtol). Per-group (stratum /
cluster) contributions follow the same construction through the method's
``group_rows`` hook; they partition the error exactly only for methods
whose groups partition the invocations (Sieve strata, PKS clusters), so
:attr:`ErrorAttribution.groups_partition` records whether they do.

For Sieve the attribution also carries stratification-health gauges per
stratum (occupancy, CoV drift against θ, representative distance from
the stratum mean, KDE split balance) — the "which stratum went wrong"
half of a diagnosis.

Everything here is pure deterministic arithmetic on values the
evaluation already computed; it runs regardless of ``SIEVE_OBS`` (it is
data, not telemetry) and costs one pass over the profile table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.evaluation.imputation import cycles_in_table_order

if TYPE_CHECKING:
    from repro.core.prediction import PredictionResult
    from repro.core.types import SampleSelection
    from repro.evaluation.context import WorkloadContext
    from repro.methods.base import SamplingMethod

__all__ = [
    "ErrorAttribution",
    "GroupAttribution",
    "KernelAttribution",
    "StratumHealth",
    "attribute_error",
]


@dataclass(frozen=True)
class KernelAttribution:
    """One kernel's signed share of the workload prediction error.

    ``contribution`` is ``(predicted - measured) / measured_total``:
    positive means the method over-predicts this kernel's cycles.
    Kernel contributions partition the signed error exactly (up to
    float reassociation) because the golden reference partitions the
    measured total by kernel.
    """

    kernel_name: str
    predicted_cycles: float
    measured_cycles: float
    contribution: float
    num_representatives: int


@dataclass(frozen=True)
class GroupAttribution:
    """One stratum/cluster's signed share of the prediction error."""

    group: str
    kernel_name: str
    size: int
    weight: float
    predicted_cycles: float
    measured_cycles: float
    contribution: float


@dataclass(frozen=True)
class StratumHealth:
    """Stratification-health gauges for one Sieve stratum.

    ``cov_drift`` is ``insn_cov - θ`` (positive = the stratum violates
    the paper's dispersion target); ``rep_distance`` is the selected
    representative's relative distance from the stratum's mean
    instruction count; ``split_balance`` is this stratum's size over the
    largest sibling stratum of the same kernel (1.0 for an unsplit
    kernel, small values flag lopsided KDE splits).
    """

    group: str
    kernel_name: str
    tier: str
    size: int
    occupancy: float
    insn_cov: float
    cov_drift: float
    rep_distance: float
    split_balance: float


@dataclass(frozen=True)
class ErrorAttribution:
    """A method's prediction error, decomposed.

    ``signed_error`` is ``(C_pred - C_meas) / C_meas`` — its absolute
    value is the paper's error metric. ``per_kernel`` always sums back
    to it (within reassociation); ``per_group`` does too when
    ``groups_partition`` is true.
    """

    workload: str
    method: str
    predicted_cycles: float
    measured_cycles: float
    signed_error: float
    per_kernel: tuple[KernelAttribution, ...]
    per_group: tuple[GroupAttribution, ...]
    groups_partition: bool
    health: tuple[StratumHealth, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form (manifest embedding, ``attribute --json``)."""
        return {
            "workload": self.workload,
            "method": self.method,
            "predicted_cycles": self.predicted_cycles,
            "measured_cycles": self.measured_cycles,
            "signed_error": self.signed_error,
            "per_kernel": [asdict(k) for k in self.per_kernel],
            "per_group": [asdict(g) for g in self.per_group],
            "groups_partition": self.groups_partition,
            "health": [asdict(h) for h in self.health],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ErrorAttribution":
        return cls(
            workload=data["workload"],
            method=data["method"],
            predicted_cycles=float(data["predicted_cycles"]),
            measured_cycles=float(data["measured_cycles"]),
            signed_error=float(data["signed_error"]),
            per_kernel=tuple(
                KernelAttribution(**k) for k in data.get("per_kernel", ())
            ),
            per_group=tuple(
                GroupAttribution(**g) for g in data.get("per_group", ())
            ),
            groups_partition=bool(data.get("groups_partition", False)),
            health=tuple(StratumHealth(**h) for h in data.get("health", ())),
        )


def attribute_error(
    method: SamplingMethod,
    selection: SampleSelection,
    prediction: PredictionResult,
    context: WorkloadContext,
    config: object | None = None,
) -> ErrorAttribution:
    """Decompose ``prediction``'s error against the context's clean truth.

    ``prediction.contributions`` must align one-to-one with
    ``selection.representatives`` (every built-in predictor guarantees
    this); a predictor that provides no decomposition yields empty
    ``per_kernel``/``per_group`` tables but still reports the signed
    total.
    """
    truth = context.truth
    measured_total = float(truth.total_cycles)
    signed_error = (prediction.predicted_cycles - measured_total) / measured_total

    contributions = prediction.contributions
    if len(contributions) != len(selection.representatives):
        contributions = ()

    per_kernel = _per_kernel(selection, contributions, truth, measured_total)
    per_group, partitions = _per_group(
        method, selection, contributions, context, measured_total
    )
    return ErrorAttribution(
        workload=selection.workload,
        method=selection.method,
        predicted_cycles=float(prediction.predicted_cycles),
        measured_cycles=measured_total,
        signed_error=float(signed_error),
        per_kernel=per_kernel,
        per_group=per_group,
        groups_partition=partitions,
        health=_stratum_health(selection, context, config),
    )


# --------------------------------------------------------------------- #
# Per-kernel: exact partition of the signed error


def _per_kernel(
    selection: SampleSelection,
    contributions: tuple[float, ...],
    truth,
    measured_total: float,
) -> tuple[KernelAttribution, ...]:
    if not contributions:
        return ()
    predicted: dict[str, float] = {}
    rep_counts: dict[str, int] = {}
    for rep, term in zip(selection.representatives, contributions):
        predicted[rep.kernel_name] = predicted.get(rep.kernel_name, 0.0) + term
        rep_counts[rep.kernel_name] = rep_counts.get(rep.kernel_name, 0) + 1
    # Measurement-declaration order first (it partitions C_meas), then any
    # kernels the method predicted for that the truth never measured.
    names = list(truth.per_kernel)
    names += sorted(k for k in predicted if k not in truth.per_kernel)
    rows = []
    for name in names:
        kernel = truth.per_kernel.get(name)
        meas = float(kernel.total_cycles) if kernel is not None else 0.0
        pred = predicted.get(name, 0.0)
        rows.append(
            KernelAttribution(
                kernel_name=name,
                predicted_cycles=pred,
                measured_cycles=meas,
                contribution=(pred - meas) / measured_total,
                num_representatives=rep_counts.get(name, 0),
            )
        )
    return tuple(rows)


# --------------------------------------------------------------------- #
# Per-group (stratum / cluster)


def _per_group(
    method: SamplingMethod,
    selection: SampleSelection,
    contributions: tuple[float, ...],
    context: WorkloadContext,
    measured_total: float,
) -> tuple[tuple[GroupAttribution, ...], bool]:
    if not contributions:
        return (), False
    table = method.profile_table(context)
    row_cycles = cycles_in_table_order(table, context.truth)
    groups = [np.asarray(g) for g in method.group_rows(selection)]
    if len(groups) != len(selection.representatives):
        return (), False
    rows = []
    for rep, term, group in zip(selection.representatives, contributions, groups):
        meas = float(row_cycles[group].sum()) if len(group) else 0.0
        rows.append(
            GroupAttribution(
                group=rep.group,
                kernel_name=rep.kernel_name,
                size=int(len(group)),
                weight=float(rep.weight),
                predicted_cycles=float(term),
                measured_cycles=meas,
                contribution=(term - meas) / measured_total,
            )
        )
    covered = (
        np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
    )
    return tuple(rows), _covers_each_row_once(covered, len(table))


def _covers_each_row_once(covered: np.ndarray, num_rows: int) -> bool:
    """Whether ``covered`` lists every row index in ``[0, num_rows)`` once.

    ``num_rows`` in-range indices that mark every row seen are exactly a
    permutation of the rows; an index outside the range never is.
    """
    if len(covered) != num_rows:
        return False
    if num_rows == 0:
        return True
    if covered.min() < 0 or covered.max() >= num_rows:
        return False
    seen = np.zeros(num_rows, dtype=bool)
    seen[covered.astype(np.intp, copy=False)] = True
    return bool(seen.all())


# --------------------------------------------------------------------- #
# Sieve stratification health


def _stratum_health(
    selection: SampleSelection,
    context: WorkloadContext,
    config: object | None,
) -> tuple[StratumHealth, ...]:
    strata = getattr(selection, "strata", None)
    if not strata:
        return ()
    theta = float(getattr(config, "theta", 0.0) or 0.0)
    insn = context.sieve_table.insn_count
    largest_sibling: dict[int, int] = {}
    for stratum in strata:
        largest_sibling[stratum.kernel_id] = max(
            largest_sibling.get(stratum.kernel_id, 0), stratum.size
        )
    rep_by_group = {rep.group: rep for rep in selection.representatives}
    gauges = []
    for stratum in strata:
        mean_insn = float(insn[stratum.rows].mean()) if stratum.size else 0.0
        rep = rep_by_group.get(stratum.label)
        if rep is not None and mean_insn > 0:
            rep_distance = abs(float(insn[rep.row]) - mean_insn) / mean_insn
        else:
            rep_distance = 0.0
        gauges.append(
            StratumHealth(
                group=stratum.label,
                kernel_name=stratum.kernel_name,
                tier=stratum.tier.name,
                size=stratum.size,
                occupancy=stratum.size / max(selection.num_invocations, 1),
                insn_cov=float(stratum.insn_cov),
                cov_drift=float(stratum.insn_cov) - theta,
                rep_distance=rep_distance,
                split_balance=stratum.size
                / max(largest_sibling[stratum.kernel_id], 1),
            )
        )
    return tuple(gauges)
