"""Error-attribution contracts: the decomposition must sum back exactly.

The headline property (an ISSUE acceptance criterion): for every
built-in method, the signed per-kernel contributions sum to the
workload's signed prediction error within 1e-9 relative tolerance —
attribution is a partition of the error, not an approximation of it.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.methods.registry import get_method
from repro.observability.attribution import (
    ErrorAttribution,
    _covers_each_row_once,
    attribute_error,
)

METHODS = ("sieve", "pks", "pks-two-level", "periodic", "random")
POOL = ("cactus/gru", "cactus/lmc", "mlperf/bert")


def contribution_sum(attribution) -> float:
    return sum(k.contribution for k in attribution.per_kernel)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    method=st.sampled_from(METHODS),
    label=st.sampled_from(POOL),
    cap=st.sampled_from((500, 900, 1500)),
)
def test_per_kernel_contributions_sum_to_signed_error(method, label, cap):
    context = build_context(label, max_invocations=cap)
    result = evaluate_method(method, context)
    attribution = result.attribution
    assert attribution is not None
    assert math.isclose(
        contribution_sum(attribution),
        attribution.signed_error,
        rel_tol=1e-9,
        abs_tol=1e-12,
    )
    # The headline error metric is the magnitude of the signed error.
    assert math.isclose(abs(attribution.signed_error), result.error, rel_tol=1e-12)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    label=st.sampled_from(POOL),
    theta=st.sampled_from((0.1, 0.4, 1.0)),
)
def test_sieve_per_group_partitions_error_and_reports_health(label, theta):
    context = build_context(label, max_invocations=900)
    result = evaluate_method("sieve", context, SieveConfig(theta=theta))
    attribution = result.attribution
    assert attribution.groups_partition
    group_sum = sum(g.contribution for g in attribution.per_group)
    assert math.isclose(
        group_sum, attribution.signed_error, rel_tol=1e-9, abs_tol=1e-12
    )
    # One health gauge per stratum, checked against the paper's θ target.
    strata = result.selection.strata
    assert len(attribution.health) == len(strata)
    for gauge, stratum in zip(attribution.health, strata):
        assert gauge.group == stratum.label
        assert math.isclose(gauge.cov_drift, gauge.insn_cov - theta, abs_tol=1e-12)
        assert 0.0 < gauge.occupancy <= 1.0
        assert 0.0 < gauge.split_balance <= 1.0
    # Occupancies cover every invocation: strata partition the workload.
    assert math.isclose(
        sum(g.occupancy for g in attribution.health), 1.0, rel_tol=1e-9
    )


@pytest.mark.parametrize("method", ["periodic", "random"])
def test_sampling_baselines_flag_non_partitioning_groups(method, small_context):
    attribution = evaluate_method(method, small_context).attribution
    assert not attribution.groups_partition
    # Singleton groups still carry per-representative terms that sum back.
    assert math.isclose(
        contribution_sum(attribution),
        attribution.signed_error,
        rel_tol=1e-9,
        abs_tol=1e-12,
    )


def test_pks_groups_partition(small_context):
    attribution = evaluate_method("pks", small_context).attribution
    assert attribution.groups_partition
    assert len(attribution.per_group) == len(
        evaluate_method("pks", small_context).selection.representatives
    )


class _AliasedLastRow:
    """PKS whose groups name the table's last row as -1 instead of n - 1."""

    def __init__(self, num_rows):
        self._pks = get_method("pks")
        self._num_rows = num_rows

    def __getattr__(self, name):
        return getattr(self._pks, name)

    def group_rows(self, selection):
        for rows in self._pks.group_rows(selection):
            yield np.where(rows == self._num_rows - 1, -1, rows)


def test_negative_group_rows_do_not_partition(small_context):
    """A negative index aliases a real row when indexed, but it is not a
    row of the table, so the groups do not partition it."""
    pks = get_method("pks")
    config = pks.default_config()
    selection = pks.select(small_context, config)
    prediction = pks.predict(selection, small_context.golden, config)
    num_rows = len(pks.profile_table(small_context))
    aliased = _AliasedLastRow(num_rows)
    assert attribute_error(pks, selection, prediction, small_context).groups_partition
    attribution = attribute_error(aliased, selection, prediction, small_context)
    assert not attribution.groups_partition


@pytest.mark.parametrize(
    "covered, partitions",
    [
        ([0, 1, 2, 3, 4], True),
        ([4, 2, 0, 3, 1], True),
        ([0, 1, 2, 3, 7], False),
        ([0, 1, 2, 3, -1], False),
        ([0, 1, 2, 3, 3], False),
        ([0, 1, 2, 3], False),
    ],
)
def test_partition_check_needs_each_row_exactly_once(covered, partitions):
    covered = np.asarray(covered, dtype=np.int64)
    assert _covers_each_row_once(covered, 5) is partitions


def test_attribution_round_trips_through_dict(small_context):
    attribution = evaluate_method("sieve", small_context).attribution
    rebuilt = ErrorAttribution.from_dict(attribution.to_dict())
    assert rebuilt == attribution


def test_missing_contributions_degrade_to_totals_only(small_context):
    """A predictor without a decomposition still reports the signed total."""
    import dataclasses

    method = get_method("sieve")
    config = method.default_config()
    selection = method.select(small_context, config)
    prediction = method.predict(selection, small_context.golden, config)
    bare = dataclasses.replace(prediction, contributions=())
    attribution = attribute_error(method, selection, bare, small_context, config)
    assert attribution.per_kernel == ()
    assert attribution.per_group == ()
    assert not attribution.groups_partition
    assert math.isclose(
        attribution.signed_error,
        (prediction.predicted_cycles - small_context.truth.total_cycles)
        / small_context.truth.total_cycles,
        rel_tol=1e-12,
    )
    # Health gauges are selection-derived and survive without contributions.
    assert attribution.health
