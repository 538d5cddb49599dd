"""Property tests: every vectorized hot path equals its scalar reference.

The vectorization pass rewrote the per-kernel / per-row Python loops in
stratification, KDE splitting, golden-cycle alignment, the harmonic-mean
predictor and PKS cluster bookkeeping as grouped numpy array ops; the
k-means snapshot assignment and PKS's choice of k became a blocked
shared-distance pass and count-only scoring. The originals survive in
:mod:`repro.core.reference`; these tests pin the two implementations
equal across workload shapes, thetas, caps and selection policies, so
any future "optimization" that changes results fails here rather than
drifting a golden.

Integer reductions must match exactly (rows, totals, picks); float
reductions may reassociate, so CoV and predictions compare with a
tolerance far tighter than the goldens' 1e-6 contract.
"""

import dataclasses
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import kmeans
from repro.baselines.kmeans import BisectingKMeans
from repro.baselines.pca import PCA
from repro.baselines.pks import PksConfig, PksPipeline, _sanitized_metrics
from repro.core.config import SieveConfig
from repro.core.kde import _split_by_boundaries
from repro.core.pipeline import SievePipeline
from repro.core.reference import (
    bisecting_assign_scalar,
    cycles_in_table_order_scalar,
    pks_choose_k_scalar,
    pks_representative_rows_scalar,
    sieve_predict_scalar,
    split_by_boundaries_scalar,
    stratify_table_scalar,
)
from repro.core.stratify import stratify_table
from repro.evaluation.context import build_context
from repro.evaluation.imputation import cycles_in_table_order
from repro.gpu import AMPERE_RTX3080, HardwareExecutor
from repro.profiling.nvbit import NVBitProfiler
from repro.workloads.generator import generate
from tests.conftest import make_spec

thetas = st.sampled_from((0.2, 0.4, 0.8))
caps = st.sampled_from((None, 150, 400))


def _fixture(kernels, invocations, tier1, tier3, seed, cap=None):
    """A generated table + golden measurement for one example."""
    remaining = 1.0 - tier1
    t3 = tier3 * remaining
    spec = make_spec(
        name=f"vecprop{seed}",
        num_kernels=kernels,
        num_invocations=max(invocations, kernels),
        tier_fractions=(tier1, remaining - t3, t3),
        alias_groups=min(3, kernels),
    )
    run = generate(spec, max_invocations=cap)
    golden = HardwareExecutor(AMPERE_RTX3080).measure(run)
    table, _ = NVBitProfiler(AMPERE_RTX3080).profile(run)
    return table, golden


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    theta=thetas,
    cap=caps,
    seed=st.integers(min_value=0, max_value=4),
)
def test_stratify_matches_scalar(
    kernels, invocations, tier1, tier3, theta, cap, seed
):
    table, _ = _fixture(kernels, invocations, tier1, tier3, seed, cap)
    config = SieveConfig(theta=theta)
    vec = stratify_table(table, config)
    ref = stratify_table_scalar(table, config)
    assert len(vec) == len(ref)
    for a, b in zip(vec, ref):
        assert (a.kernel_id, a.kernel_name, a.tier, a.index) == (
            b.kernel_id, b.kernel_name, b.tier, b.index
        )
        assert np.array_equal(np.asarray(a.rows), np.asarray(b.rows))
        assert a.insn_total == b.insn_total
        assert np.isclose(a.insn_cov, b.insn_cov, rtol=1e-9, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    num_boundaries=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_split_by_boundaries_matches_scalar(n, num_boundaries, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    boundaries = np.sort(rng.normal(size=num_boundaries))
    vec = _split_by_boundaries(values, boundaries)
    ref = split_by_boundaries_scalar(values, boundaries)
    assert len(vec) == len(ref)
    for a, b in zip(vec, ref):
        assert np.array_equal(a, b)


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    dirty=st.booleans(),
    seed=st.integers(min_value=0, max_value=4),
)
def test_cycles_alignment_matches_scalar(
    kernels, invocations, tier1, tier3, dirty, seed
):
    import dataclasses

    table, golden = _fixture(kernels, invocations, tier1, tier3, seed)
    if dirty:
        # Knock some invocation ids out of range (both signs) so the
        # kernel-mean / workload-mean imputation ladder is exercised too.
        rng = np.random.default_rng(seed)
        ids = table.invocation_id.copy()
        hit = rng.random(len(ids)) < 0.15
        ids[hit] = rng.choice((-1, -7, 10**6), size=int(hit.sum()))
        table = dataclasses.replace(table, invocation_id=ids)
    vec = cycles_in_table_order(table, golden)
    ref = cycles_in_table_order_scalar(table, golden)
    assert np.array_equal(vec, ref)


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    theta=thetas,
    seed=st.integers(min_value=0, max_value=4),
    unmeasured=st.integers(min_value=0, max_value=9),
)
def test_predict_matches_scalar(
    kernels, invocations, tier1, tier3, theta, seed, unmeasured
):
    table, golden = _fixture(kernels, invocations, tier1, tier3, seed)
    # Representatives of kernels missing from the measurement take the
    # workload-mean fallback; at least one kernel stays measured.
    names = sorted(golden.per_kernel)
    dropped = set(names[: min(unmeasured, len(names) - 1)])
    golden = dataclasses.replace(
        golden,
        per_kernel={k: v for k, v in golden.per_kernel.items() if k not in dropped},
    )
    pipe = SievePipeline(SieveConfig(theta=theta))
    selection = pipe.select(table)
    vec = pipe.predict(selection, golden)
    ref = sieve_predict_scalar(selection, golden)
    assert np.isclose(vec.predicted_cycles, ref.predicted_cycles, rtol=1e-12)
    assert np.isclose(vec.predicted_ipc, ref.predicted_ipc, rtol=1e-12)
    assert np.allclose(vec.contributions, ref.contributions, rtol=1e-12)
    assert vec.num_representatives == ref.num_representatives


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    k=st.integers(min_value=1, max_value=8),
    dims=st.integers(min_value=2, max_value=4),
    policy=st.sampled_from(("first", "random", "centroid")),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pks_representative_rows_match_scalar(n, k, dims, policy, seed):
    rng = np.random.default_rng(seed)
    projected = rng.normal(size=(n, dims))
    labels = rng.integers(0, k, size=n)
    centroids = rng.normal(size=(k, dims))
    # Only ``workload`` feeds the bookkeeping (the random policy's seed);
    # the real table never does.
    table = types.SimpleNamespace(workload=f"prop/pks{seed}")
    pipe = PksPipeline(PksConfig(selection_policy=policy))
    rows, members = pipe._representative_rows(table, projected, labels, centroids)
    rows_ref, members_ref = pks_representative_rows_scalar(
        table, projected, labels, centroids, policy
    )
    assert rows == rows_ref
    assert len(members) == len(members_ref)
    for a, b in zip(members, members_ref):
        assert np.array_equal(a, b)


def _assert_fit_all_matches_scalar(points, max_k, fit_sample_size=20_000):
    results = BisectingKMeans(
        max_k, seed_label="prop/bisect", fit_sample_size=fit_sample_size
    ).fit_all(points)
    snapshots = {k: result.centroids for k, result in results.items()}
    reference = bisecting_assign_scalar(points, snapshots)
    assert list(results) == list(reference)
    for k, result in results.items():
        assert result.labels.dtype == reference[k].labels.dtype
        assert np.array_equal(result.labels, reference[k].labels)
        assert result.inertia == reference[k].inertia


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=80),
    dims=st.integers(min_value=1, max_value=4),
    max_k=st.integers(min_value=1, max_value=8),
    block=st.integers(min_value=2, max_value=24),
    grid=st.booleans(),
    fit_sample=st.sampled_from((None, 12)),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_fit_all_assignment_matches_scalar(
    n, dims, max_k, block, grid, fit_sample, seed
):
    """Small patched blocks put n below, at, just past and at many
    multiples of the block (including a one-row tail, which a gemv
    product would round differently); integer grids give duplicate points
    and exact distance ties."""
    rng = np.random.default_rng(seed)
    if grid:
        points = rng.integers(0, 3, size=(n, dims)).astype(np.float64)
    else:
        points = rng.normal(size=(n, dims)) * rng.uniform(0.1, 10.0, size=dims)
    with mock.patch.object(kmeans, "_ASSIGN_BLOCK_ROWS", block):
        _assert_fit_all_matches_scalar(points, max_k, fit_sample)


def test_fit_all_one_row_tail_matches_scalar():
    """n = 2 * block + 1 leaves a one-row tail. A one-row product rounds
    differently (gemv, not gemm), which reaches the labels or inertia for
    only some inputs, so sweep seeds."""
    with mock.patch.object(kmeans, "_ASSIGN_BLOCK_ROWS", 4):
        for seed in range(40):
            points = np.random.default_rng(seed).normal(size=(9, 3)) * 3
            _assert_fit_all_matches_scalar(points, 4)


@pytest.mark.parametrize(
    "n, dims, max_k",
    [
        (kmeans._ASSIGN_BLOCK_ROWS - 1, 5, 20),
        (kmeans._ASSIGN_BLOCK_ROWS + 1, 5, 20),
        (2 * kmeans._ASSIGN_BLOCK_ROWS + 1, 5, 20),
        (3 * kmeans._ASSIGN_BLOCK_ROWS + 17, 8, 20),
        (kmeans._ASSIGN_BLOCK_ROWS + 1, 1, 6),
        (kmeans._ASSIGN_BLOCK_ROWS + 1, 3, 1),
    ],
)
def test_fit_all_assignment_matches_scalar_at_block_size(n, dims, max_k):
    rng = np.random.default_rng(n + dims)
    points = rng.normal(size=(n, dims)) * rng.uniform(0.1, 10.0, size=dims)
    points[n // 2 :: 7] = points[0]  # duplicates straddling block edges
    _assert_fit_all_matches_scalar(points, max_k)


@pytest.mark.parametrize("policy", ("first", "random", "centroid"))
@pytest.mark.parametrize(
    "label, cap", [("cactus/gru", 1500), ("cactus/lmc", 3000), ("mlperf/bert", 2000)]
)
def test_pks_choose_k_matches_scalar(label, cap, policy):
    """Count-only scoring gives every candidate k the member-array error,
    and the winner's rows and members equal the scalar search's."""
    context = build_context(label, max_invocations=cap)
    table, golden = context.pks_table, context.golden
    pipe = PksPipeline(PksConfig(selection_policy=policy))
    config = pipe.config
    metrics = _sanitized_metrics(table)
    projected = PCA(config.variance_target).fit(metrics).transform(metrics)
    clusterings = BisectingKMeans(
        min(config.max_k, len(table)),
        seed_label=f"pks/{table.workload}",
        max_iterations=config.kmeans_iterations,
        fit_sample_size=config.kmeans_fit_sample,
    ).fit_all(projected)
    cycles_by_row = cycles_in_table_order(table, golden)
    measured_total = float(cycles_by_row.sum())

    errors, k_ref, rows_ref, members_ref = pks_choose_k_scalar(
        table, projected, clusterings, cycles_by_row, policy
    )
    for k, error_ref in errors.items():
        rows, counts = pipe._cluster_picks(table, projected, clusterings[k])
        predicted = pipe._predicted_cycles(rows, counts, cycles_by_row)
        assert abs(predicted - measured_total) / measured_total == error_ref

    error, k, rows, members = pipe._choose_k(
        table, projected, clusterings, cycles_by_row, measured_total
    )
    selection = pipe.select(table, golden)
    assert (error, k) == (errors[k_ref], k_ref)
    assert selection.chosen_k == k_ref
    assert rows == rows_ref
    assert [r.row for r in selection.representatives] == rows_ref
    assert len(members) == len(selection.cluster_rows) == len(members_ref)
    for a, b, c in zip(members, selection.cluster_rows, members_ref):
        assert np.array_equal(a, c) and np.array_equal(b, c)
