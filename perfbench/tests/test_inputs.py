"""Same seed, same inputs; another seed, other inputs."""

import numpy as np

from perfbench import inputs
from perfbench.service import _task


def _feed_arrays(table):
    return (table.kernel_id, table.invocation_id, table.insn_count, table.num_ctas)


def test_fig3_default_seed_runs_the_catalog_specs():
    work = inputs.fig3_work(inputs.DEFAULT_SEED)
    assert [unit.labels[0] for unit in work] == list(inputs.table1_labels())
    assert len(work) == 16


def test_fig3_other_seeds_rename_every_spec():
    first, again, other = inputs.fig3_work(1), inputs.fig3_work(1), inputs.fig3_work(2)
    assert first == again
    assert [t.label for t in first] != [t.label for t in other]
    catalog = set(inputs.table1_labels())
    assert not catalog & {t.label for t in first}
    for task, label in zip(first, inputs.table1_labels()):
        assert task.spec.num_invocations > 0 and task.label.startswith(label + "-s1")


def test_service_schedules_are_seeded():
    assert inputs.cold_schedule(3) == inputs.cold_schedule(3)
    assert inputs.cold_schedule(3) != inputs.cold_schedule(4)
    assert inputs.warm_schedule(3, 5.0) == inputs.warm_schedule(3, 5.0)
    assert inputs.warm_schedule(3, 5.0) != inputs.warm_schedule(4, 5.0)


def test_cold_requests_are_unique_tasks_with_a_balanced_mix():
    requests = inputs.cold_schedule(0)[:128]
    keys = {_task(request).cache_key() for request in requests}
    assert len(keys) == len(requests)
    pairs = [(r["payload"]["workload"], r["payload"]["method"]) for r in requests[:64]]
    assert len(set(pairs)) == 64


def test_warm_schedule_draws_from_its_distinct_requests():
    distinct, schedule = inputs.warm_schedule(0, 10.0)
    assert len(distinct) == 2 * inputs.WARM_TASKS
    assert len({_task(request).cache_key() for request in distinct}) == inputs.WARM_TASKS
    assert len(schedule) == round(inputs.WARM_RATE_PER_S * 10.0)
    offsets = [offset for offset, _ in schedule]
    assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] <= 10.0
    assert all(0 <= index < len(distinct) for _, index in schedule)


def test_stream_feed_is_seeded():
    same = [_feed_arrays(inputs.stream_feed(5, rows=20_000)) for _ in range(2)]
    other = _feed_arrays(inputs.stream_feed(6, rows=20_000))
    assert all(np.array_equal(a, b) for a, b in zip(*same))
    assert not all(np.array_equal(a, b) for a, b in zip(same[0], other))
