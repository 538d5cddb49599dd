"""The layer timers change no result, restore what they wrap, and account
for the traced wall exactly."""

import time

from perfbench import inputs, stream
from perfbench.layers import TARGETS, LayerTracer
from repro.evaluation.context import _cached_context
from repro.evaluation.engine import EvaluationTask, run_task
from repro.methods import MethodRequest
from repro.service.protocol import pickle_digest


def _tasks():
    return [
        EvaluationTask(label="cactus/gru", max_invocations=600, methods=("sieve", "pks")),
        EvaluationTask(
            label="mlperf/bert",
            max_invocations=500,
            methods=(MethodRequest("periodic"), MethodRequest("random")),
        ),
    ]


def _selections(results):
    return {key: pickle_digest(result.selection) for key, result in results.items()}


def test_traced_selections_equal_untraced_selections():
    plain = [_selections(run_task(task)) for task in _tasks()]
    _cached_context.cache_clear()
    with LayerTracer():
        traced = [_selections(run_task(task)) for task in _tasks()]
    assert traced == plain


def test_traced_stream_equals_untraced_stream():
    feed = inputs.stream_feed(3, rows=30_000)
    plain = stream.one_pass(feed)
    with LayerTracer() as tracer:
        traced = stream.one_pass(feed)
    assert traced.representatives == plain.representatives
    assert tracer.timers["streaming.observe"].calls > 1


def test_self_times_add_up_to_the_wall():
    _cached_context.cache_clear()
    with LayerTracer() as tracer:
        start = time.perf_counter()
        for task in _tasks():
            run_task(task)
        wall = time.perf_counter() - start
    times = tracer.self_times(wall)
    parts = sum(value for name, value in times.items() if name != "bench.traced_wall_s")
    assert abs(parts - wall) < 1e-9
    assert times["baselines.pks_kmeans_s"] > 0 and times["core.sieve_select_s"] > 0
    assert times["workloads.generate_s"] > 0 and times["baselines.sampler_select_s"] > 0
    assert all(value >= 0 for name, value in times.items())


def test_tracer_restores_every_entry_point():
    before = [getattr(owner, attribute) for _, owner, attribute in TARGETS]
    with LayerTracer():
        assert any(
            getattr(owner, attribute) is not original
            for (_, owner, attribute), original in zip(TARGETS, before)
        )
    after = [getattr(owner, attribute) for _, owner, attribute in TARGETS]
    assert after == before
