"""``stream_1m``: a 1M-row feed through Sieve's incremental operator.

The feed is built in set-up. Each pass streams it through
``get_method("sieve").begin_stream -> observe -> finalize`` with a
bounded per-kernel reservoir; passes repeat until the run's time is
spent. The ``streaming`` layer does nearly all the work.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.methods import get_method
from repro.observability import metrics, spans
from repro.streaming.base import StreamContext, iter_table_chunks

from perfbench import checks, harness, inputs
from perfbench.layers import LayerTracer, observability_overhead


def setup(seed: int):
    return inputs.stream_feed(seed)


def one_pass(table, observe_s: list[float] | None = None):
    """Stream ``table`` once; appends each ``observe`` call's wall to ``observe_s``."""
    stream = get_method("sieve").begin_stream(
        StreamContext(workload=table.workload, reservoir_rows=inputs.STREAM_RESERVOIR_ROWS),
        SieveConfig(),
    )
    for chunk in iter_table_chunks(table, inputs.STREAM_CHUNK_ROWS):
        start = time.perf_counter()
        stream.observe(chunk)
        if observe_s is not None:
            observe_s.append(time.perf_counter() - start)
    return stream.finalize()


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    out = harness.Outcome()
    setup_s = harness.median_setup(harness.probe_argv("stream_1m", seed))
    table = setup(seed)

    observe_s: list[float] = []
    pass_walls: list[float] = []
    first = None
    mismatched = 0
    span_mark = spans.mark()
    with LayerTracer() if trace else nullcontext() as tracer:
        start = time.perf_counter()
        while first is None or time.perf_counter() - start < seconds:
            pass_start = time.perf_counter()
            selection = one_pass(table, observe_s)
            pass_walls.append(time.perf_counter() - pass_start)
            # Keep only the first selection, so memory does not grow with passes.
            if first is None:
                first = selection
            elif selection.representatives != first.representatives:
                mismatched += 1
        wall = time.perf_counter() - start
    span_records = len(spans.records(since=span_mark))
    out.metrics["peak_rss_mb"] = harness.peak_rss_mb()
    high_water = metrics.get_registry().gauges.get("streaming.high_water_rows", 0.0)

    out.attempted = len(pass_walls)
    problems = checks.check_stream(first, SievePipeline(SieveConfig()).select(table))
    for problem in problems:
        out.check(False, problem)
    out.check(mismatched == 0, f"{mismatched} passes picked differently from the first")
    out.failed = len(pass_walls) if problems else mismatched
    out.notes["stream.representatives"] = len(first.representatives)

    chunks_per_pass = len(observe_s) / len(pass_walls)
    out.metrics.update(
        setup_s=setup_s,
        rows_per_s=len(table) / harness.median(pass_walls),
        req_per_s=chunks_per_pass / harness.median(pass_walls),
        latency_p50_ms=1000 * harness.percentile(observe_s, 50),
        latency_p90_ms=1000 * harness.percentile(observe_s, 90),
        resident_rows_peak=high_water,
    )
    out.samples.update(
        rows_per_s=len(pass_walls), req_per_s=len(pass_walls),
        latency_p50_ms=len(observe_s), latency_p90_ms=len(observe_s),
    )
    if tracer is not None:
        out.metrics.update(tracer.metrics(wall))
        out.metrics["observability.span_records"] = span_records
        out.metrics["observability.overhead_ratio"] = observability_overhead(
            lambda: one_pass(table), rounds=3
        )
    return out
