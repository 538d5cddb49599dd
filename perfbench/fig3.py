"""``paper_fig3``: the full Table I Sieve-vs-PKS comparison in one process.

One engine at ``jobs=1`` with no cache evaluates the 16 Cactus + MLPerf
workloads one after another, pass after pass, until the run's time is
spent (at least one pass). PKS clustering does most of the work, with the
Sieve pipeline, profiling and the GPU model behind it; engine isolation,
the result cache and the service are bypassed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.evaluation.context import build_context
from repro.evaluation.engine import EngineConfig, EvaluationEngine
from repro.evaluation.experiments import ExperimentSpec, run_experiment
from repro.evaluation.runner import evaluate_method
from repro.methods import MethodRequest
from repro.observability import spans

from perfbench import checks, harness, inputs
from perfbench.layers import LayerTracer, observability_overhead


def setup(seed: int) -> EvaluationEngine:
    inputs.fig3_work(seed)
    return EvaluationEngine(EngineConfig(jobs=1, use_cache=False))


def _evaluate(unit, engine: EvaluationEngine) -> dict:
    if isinstance(unit, ExperimentSpec):
        return dict(run_experiment(unit, engine)[0].results)
    return dict(engine.run([unit])[0].results)


def _overhead_ratio(unit) -> float:
    """Observability on/off for ``evaluate_method`` on one workload's context."""
    if isinstance(unit, ExperimentSpec):
        label, spec, methods = unit.labels[0], None, unit.methods
    else:
        label, spec, methods = unit.label, unit.spec, unit.methods
    context = build_context(label, spec=spec)
    requests = [MethodRequest(m) if isinstance(m, str) else m for m in methods]

    def evaluate() -> None:
        for request in requests:
            evaluate_method(request.method, context, request.config)

    return observability_overhead(evaluate)


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    out = harness.Outcome()
    setup_s = harness.median_setup(harness.probe_argv("paper_fig3", seed))
    work = inputs.fig3_work(seed)
    engine = setup(seed)

    pass_walls: list[float] = []
    first: list[dict] = []
    aggregates: list[dict[str, float]] = []
    span_mark = spans.mark()
    with LayerTracer() if trace else nullcontext() as tracer:
        start = time.perf_counter()
        while not pass_walls or time.perf_counter() - start < seconds:
            rows = []
            pass_start = time.perf_counter()
            for unit in work:
                rows.append(_evaluate(unit, engine))
                out.attempted += len(rows[-1])
            pass_walls.append(time.perf_counter() - pass_start)
            # Keep only the first pass's results, so memory does not grow with passes.
            first = first or rows
            aggregates.append(checks.fig3_aggregates(rows))
        wall = time.perf_counter() - start
    span_records = len(spans.records(since=span_mark))
    out.metrics["peak_rss_mb"] = harness.peak_rss_mb()

    rows_per_pass = sum(row["sieve"].selection.num_invocations for row in first)
    # Every table the batch path builds is resident whole.
    largest = max(row["sieve"].selection.num_invocations for row in first)

    for problem in checks.check_fig3(aggregates[0], paper_scale=seed == inputs.DEFAULT_SEED):
        out.check(False, problem)
    out.check(all(a == aggregates[0] for a in aggregates), "passes disagree")
    out.failed = out.attempted if out.problems else 0
    out.notes.update({f"fig3.{key}": value for key, value in aggregates[0].items()})

    out.metrics.update(
        setup_s=setup_s,
        rows_per_s=rows_per_pass / harness.median(pass_walls),
        req_per_s=len(work) / harness.median(pass_walls),
        # A user waits for the whole comparison: one sample per pass.
        latency_p50_ms=1000 * harness.percentile(pass_walls, 50),
        latency_p90_ms=1000 * harness.percentile(pass_walls, 90),
        resident_rows_peak=largest,
    )
    out.samples.update({name: len(pass_walls) for name in
                        ("rows_per_s", "req_per_s", "latency_p50_ms", "latency_p90_ms")})
    if tracer is not None:
        out.metrics.update(tracer.metrics(wall))
        largest_unit = max(
            zip(work, first), key=lambda pair: pair[1]["sieve"].selection.num_invocations
        )[0]
        out.metrics["observability.overhead_ratio"] = _overhead_ratio(largest_unit)
        out.metrics["observability.span_records"] = span_records
    return out
