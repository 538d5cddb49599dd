"""Ablation: PKA-style two-level profiling for PKS.

The paper (Section II-B) notes PKS mitigates its profiling cost by
collecting the 12 characteristics only for a first batch and just kernel
names/grid dimensions afterwards. This bench quantifies the trade-off:
profiling-cost reduction versus accuracy impact, against full-detail PKS
and against Sieve.
"""

from repro.baselines.pks_two_level import TwoLevelPksPipeline
from repro.evaluation.context import build_context
from repro.evaluation.metrics import prediction_error
from repro.evaluation.reporting import format_table, percent, times
from repro.evaluation.runner import evaluate_method
from repro.profiling.two_level import TwoLevelProfiler

from _common import banner, emit

WORKLOADS = ("cactus/lmc", "cactus/spt", "mlperf/ssd-mobilenet")
DETAILED_BUDGET = 10_000


def _sweep():
    rows = []
    for label in WORKLOADS:
        context = build_context(label)
        full_pks = evaluate_method("pks", context)
        sieve = evaluate_method("sieve", context)

        profile = TwoLevelProfiler(DETAILED_BUDGET).profile(context.run)
        pipeline = TwoLevelPksPipeline()
        selection = pipeline.select(profile, context.golden)
        error = prediction_error(
            pipeline.predict(selection, context.golden).predicted_cycles,
            context.golden.total_cycles,
        )
        rows.append(
            {
                "workload": label,
                "full_pks": full_pks.error,
                "two_level": error,
                "sieve": sieve.error,
                "full_cost_days": context.pks_profiling.total_days,
                "two_level_days": profile.total_seconds / 86_400,
                "sieve_days": context.sieve_profiling.total_days,
            }
        )
    return rows


def test_ablation_two_level_profiling(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    banner(f"Ablation: two-level PKS profiling (detailed budget "
           f"{DETAILED_BUDGET:,} invocations)")
    emit(format_table(
        ["workload", "pks_err", "2level_err", "sieve_err",
         "pks_days", "2level_days", "sieve_days"],
        [
            (r["workload"], percent(r["full_pks"]), percent(r["two_level"]),
             percent(r["sieve"]), f"{r['full_cost_days']:.2f}",
             f"{r['two_level_days']:.2f}", f"{r['sieve_days']:.3f}")
            for r in rows
        ],
    ))
    for r in rows:
        speedup = r["full_cost_days"] / max(r["two_level_days"], 1e-9)
        emit(f"{r['workload']}: two-level cuts PKS profiling {times(speedup)}")
        # Two-level keeps profiling far cheaper than full detail but is
        # still costlier than Sieve's single-metric pass.
        assert r["two_level_days"] < r["full_cost_days"]
        assert r["sieve_days"] < r["two_level_days"]
