"""Ablation: KDE stratification versus kernel-name-only stratification.

Sieve's Tier-3 KDE splitting is what keeps within-stratum variability
bounded. Disabling it (theta = 50, i.e. one stratum per kernel regardless
of instruction-count variability) shows how much accuracy the instruction-
count characteristic itself buys — the paper's claim that "the only
critical execution characteristic to profile is instruction count".
"""

import numpy as np

from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.reporting import format_table, percent
from repro.evaluation.runner import evaluate_method

from _common import banner, emit

WORKLOADS = ("cactus/spt", "cactus/dcg", "mlperf/rnnt", "cactus/gst")


def _sweep():
    rows = []
    for label in WORKLOADS:
        context = build_context(label)
        full = evaluate_method("sieve", context, SieveConfig(theta=0.4))
        kernel_only = evaluate_method("sieve", context, SieveConfig(theta=50.0))
        rows.append(
            {
                "workload": label,
                "sieve": full.error,
                "kernel_only": kernel_only.error,
                "sieve_reps": full.num_representatives,
                "kernel_only_reps": kernel_only.num_representatives,
            }
        )
    return rows


def test_ablation_kde_stratification(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    banner("Ablation: KDE stratification vs one-stratum-per-kernel")
    emit(format_table(
        ["workload", "sieve(θ=0.4)", "kernel-only", "reps", "kernel-only reps"],
        [
            (r["workload"], percent(r["sieve"]), percent(r["kernel_only"]),
             r["sieve_reps"], r["kernel_only_reps"])
            for r in rows
        ],
    ))
    sieve_avg = float(np.mean([r["sieve"] for r in rows]))
    ablated_avg = float(np.mean([r["kernel_only"] for r in rows]))
    emit(f"\navg error: full Sieve {percent(sieve_avg)}, "
         f"kernel-name-only {percent(ablated_avg)}")
    # Instruction-count stratification must matter on Tier-3-heavy
    # workloads.
    assert ablated_avg > sieve_avg
    assert all(r["sieve_reps"] >= r["kernel_only_reps"] for r in rows)
