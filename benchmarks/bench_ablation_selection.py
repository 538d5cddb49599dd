"""Ablation: Sieve representative-selection policies.

The paper's chosen policy is first-chronological-with-dominant-CTA; it
explicitly reports trying max-CTA selection and finding it less accurate
(Section III-C). This bench sweeps all policies.
"""

import numpy as np

from repro.core.config import SELECTION_POLICIES, SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.reporting import format_table, percent
from repro.evaluation.runner import evaluate_method

from _common import banner, emit

WORKLOADS = ("cactus/spt", "cactus/lmc", "mlperf/rnnt", "mlperf/bert")


def _sweep():
    rows = []
    for label in WORKLOADS:
        context = build_context(label)
        row = {"workload": label}
        for policy in SELECTION_POLICIES:
            result = evaluate_method(
                "sieve", context, SieveConfig(selection_policy=policy)
            )
            row[policy] = result.error
        rows.append(row)
    return rows


def test_ablation_sieve_selection_policies(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    banner("Ablation: Sieve selection policy (error per policy)")
    emit(format_table(
        ["workload", *SELECTION_POLICIES],
        [[r["workload"], *[percent(r[p]) for p in SELECTION_POLICIES]]
         for r in rows],
    ))
    averages = {p: float(np.mean([r[p] for r in rows])) for p in SELECTION_POLICIES}
    emit("\naverages: " + ", ".join(
        f"{p} {percent(averages[p])}" for p in SELECTION_POLICIES
    ))
    # Every Sieve policy stays accurate — stratification, not selection,
    # carries the accuracy (the paper's core claim).
    assert max(averages.values()) < 0.06
