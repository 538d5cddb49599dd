"""Calibration sweep: paper-shape check over the challenging workloads.

Not part of the installed package — a development aid that prints the
Figure 2/3/4/6 quantities for every Cactus/MLPerf workload so the catalog
knobs can be tuned against the paper's reported values.
"""

import sys
import time

from repro.evaluation.context import build_context
from repro.evaluation.metrics import harmonic_mean
from repro.evaluation.runner import evaluate_method, sieve_tier_fractions
from repro.workloads.catalog import CHALLENGING_SUITES, specs_for_suites

CAP = None if len(sys.argv) < 2 else int(sys.argv[1])

sieve_errs, pks_errs, sieve_spd, pks_spd = [], [], [], []
print(f"{'workload':16s} {'t1/t2/t3@0.4':>15s} "
      f"{'sieve_err':>9s} {'pks_err':>8s} {'s_cov':>6s} {'p_cov':>6s} "
      f"{'s_spd':>8s} {'p_spd':>8s} {'reps':>5s} {'k':>3s} {'sec':>5s}")
for spec in specs_for_suites(CHALLENGING_SUITES):
    t0 = time.time()
    ctx = build_context(spec.label, max_invocations=CAP)
    tiers = sieve_tier_fractions(ctx, theta=0.4)
    sieve = evaluate_method("sieve", ctx)
    pks = evaluate_method("pks", ctx)
    sieve_errs.append(sieve.error)
    pks_errs.append(pks.error)
    if spec.name != "gst":
        sieve_spd.append(sieve.speedup)
        pks_spd.append(pks.speedup)
    print(f"{spec.label:16s} {tiers[0]*100:4.0f}/{tiers[1]*100:3.0f}/{tiers[2]*100:3.0f}%    "
          f"{sieve.error_percent:8.2f}% {pks.error_percent:7.2f}% "
          f"{sieve.cycle_cov:6.2f} {pks.cycle_cov:6.2f} "
          f"{sieve.speedup:8.0f} {pks.speedup:8.0f} "
          f"{sieve.num_representatives:5d} {getattr(pks.selection, 'chosen_k', 0):3d} "
          f"{time.time()-t0:5.1f}")

print(f"\nSieve: avg err {sum(sieve_errs)/len(sieve_errs)*100:.2f}% "
      f"max {max(sieve_errs)*100:.2f}%  hmean speedup {harmonic_mean(sieve_spd):.0f}x")
print(f"PKS:   avg err {sum(pks_errs)/len(pks_errs)*100:.2f}% "
      f"max {max(pks_errs)*100:.2f}%  hmean speedup {harmonic_mean(pks_spd):.0f}x")
print("paper: Sieve 1.2% avg / 3.2% max, 922x; PKS 16.5% avg / 60.4% max, 1272x")
