"""Cache-correctness smoke check (run in CI).

Runs a reduced-scale Figure 3 experiment twice against one cache
directory and asserts the contract the engine promises:

* the warm (cache-hit) run is at least MIN_SPEEDUP faster than the cold
  run;
* both runs produce byte-identical pickled ``MethodResult``\\ s;
* the warm run served every task from cache (no recomputation);
* with ``--jobs N`` (N > 1), the cold results are byte-identical to a
  ``jobs=1`` cold pass in its own cache, which runs every task in
  process.

Usage::

    PYTHONPATH=src python scripts/cache_smoke.py [--jobs N] [--cap N]

Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import tempfile
import time
from pathlib import Path

from repro.evaluation.engine import EngineConfig, EvaluationEngine
from repro.evaluation.experiments import compare_methods

MIN_SPEEDUP = 5.0


def run_once(cache: Path, jobs: int, cap: int):
    engine = EvaluationEngine(
        EngineConfig(jobs=jobs, use_cache=True, cache_dir=cache)
    )
    start = time.perf_counter()
    rows = compare_methods(max_invocations=cap, engine=engine)
    elapsed = time.perf_counter() - start
    return rows, elapsed, engine.cache_stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cap", type=int, default=2000)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="sieve-cache-smoke-") as tmp:
        cache = Path(tmp) / "cache"
        cold_rows, cold_time, cold_stats = run_once(cache, args.jobs, args.cap)
        warm_rows, warm_time, warm_stats = run_once(cache, args.jobs, args.cap)
        reference_rows = cold_rows
        if args.jobs > 1:
            reference_rows, serial_time, _ = run_once(
                Path(tmp) / "serial", 1, args.cap
            )

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    print(f"cold: {cold_time:.3f}s ({cold_stats.summary()})")
    print(f"warm: {warm_time:.3f}s ({warm_stats.summary()})")
    if args.jobs > 1:
        print(f"jobs=1 cold: {serial_time:.3f}s")
    print(f"warm-cache speedup: {speedup:.1f}x (required >= {MIN_SPEEDUP}x)")

    failures = []
    if warm_stats.hits != len(cold_rows) or warm_stats.misses != 0:
        failures.append(
            f"warm run recomputed work: {warm_stats.summary()} over "
            f"{len(cold_rows)} tasks"
        )
    for cold, warm, reference in zip(cold_rows, warm_rows, reference_rows):
        for method in ("sieve", "pks"):
            cold_bytes = pickle.dumps(getattr(cold, method))
            if cold_bytes != pickle.dumps(getattr(warm, method)):
                failures.append(
                    f"{cold.workload} {method}: warm result is not "
                    "byte-identical to cold result"
                )
            if cold_bytes != pickle.dumps(getattr(reference, method)):
                failures.append(
                    f"{cold.workload} {method}: jobs={args.jobs} cold result "
                    "is not byte-identical to the jobs=1 cold result"
                )
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"warm run only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x)"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("cache smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
