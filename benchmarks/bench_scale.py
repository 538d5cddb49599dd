"""Scale bench: cap=100k vectorization speedup + engine round trip.

Thin pytest-benchmark wrapper around :mod:`scripts.scale_smoke` — the
same fixture, timings, equivalence checks and ``BENCH_scale.json``
manifest, so ``pytest benchmarks/ --benchmark-only`` and the CI
``scale-bench`` job measure one code path. The bench asserts the same
>=5x vectorized-path floor the script gates on, and the engine round
trip asserts the engine reproduces the in-process prediction.
"""

import sys
from pathlib import Path

from _common import banner, emit, manifest_mark

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import scale_smoke  # noqa: E402  (needs the scripts/ dir on sys.path)


def test_scale_vectorized_path(benchmark):
    mark = manifest_mark()
    report = benchmark.pedantic(
        lambda: scale_smoke.run_scale(), rounds=1, iterations=1
    )
    scale_smoke.run_engine_round_trip(report)
    banner("Scale: vectorized vs scalar path at cap=100k")
    for stage in scale_smoke.PATH_STAGES:
        emit(f"{stage:<10} {report.scalar[stage]:>9.4f}s scalar  "
             f"{report.vectorized[stage]:>9.4f}s vectorized  "
             f"{report.speedup(stage):>6.2f}x")
    emit(f"path speedup: {report.path_speedup:.2f}x "
         f"(gate: >={scale_smoke.DEFAULT_MIN_SPEEDUP:.0f}x)")
    emit(f"sieve_error: {report.sieve_error!r}")
    path = scale_smoke.write_manifest(report, mark)
    if path:
        emit(f"manifest: {path}")
    assert report.path_speedup >= scale_smoke.DEFAULT_MIN_SPEEDUP
