"""Shared plumbing: where the program is, the metric tables, statistics and
the one-line JSON result every run ends with."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of runs (server caches, logs); listed in .gitignore.
WORK = ROOT / ".perfbench_work"
#: This run's own part of it, removed when the run ends.
RUN_DIR = WORK / str(os.getpid())

#: The workloads BENCHMARK.json gates.
WORKLOADS = ("paper_fig3", "service_cold", "stream_1m")
#: Runnable on request but not gated: ``service_warm``'s latencies swing
#: by more than any allowed bound between runs on a shared 2-vCPU host
#: (see README.md).
UNGATED_WORKLOADS = ("service_warm",)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "resident_rows_peak": "rows",
    "peak_rss_mb": "MB",
}

#: Layer self times (seconds) of the traced section. Together with
#: ``evaluation.unattributed_s`` they add up to ``bench.traced_wall_s``.
SELF_TIMES = (
    "workloads.generate_s",
    "gpu.measure_s",
    "profiling.nvbit_s",
    "profiling.nsight_s",
    "evaluation.context_build_s",
    "core.sieve_select_s",
    "core.kde_s",
    "baselines.pks_select_s",
    "baselines.pks_pca_s",
    "baselines.pks_kmeans_s",
    "baselines.pks_choose_k_s",
    "baselines.sampler_select_s",
    "methods.predict_s",
    "observability.attribute_s",
    "evaluation.isolated_s",
    "evaluation.cache_get_s",
    "evaluation.cache_put_s",
    "service.protocol_s",
    "streaming.observe_s",
    "streaming.finalize_s",
    "evaluation.unattributed_s",
)

#: Per-layer metrics (``--trace 1``): name -> unit. A layer a workload does
#: not exercise reads 0 there.
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    "bench.traced_wall_s": "s",
    "observability.overhead_ratio": "ratio",
    "observability.span_records": "count",
    "evaluation.isolated_task_ms": "ms",
    "evaluation.inprocess_task_ms": "ms",
    "evaluation.isolation_overhead_ms": "ms",
    "evaluation.context_build_ms": "ms",
    "evaluation.cache_put_ms": "ms",
    "evaluation.cache_get_ms": "ms",
    "evaluation.cache_hit_ratio": "ratio",
    "service.protocol_ms": "ms",
    "service.transport_ms": "ms",
    "service.server_latency_mean_ms": "ms",
    "service.batches": "count",
    "service.tasks_per_batch": "count",
    "service.coalesced_ratio": "ratio",
    "streaming.observe_chunk_p50_ms": "ms",
    "streaming.chunks": "count",
}


class BenchError(Exception):
    """A run that must be rejected rather than reported."""


def require_program() -> None:
    """Put the checkout's ``src/`` on the path, or reject the run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found: {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    """An empty directory under the run's scratch space."""
    path = RUN_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_run_dir() -> None:
    """Delete this run's scratch space, and the shared root once empty."""
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def median(values) -> float:
    return percentile(values, 50.0)


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def median_setup(argv: list[str], repeats: int = 5) -> float:
    """Median wall time of ``repeats`` fresh-interpreter set-ups.

    ``argv`` is a ``run.py --setup-probe ...`` command that performs one
    workload's set-up and exits.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return median(times)


def probe_argv(workload: str, seed: int) -> list[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve().parent / "run.py"),
        "--setup-probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]


class Outcome:
    """What one run reports: correctness, operation counts and metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        #: Sample counts behind the percentile metrics, for the summary.
        self.samples: dict[str, int] = {}
        #: Values shown in the summary only (aggregates, counts).
        self.notes: dict[str, float] = {}

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def result_line(self, units: dict[str, str]) -> str:
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": float(self.metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
