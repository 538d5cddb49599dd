"""Layer timers for the traced run.

:class:`LayerTracer` wraps public entry points of the program's modules
(``generate``, ``HardwareExecutor.measure``, ``Method.select`` ...) with
timers that live in the benchmark, so ``src/`` stays untouched. Each
timer keeps its calls, inclusive time and *self* time: inclusive time
minus the time of timed calls nested in it, and minus the program's own
``pks.*`` / ``sieve.kde`` span records that finished inside it (those
stages are too fine-grained for a public entry point, so their time is
read from the spans the program already records). The self times plus
the unattributed rest add up to the traced wall by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.evaluation import context as context_module
from repro.evaluation import engine as engine_module
from repro.evaluation import runner as runner_module
from repro.evaluation.engine import EvaluationEngine, ResultCache
from repro.gpu.hardware import HardwareExecutor
from repro.methods import builtin
from repro.observability import spans
from repro.observability import state as obs_state
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from repro.service import protocol
from repro.streaming.base import MethodStream

from perfbench import harness

#: Program span names read as layer stages -> the timer they feed.
STAGE_SPANS = {
    "pks.pca": "baselines.pks_pca",
    "pks.kmeans": "baselines.pks_kmeans",
    "pks.choose_k": "baselines.pks_choose_k",
    "sieve.kde": "core.kde",
}

#: (timer, owner, attribute) of every wrapped entry point.
TARGETS = (
    ("workloads.generate", context_module, "generate"),
    ("gpu.measure", HardwareExecutor, "measure"),
    ("profiling.nvbit", NVBitProfiler, "profile"),
    ("profiling.nsight", NsightComputeProfiler, "profile"),
    ("evaluation.context_build", engine_module, "build_context"),
    ("core.sieve_select", builtin.SieveMethod, "select"),
    ("baselines.pks_select", builtin.PksMethod, "select"),
    ("baselines.sampler_select", builtin.PeriodicMethod, "select"),
    ("baselines.sampler_select", builtin.RandomMethod, "select"),
    ("methods.predict", builtin.SieveMethod, "predict"),
    ("methods.predict", builtin.PksMethod, "predict"),
    ("methods.predict", builtin.PeriodicMethod, "predict"),
    ("methods.predict", builtin.RandomMethod, "predict"),
    ("observability.attribute", runner_module, "attribute_error"),
    ("evaluation.isolated", EvaluationEngine, "run_isolated"),
    ("evaluation.cache_get", ResultCache, "get"),
    ("evaluation.cache_put", ResultCache, "put"),
    ("service.protocol", protocol, "parse_request"),
    ("service.protocol", protocol, "response_body"),
    ("service.protocol", protocol, "canonical_json"),
    ("streaming.observe", MethodStream, "observe"),
    ("streaming.finalize", MethodStream, "finalize"),
)


@dataclass
class Timer:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    #: Inclusive duration of every call, for per-call percentiles.
    durations: list[float] = field(default_factory=list)


@dataclass
class _Frame:
    start: float
    mark: int
    nested_s: float = 0.0


class LayerTracer:
    """Install with ``with LayerTracer() as tracer:``; read ``timers`` after."""

    def __init__(self) -> None:
        names = {name for name, _, _ in TARGETS} | set(STAGE_SPANS.values())
        self.timers = {name: Timer() for name in names}
        self._stack: list[_Frame] = []
        self._claimed: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for name, owner, attribute in TARGETS:
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
        return False

    def _wrap(self, name: str, function):
        timer = self.timers[name]

        def timed(*args, **kwargs):
            frame = _Frame(time.perf_counter(), spans.mark())
            self._stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame.start
                self._stack.pop()
                staged = self._claim_stages(frame.mark)
                timer.calls += 1
                timer.inclusive_s += elapsed
                timer.self_s += elapsed - frame.nested_s - staged
                timer.durations.append(elapsed)
                if self._stack:
                    self._stack[-1].nested_s += elapsed

        timed.__wrapped__ = function
        return timed

    def _claim_stages(self, mark: int) -> float:
        """Credit stage spans finished since ``mark`` not yet credited."""
        staged = 0.0
        for record in spans.records(since=mark):
            stage = STAGE_SPANS.get(record.name)
            if stage is None or record.proc != "main" or record.span_id in self._claimed:
                continue
            self._claimed.add(record.span_id)
            self.timers[stage].calls += 1
            self.timers[stage].inclusive_s += record.wall_s
            self.timers[stage].self_s += record.wall_s
            staged += record.wall_s
        return staged

    def self_times(self, wall_s: float) -> dict[str, float]:
        """Every ``<layer>_s`` self time plus the unattributed rest."""
        times = {f"{name}_s": timer.self_s for name, timer in self.timers.items()}
        times["evaluation.unattributed_s"] = wall_s - sum(times.values())
        times["bench.traced_wall_s"] = wall_s
        return times

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Self times plus the per-call figures every workload reports."""
        observe = self.timers["streaming.observe"]
        return {
            **self.self_times(wall_s),
            "evaluation.context_build_ms": self.mean_ms("evaluation.context_build"),
            "evaluation.cache_put_ms": self.mean_ms("evaluation.cache_put"),
            "evaluation.cache_get_ms": self.mean_ms("evaluation.cache_get"),
            "streaming.chunks": observe.calls,
            "streaming.observe_chunk_p50_ms": (
                1000 * harness.percentile(observe.durations, 50) if observe.durations else 0.0
            ),
        }

    def mean_ms(self, name: str) -> float:
        timer = self.timers[name]
        return 1000.0 * timer.inclusive_s / timer.calls if timer.calls else 0.0


def observability_overhead(work, rounds: int = 1) -> float:
    """Wall of ``work()`` with the program's observability on, over off.

    Off and on alternate ``rounds`` times; the program's default is
    restored afterwards.
    """
    walls = {False: 0.0, True: 0.0}
    try:
        for _ in range(rounds):
            for enabled in (False, True):
                obs_state.set_enabled(enabled)
                start = time.perf_counter()
                work()
                walls[enabled] += time.perf_counter() - start
    finally:
        obs_state.set_enabled(None)
    return walls[True] / walls[False]
