"""Cached evaluation engine with one supervised execution path.

Every figure/table experiment reduces to the same unit of work: build a
workload context (generate + measure + profile) and run one or both
samplers on it. That unit is a pure function of (resolved workload spec,
sampler configs, fault plan, package source), so this module runs units
in supervised child processes and memoizes their results in a content-
addressed on-disk cache:

* :class:`EvaluationTask` — one seed-deterministic unit of work, with a
  :meth:`~EvaluationTask.cache_key` derived via
  :func:`repro.utils.hashing.stable_hash`;
* :class:`ResultCache` — the on-disk store (atomic writes, corruption
  tolerance, hit/miss statistics);
* :class:`EvaluationEngine` — scheduling: cache probe, then the misses
  run in process (:meth:`~EvaluationEngine.run` at ``jobs=1``, the
  reference path) or through the one supervised executor, which forks
  one child per attempt under ``jobs`` supervisor threads, so a dead
  worker costs one retried attempt, never the batch.

Determinism contract: every stochastic element downstream of a task
(workload generation, measurement noise, k-means init, random selection)
is seeded from string labels via :mod:`repro.utils.seeding`, so
``jobs=1``, ``jobs=N`` and a cache-warm rerun produce *byte-identical*
pickled :class:`~repro.evaluation.runner.MethodResult`\\ s. The property
tests in ``tests/evaluation/test_engine_properties.py`` enforce this.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import repro
from repro.evaluation.context import build_context
from repro.evaluation.runner import (
    MethodResult,
    evaluate_method,
    evaluate_method_streaming,
)
from repro.methods import MethodRequest, get_method
from repro.observability import manifest as obs_manifest
from repro.observability import metrics, spans
from repro.observability.spans import span
from repro.robustness import diagnostics
from repro.robustness.faults import FaultPlan, task_sabotage
from repro.utils.errors import EngineError, TaskCrashError
from repro.utils.hashing import stable_hash, tree_fingerprint
from repro.utils.validation import require
from repro.workloads.catalog import spec_for
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # annotation-only
    from repro.streaming.base import StreamingSpec

#: Bump when the cached payload layout changes; old entries become misses.
#: 3: MethodResult grew ``attribution`` (and PredictionResult
#: ``contributions``), changing the pickled payload shape.
CACHE_SCHEMA = 3

#: The default method comparison (the paper's headline Sieve-vs-PKS).
KNOWN_METHODS = ("sieve", "pks")


def default_cache_dir() -> Path:
    """Resolve the default on-disk cache location.

    ``SIEVE_REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/sieve-repro``,
    then ``~/.cache/sieve-repro``.
    """
    env = os.environ.get("SIEVE_REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "sieve-repro"


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of the installed ``repro`` package source.

    Folded into every cache key so editing any module invalidates stale
    results even when ``repro.__version__`` is unchanged.
    """
    return tree_fingerprint(Path(repro.__file__).resolve().parent)


@dataclass(frozen=True)
class EvaluationTask:
    """One unit of work: evaluate the requested methods on one workload.

    Tasks are frozen, hashable and picklable; workers resolve the label
    through the catalog and rebuild the context from seeds, so a task
    carries *no* bulk data.

    ``methods`` accepts registry names (``"sieve"``) and/or
    :class:`~repro.methods.MethodRequest`\\ s; plain names are normalized
    into default-config requests at construction. Every requested method must resolve in
    the registry — construction and :meth:`cache_key` both raise a typed
    :class:`~repro.utils.errors.UnknownMethodError` otherwise, so a task
    can never mint a cache key for a method that cannot run.
    """

    label: str
    max_invocations: int | None = None
    fault_plan: FaultPlan | None = None
    methods: tuple[str | MethodRequest, ...] = KNOWN_METHODS
    #: Inline workload spec for labels *not* in the catalog (fuzz
    #: candidates). When set, its ``label`` must equal ``label`` and it
    #: replaces the catalog lookup in both execution and cache keying.
    spec: WorkloadSpec | None = None
    #: When set, each method consumes the profile through its
    #: ``begin_stream`` surface in ``chunk_rows`` slices (optionally with
    #: a bounded per-kernel reservoir) instead of one batch ``select``.
    #: Folded into the cache key: a streamed result never aliases a batch
    #: one, even though unbounded streams are byte-identical by contract.
    streaming: StreamingSpec | None = None

    def __post_init__(self) -> None:
        require(len(self.methods) >= 1, "task must request a method", EngineError)
        if self.spec is not None:
            require(
                self.spec.label == self.label,
                f"inline spec label {self.spec.label!r} does not match "
                f"task label {self.label!r}",
                EngineError,
            )
        requests = tuple(
            entry if isinstance(entry, MethodRequest) else MethodRequest(method=entry)
            for entry in self.methods
        )
        keys = [request.key for request in requests]
        require(
            len(set(keys)) == len(keys),
            f"duplicate method keys in task: {keys} (alias repeated requests)",
            EngineError,
        )
        # Fail loudly now: resolve every name and type-check its config.
        for request in requests:
            get_method(request.method).resolve_config(request.config)
        # Normalize in place (frozen dataclass), so a task built from
        # names hashes identically to one built from default requests.
        object.__setattr__(self, "methods", requests)

    def cache_key(self) -> str:
        """Content-addressed identity of this task's result.

        Key material: schema version, package version, package source
        fingerprint, the *resolved* workload spec (so catalog
        recalibration invalidates), the invocation cap, the fault plan
        and every method request (registry name + full config), so two
        tasks differing only in a method's config never collide.

        Raises :class:`~repro.utils.errors.UnknownMethodError` if any
        requested method is no longer registered.
        """
        for request in self.methods:
            get_method(request.method)  # typed failure before hashing
        workload_identity = self.spec if self.spec is not None else spec_for(self.label)
        return stable_hash(
            "evaluation-task",
            CACHE_SCHEMA,
            repro.__version__,
            source_fingerprint(),
            workload_identity,
            self.max_invocations,
            self.fault_plan,
            list(self.methods),
            self.streaming,
        )


@dataclass(frozen=True)
class TaskResult:
    """A task's outcome plus where it came from (computed vs cache)."""

    label: str
    results: Mapping[str, MethodResult]
    from_cache: bool = False

    def __getitem__(self, method: str) -> MethodResult:
        return self.results[method]


def run_task(task: EvaluationTask) -> dict[str, MethodResult]:
    """Execute one task in the current process.

    This is what every worker runs, and what :meth:`EvaluationEngine.run`
    runs in process at ``jobs=1``: independent of all engine state, so
    in-process and forked execution share one code path.
    """
    def evaluate(context) -> dict[str, MethodResult]:
        if task.streaming is not None:
            return {
                request.key: evaluate_method_streaming(
                    request.method,
                    context,
                    request.config,
                    chunk_rows=task.streaming.chunk_rows,
                    reservoir_rows=task.streaming.reservoir_rows,
                )
                for request in task.methods
            }
        return {
            request.key: evaluate_method(request.method, context, request.config)
            for request in task.methods
        }

    with span("engine.task", workload=task.label):
        return evaluate(
            build_context(
                task.label,
                task.max_invocations,
                fault_plan=task.fault_plan,
                spec=task.spec,
            )
        )


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # corrupt/stale entries dropped and recomputed

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.invalid} invalid"
        )


class ResultCache:
    """Content-addressed on-disk store for task results.

    Entries live at ``<dir>/<key[:2]>/<key>.pkl`` (fanned out so huge
    caches do not create million-entry directories). Writes go through a
    temp file + ``os.replace`` so a crashed run never leaves a torn
    entry; unreadable or schema-mismatched entries are treated as misses
    and deleted, with a diagnostic, never as errors.
    """

    def __init__(
        self,
        directory: Path | None = None,
        on_invalid: Callable[[str], None] | None = None,
    ):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.stats = CacheStats()
        #: Invoked with the cache *key* whenever an entry is dropped as
        #: corrupt/stale — the engine wires this to the quarantine's
        #: strike counter so repeatedly-poisoned keys stop being rewritten.
        self.on_invalid = on_invalid
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise EngineError(
                f"cannot create cache directory {self.directory}: {exc}"
            ) from exc

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> dict[str, MethodResult] | None:
        path = self.path_for(key)
        try:
            payload = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            self.stats.misses += 1
            metrics.inc("engine.cache.miss", reason="absent")
            return None
        except Exception as exc:  # torn write, foreign file, pickle drift
            self._drop_invalid(path, f"unreadable ({type(exc).__name__})", "unreadable")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("key") != key
        ):
            self._drop_invalid(path, "stale schema or key mismatch", "stale")
            return None
        self.stats.hits += 1
        metrics.inc("engine.cache.hit")
        return payload["results"]

    def put(self, key: str, results: dict[str, MethodResult]) -> None:
        path = self.path_for(key)
        payload = {"schema": CACHE_SCHEMA, "key": key, "results": results}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            # A full or read-only disk must not fail the evaluation.
            diagnostics.emit(
                "engine.cache", f"cache write failed for {path.name}: {exc}"
            )
            return
        self.stats.writes += 1

    def _drop_invalid(self, path: Path, reason: str, reason_label: str) -> None:
        self.stats.invalid += 1
        self.stats.misses += 1
        metrics.inc("engine.cache.miss", reason=reason_label)
        diagnostics.emit("engine.cache", f"dropping cache entry {path.name}: {reason}")
        try:
            path.unlink()
        except OSError:
            pass
        if self.on_invalid is not None:
            self.on_invalid(path.stem)

    def entries(self) -> list[Path]:
        """All entry files currently on disk, sorted."""
        return sorted(self.directory.glob("??/*.pkl"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + bounded-retry knobs for isolated task execution.

    ``deadline_s`` is the per-*attempt* wall-clock budget; ``None``
    disables the deadline (the supervisor blocks until the child
    responds). Backoff between attempt ``k`` and ``k+1`` is
    ``backoff_base_s * backoff_factor**k``.
    """

    max_attempts: int = 3
    deadline_s: float | None = 60.0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1", EngineError)
        require(
            self.deadline_s is None or self.deadline_s > 0,
            "deadline_s must be positive (or None to disable)",
            EngineError,
        )
        require(self.backoff_base_s >= 0, "backoff_base_s must be >= 0", EngineError)
        require(self.backoff_factor >= 1, "backoff_factor must be >= 1", EngineError)

    def backoff(self, attempt: int) -> float:
        """Sleep before retrying after failed attempt ``attempt`` (0-based)."""
        return self.backoff_base_s * self.backoff_factor**attempt


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one supervised task, successful or not.

    ``status`` is one of ``ok`` (results present), ``timeout`` (every
    attempt blew its deadline), ``crash`` (worker process died),
    ``error`` (task raised), or ``quarantined`` (skipped without running
    because earlier campaigns struck it out).
    """

    label: str
    status: str
    results: Mapping[str, MethodResult] | None = None
    attempts: int = 0
    from_cache: bool = False
    error: str | None = None
    #: The last attempt's exception when the task raised one that
    #: survives pickling (``None`` for timeouts and crashes).
    cause: BaseException | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __getitem__(self, method: str) -> MethodResult:
        if self.results is None:
            raise TaskCrashError(
                f"no results for failed task {self.label!r}",
                status=self.status,
                error=self.error,
            )
        return self.results[method]


class Quarantine:
    """Strike-counting quarantine list for tasks and cache entries.

    Persisted as sorted JSON at ``path`` (memory-only when ``path`` is
    ``None``) so repeated campaign runs remember which task labels and
    cache keys keep failing. An identity reaching ``threshold`` strikes
    is quarantined: ``run_isolated`` skips quarantined tasks outright
    and the engine stops rewriting quarantined cache keys.
    """

    def __init__(self, path: Path | None = None, threshold: int = 2):
        require(threshold >= 1, "quarantine threshold must be >= 1", EngineError)
        self.path = Path(path) if path is not None else None
        self.threshold = threshold
        self.strikes: dict[str, int] = {}
        self._load()

    @staticmethod
    def _entry(kind: str, ident: str) -> str:
        require(
            kind in ("task", "cache"),
            f"unknown quarantine kind {kind!r}",
            EngineError,
        )
        return f"{kind}:{ident}"

    def _load(self) -> None:
        if self.path is None or not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text())
            self.strikes = {str(k): int(v) for k, v in payload["strikes"].items()}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            diagnostics.emit(
                "engine.quarantine",
                f"unreadable quarantine file {self.path}: {exc!r}; starting empty",
            )
            self.strikes = {}

    def _save(self) -> None:
        if self.path is None:
            return
        payload = {"threshold": self.threshold, "strikes": dict(sorted(self.strikes.items()))}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=".tmp-quar-")
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError as exc:
            diagnostics.emit(
                "engine.quarantine", f"cannot persist quarantine: {exc}"
            )

    def strike(self, kind: str, ident: str) -> int:
        """Record one failure; returns the new strike count."""
        entry = self._entry(kind, ident)
        self.strikes[entry] = self.strikes.get(entry, 0) + 1
        count = self.strikes[entry]
        metrics.inc("engine.quarantine.strikes", kind=kind)
        if count == self.threshold:
            metrics.inc("engine.quarantine.added", kind=kind)
            diagnostics.emit(
                "engine.quarantine",
                f"{kind} {ident!r} quarantined after {count} strikes",
            )
            obs_manifest.record_event(
                "engine.quarantined", target=kind, ident=ident, strikes=count
            )
        self._save()
        return count

    def is_quarantined(self, kind: str, ident: str) -> bool:
        return self.strikes.get(self._entry(kind, ident), 0) >= self.threshold

    def clear(self, kind: str | None = None) -> int:
        """Forget strikes (optionally only one kind); returns entries dropped."""
        if kind is None:
            dropped = len(self.strikes)
            self.strikes = {}
        else:
            doomed = [e for e in self.strikes if e.startswith(f"{kind}:")]
            dropped = len(doomed)
            for entry in doomed:
                del self.strikes[entry]
        self._save()
        return dropped

    def entries(self) -> list[tuple[str, str, int]]:
        """Sorted ``(kind, ident, strikes)`` rows (for CLI/report display)."""
        rows = []
        for entry, count in sorted(self.strikes.items()):
            kind, _, ident = entry.partition(":")
            rows.append((kind, ident, count))
        return rows


def _portable(exc: BaseException) -> BaseException | None:
    """``exc`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _isolated_child(task: EvaluationTask, attempt: int, sabotage: bool, conn) -> None:
    """Entry point of a single-attempt worker process.

    With ``sabotage`` (only :meth:`EvaluationEngine.run_isolated` sets
    it), applies deterministic task-surface sabotage first (the chaos
    hooks behind :func:`repro.robustness.faults.task_sabotage`): ``hang``
    sleeps past any reasonable deadline, ``crash`` kills the process
    abruptly, ``task_error`` raises. Sabotage depends only on
    ``(plan.seed, mode, label, attempt)`` — never on scheduling — so
    ``jobs=1`` and ``jobs=N`` campaigns sabotage identically.

    The child then runs the task and ships ``(results, ring window,
    metrics snapshot)`` back. It first drops the live sinks (they wrap
    parent-owned handles and would print out of order) and resets the
    telemetry ring and registry inherited through the fork (counting
    them twice would corrupt the merge), so the window — spans, events
    and diagnostics — is exactly this task's. The parent adopts the
    window under its fan-out span and merges metrics in task input
    order, which keeps the merged telemetry equal to a serial run's.
    """
    try:
        if sabotage and task.fault_plan is not None:
            mode = task_sabotage(task.fault_plan, task.label, attempt)
            if mode == "hang":
                time.sleep(3600.0)
            elif mode == "crash":
                os._exit(13)
            elif mode == "task_error":
                raise EngineError(
                    "injected task fault",
                    workload=task.label,
                    attempt=attempt,
                )
        spans.clear_sinks()
        spans.reset()
        metrics.get_registry().reset()
        results = run_task(task)
        telemetry = (results, spans.window(), metrics.get_registry().snapshot())
        conn.send(("ok", telemetry, None))
    except BaseException as exc:  # noqa: BLE001 — ship *any* failure to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}", _portable(exc)))
        except Exception:
            os._exit(1)
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _supervised_attempt(
    task: EvaluationTask, attempt: int, deadline_s: float | None, sabotage: bool
) -> tuple[str, object, BaseException | None]:
    """Run one attempt in a dedicated child process under a deadline.

    Returns ``(status, payload, cause)`` where status is ``ok`` (payload
    is the telemetry tuple from :func:`_isolated_child`),
    ``timeout``, ``crash`` or ``error`` (payload is a description, and
    ``cause`` the task's exception when it pickles). The child is
    terminated (then killed) on timeout, so a hung task costs exactly
    one deadline — never the campaign.
    """
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_isolated_child, args=(task, attempt, sabotage, sender), daemon=True
    )
    proc.start()
    sender.close()
    try:
        if not receiver.poll(deadline_s):
            _reap(proc)
            return ("timeout", f"no result within {deadline_s}s deadline", None)
        try:
            reply = receiver.recv()
        except EOFError:
            proc.join(5.0)
            return (
                "crash",
                f"worker died without result (exitcode={proc.exitcode})",
                None,
            )
        proc.join(5.0)
        return reply
    finally:
        receiver.close()
        if proc.is_alive():
            _reap(proc)


def _reap(proc: multiprocessing.Process) -> None:
    """Terminate, then kill, a stuck child; always joins."""
    proc.terminate()
    proc.join(2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


def _run_with_retries(
    task: EvaluationTask,
    policy: RetryPolicy,
    sabotage: bool,
) -> tuple[TaskOutcome, tuple | None]:
    """Drive one task through supervised attempts with backoff.

    Returns the outcome plus the worker telemetry tuple for successful
    attempts (``None`` on failure); the caller merges telemetry in task
    input order so parallel runs stay deterministic.
    """
    status, payload, cause = "error", "never attempted", None
    for attempt in range(policy.max_attempts):
        with span(
            "engine.attempt", workload=task.label, attempt=attempt
        ):
            status, payload, cause = _supervised_attempt(
                task, attempt, policy.deadline_s, sabotage
            )
        if status == "ok":
            results = payload[0]
            return (
                TaskOutcome(task.label, "ok", results, attempts=attempt + 1),
                payload,
            )
        metrics.inc("engine.isolated.attempt_failures", reason=status)
        diagnostics.emit(
            "engine.isolated",
            f"attempt {attempt + 1}/{policy.max_attempts} for {task.label} "
            f"failed ({status}): {payload}",
        )
        if attempt + 1 < policy.max_attempts:
            time.sleep(policy.backoff(attempt))
    return (
        TaskOutcome(
            task.label,
            status,
            None,
            attempts=policy.max_attempts,
            error=str(payload),
            cause=cause,
        ),
        None,
    )


def _supervise(
    tasks: Sequence[EvaluationTask], jobs: int, policy: RetryPolicy, sabotage: bool
) -> list[tuple[TaskOutcome, tuple | None]]:
    """The one executor: every task through :func:`_run_with_retries`.

    ``jobs`` supervisor threads each drive one task's forked attempts at
    a time, opening their spans under the caller's live span; outcomes
    come back in input order.
    """
    if jobs <= 1:
        return [_run_with_retries(task, policy, sabotage) for task in tasks]
    with ThreadPoolExecutor(
        max_workers=jobs,
        initializer=spans.continue_stack,
        initargs=(spans.current_stack(),),
    ) as supervisors:
        return list(
            supervisors.map(lambda task: _run_with_retries(task, policy, sabotage), tasks)
        )


@dataclass(frozen=True)
class EngineConfig:
    """Tunable parameters of the evaluation engine."""

    jobs: int = 1
    use_cache: bool = True
    cache_dir: Path | None = None  # None -> default_cache_dir()
    #: Where the quarantine list persists. ``None`` puts it next to the
    #: cache (``<cache_dir>/quarantine.json``) when caching is on, else
    #: keeps it in memory for the engine's lifetime.
    quarantine_path: Path | None = None
    #: Failures before a task label / cache key is quarantined.
    quarantine_threshold: int = 2
    #: Attempt schedule of the supervised executor.
    #: :meth:`EvaluationEngine.run` uses it without the deadline.
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        require(self.jobs >= 1, "jobs must be >= 1", EngineError)
        require(
            self.quarantine_threshold >= 1,
            "quarantine_threshold must be >= 1",
            EngineError,
        )


class EvaluationEngine:
    """Schedule evaluation tasks across the cache and supervised workers.

    ``run`` returns :class:`TaskResult`\\ s in input order regardless of
    completion order, cache state or worker count; the in-process path
    (``jobs=1``) is the reference every ``jobs=N`` run must match byte
    for byte.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.cache = (
            ResultCache(self.config.cache_dir) if self.config.use_cache else None
        )
        quarantine_path = self.config.quarantine_path
        if quarantine_path is None and self.cache is not None:
            quarantine_path = self.cache.directory / "quarantine.json"
        self.quarantine = Quarantine(
            quarantine_path, threshold=self.config.quarantine_threshold
        )
        if self.cache is not None:
            self.cache.on_invalid = lambda key: self.quarantine.strike("cache", key)

    @property
    def cache_stats(self) -> CacheStats | None:
        return self.cache.stats if self.cache is not None else None

    def close(self) -> None:
        """A no-op: the engine holds no resource to release.

        Workers are forked per attempt and reaped by their supervisor,
        and cache writes are atomic per entry. Owners may still call it
        on shutdown.
        """

    def run(self, tasks: Sequence[EvaluationTask]) -> list[TaskResult]:
        """Evaluate every task, probing the cache first.

        Misses run in this process at ``jobs=1``; otherwise they go
        through the supervised executor under ``config.retry`` with no
        deadline, so a dead worker costs one retried attempt. A task that
        still fails raises what it raises at ``jobs=1`` when that
        exception pickles, else :class:`~repro.utils.errors.TaskCrashError`.
        Quarantine and task-surface chaos belong to :meth:`run_isolated`.
        """
        with span("engine.run", tasks=len(tasks)) as run_span:
            policy = replace(self.config.retry, deadline_s=None)
            return [
                TaskResult(outcome.label, outcome.results, from_cache=outcome.from_cache)
                for outcome in self._evaluate(tasks, run_span, policy, isolated=False)
            ]

    def run_isolated(
        self,
        tasks: Sequence[EvaluationTask],
        policy: RetryPolicy | None = None,
    ) -> list[TaskOutcome]:
        """Evaluate tasks with per-task crash isolation and deadlines.

        Every pending task — at any ``jobs`` — runs through the
        supervised executor: a hang costs one deadline, a crash costs one
        attempt, and neither aborts the batch. Failed tasks come back as
        outcomes and earn quarantine strikes; quarantined tasks are
        skipped outright, and task-surface chaos in a task's fault plan
        is applied. Outcomes come back in input order, cache-warm where
        possible, and ``jobs=1`` and ``jobs=N`` produce byte-identical
        surviving results and aggregates.
        """
        with span("engine.run_isolated", tasks=len(tasks)) as iso_span:
            policy = policy or self.config.retry
            return self._evaluate(tasks, iso_span, policy, isolated=True)

    def _evaluate(
        self,
        tasks: Sequence[EvaluationTask],
        fan_out_span,
        policy: RetryPolicy,
        isolated: bool,
    ) -> list[TaskOutcome]:
        """Probe the cache, run the misses, merge telemetry in input order.

        ``isolated`` selects :meth:`run_isolated`'s contract: quarantine
        skips and strikes, task-surface chaos, forked attempts even at
        ``jobs=1``, and failures returned as outcomes. Without it the
        first failure in input order raises.
        """
        outcomes: dict[int, TaskOutcome] = {}
        keys: dict[int, str] = {}
        pending: list[int] = []
        with span("engine.cache.probe", tasks=len(tasks)):
            for index, task in enumerate(tasks):
                if isolated and self.quarantine.is_quarantined("task", task.label):
                    metrics.inc("engine.isolated.quarantine_skips")
                    obs_manifest.record_event(
                        "engine.task_skipped", workload=task.label, reason="quarantined"
                    )
                    outcomes[index] = TaskOutcome(
                        task.label, "quarantined", error="skipped: quarantined task"
                    )
                    continue
                if self.cache is not None:
                    keys[index] = task.cache_key()
                    cached = self.cache.get(keys[index])
                    if cached is not None:
                        outcomes[index] = TaskOutcome(
                            task.label, "ok", cached, from_cache=True
                        )
                        continue
                pending.append(index)
        jobs = min(self.config.jobs, len(pending))
        if jobs <= 1 and not isolated:  # the in-process reference path
            attempted = [
                (TaskOutcome(tasks[i].label, "ok", run_task(tasks[i]), attempts=1), None)
                for i in pending
            ]
        else:
            attempted = _supervise([tasks[i] for i in pending], jobs, policy, isolated)
        for index, (outcome, telemetry) in zip(pending, attempted):
            outcomes[index] = outcome
            if outcome.ok:
                self._cache_put(keys.get(index), dict(outcome.results))
                if telemetry is not None:
                    _, window, snapshot = telemetry
                    spans.adopt(window, parent_id=fan_out_span.span_id)
                    metrics.get_registry().merge(snapshot)
            elif not isolated:
                raise outcome.cause or TaskCrashError(
                    f"task {outcome.label!r} failed after {outcome.attempts} attempts",
                    status=outcome.status,
                    error=outcome.error,
                )
            else:
                metrics.inc("engine.isolated.failures", status=outcome.status)
                obs_manifest.record_event(
                    "engine.task_failed",
                    workload=outcome.label,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    error=outcome.error,
                )
                self.quarantine.strike("task", outcome.label)
        return [outcomes[index] for index in range(len(tasks))]

    def _cache_put(self, key: str | None, results: dict[str, MethodResult]) -> None:
        """Write-through, unless the key's entries keep coming back corrupt."""
        if self.cache is None or key is None:
            return
        if self.quarantine.is_quarantined("cache", key):
            metrics.inc("engine.cache.quarantine_skips")
            return
        self.cache.put(key, results)
