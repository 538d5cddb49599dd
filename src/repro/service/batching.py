"""Micro-batching dispatcher: many concurrent requests, one engine.

The server handles each HTTP request on its own asyncio task, but the
:class:`~repro.evaluation.engine.EvaluationEngine` wants *batches* — its
cache probe, process fan-out and quarantine bookkeeping amortize over a
task list. The dispatcher bridges the two worlds:

* :meth:`BatchingDispatcher.submit` enqueues one
  :class:`~repro.evaluation.engine.EvaluationTask` and awaits its
  :class:`~repro.evaluation.engine.TaskOutcome`;
* a single flusher coroutine sleeps for the batching window
  (``window_s``) after the first arrival, then drains everything queued
  into one ``engine.run_isolated`` call on a worker thread — the engine
  parallelizes *inside* the batch via its supervisor threads, so exactly
  one batch runs at a time and batches never contend for workers;
* requests whose tasks share a cache key **coalesce**: the first one
  enqueues the engine task, later arrivals await the same future. With
  ``asyncio.shield`` around the shared future, one client cancelling
  (disconnecting) never cancels the underlying work or poisons the
  siblings awaiting the same result.

``run_isolated`` reports per-task failures as outcome statuses instead
of raising, so a crashing task fails *its* requests with a structured
error while the rest of the batch completes normally — the crash
isolation, retries and quarantine from the hardened engine apply
per-request for free.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.evaluation.engine import (
    EvaluationEngine,
    EvaluationTask,
    RetryPolicy,
    TaskOutcome,
)
from repro.observability.metrics import inc, observe
from repro.observability.spans import span
from repro.utils.errors import ServiceUnavailableError


@dataclass
class DispatcherStats:
    """Monotonic counters exposed via ``/v1/healthz``."""

    requests: int = 0  # submit() calls
    coalesced: int = 0  # submits served by an already-inflight task
    batches: int = 0  # engine.run_isolated invocations
    tasks: int = 0  # unique engine tasks dispatched
    failures: int = 0  # outcomes with a non-ok status

    def to_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "tasks": self.tasks,
            "failures": self.failures,
        }


@dataclass
class _Pending:
    """One unique engine task waiting for (or in) a batch."""

    task: EvaluationTask
    future: asyncio.Future = field(default_factory=asyncio.Future)


class BatchingDispatcher:
    """Coalesce concurrent evaluation requests into engine batches.

    Must be started (and closed) on the event loop it serves:
    ``await dispatcher.start()`` / ``await dispatcher.close()``.
    """

    def __init__(
        self,
        engine: EvaluationEngine,
        *,
        window_s: float = 0.005,
        max_batch: int = 32,
        retry: RetryPolicy | None = None,
    ):
        self.engine = engine
        self.window_s = window_s
        self.max_batch = max(1, int(max_batch))
        self.retry = retry
        self.stats = DispatcherStats()
        self._inflight: dict[str, _Pending] = {}
        self._queue: list[_Pending] = []
        self._wakeup = asyncio.Event()
        self._flusher: asyncio.Task | None = None
        self._closed = False
        # One worker thread: batches are serialized; the engine's own
        # supervisor threads provide the parallelism within a batch.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="sieve-service-batch"
        )

    async def start(self) -> None:
        if self._flusher is None:
            self._flusher = asyncio.create_task(
                self._flush_loop(), name="sieve-service-flusher"
            )

    async def submit(self, task: EvaluationTask) -> TaskOutcome:
        """Queue ``task`` and await its outcome.

        Identical concurrent tasks (same content-addressed cache key)
        share one engine execution. Cancellation of this coroutine
        abandons *this* waiter only — the shared work keeps running for
        the siblings.
        """
        if self._closed:
            raise ServiceUnavailableError("service is shutting down")
        self.stats.requests += 1
        key = task.cache_key()
        pending = self._inflight.get(key)
        if pending is not None:
            self.stats.coalesced += 1
            inc("service.coalesced")
        else:
            pending = _Pending(task=task)
            self._inflight[key] = pending
            self._queue.append(pending)
            self._wakeup.set()
        return await asyncio.shield(pending.future)

    async def close(self) -> None:
        """Stop the flusher and fail anything still queued."""
        self._closed = True
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        for pending in self._queue:
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceUnavailableError(
                        "service shut down before the task ran",
                        workload=pending.task.label,
                    )
                )
        self._queue.clear()
        self._inflight.clear()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------ internals

    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            # Batching window: let concurrent arrivals pile up before
            # the engine round-trip.
            if self.window_s > 0:
                await asyncio.sleep(self.window_s)
            self._wakeup.clear()
            while self._queue:
                batch = self._queue[: self.max_batch]
                del self._queue[: len(batch)]
                await self._run_batch(loop, batch)

    async def _run_batch(self, loop: asyncio.AbstractEventLoop, batch: list[_Pending]) -> None:
        tasks = [pending.task for pending in batch]
        self.stats.batches += 1
        self.stats.tasks += len(batch)
        observe("service.batch_size", float(len(batch)))
        try:
            with span("service.batch", size=len(batch)):
                outcomes = await loop.run_in_executor(
                    self._executor, self._run_isolated, tasks
                )
        except BaseException as exc:  # engine misuse, executor shutdown
            for pending in batch:
                self._finish(pending)
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        for pending, outcome in zip(batch, outcomes):
            if outcome.status != "ok":
                self.stats.failures += 1
                inc("service.task_failures", status=outcome.status)
            self._finish(pending)
            if not pending.future.done():
                pending.future.set_result(outcome)

    def _run_isolated(self, tasks: list[EvaluationTask]) -> list[TaskOutcome]:
        return self.engine.run_isolated(tasks, self.retry)

    def _finish(self, pending: _Pending) -> None:
        key = pending.task.cache_key()
        if self._inflight.get(key) is pending:
            del self._inflight[key]
