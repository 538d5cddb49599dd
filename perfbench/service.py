"""``service_cold`` and ``service_warm``: ``sieve-repro serve`` under load.

The server runs in its own process (``jobs=1``, an empty cache in the
run's scratch space) exactly as a user starts it; this process is the one
client. ``service_cold`` drives it in a closed loop over 2 connections
with requests that are each a unique task, so every request forks an
isolated task, builds its context and writes the cache. ``service_warm``
pre-fills the cache during set-up, then replays a seeded Poisson schedule
in an open loop and times each request from when it was due, so only
cache reads, the protocol and the dispatcher run.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from repro.evaluation.context import build_context
from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    ResultCache,
    run_task,
)
from repro.evaluation.runner import evaluate_method
from repro.methods import MethodRequest
from repro.observability import spans
from repro.observability.export import parse_prometheus
from repro.service import protocol
from repro.workloads.catalog import spec_for

from perfbench import checks, harness, inputs
from perfbench.layers import LayerTracer, observability_overhead

CONNECTIONS = 2
#: Worker connections of the open loop; far more than the warm load needs.
OPEN_LOOP_WORKERS = 4
#: The client's thread switch interval during the open loop, so that the
#: generator and the workers do not wait the default 5 ms for each other.
CLIENT_SWITCH_INTERVAL_S = 0.0005
#: Served requests re-evaluated in process (and timed, in a traced run).
REEVALUATED = 6
#: A warm run whose last response lands later than this after the last
#: due time has a growing backlog.
MAX_DRAIN_S = 1.0
REQUEST_TIMEOUT_S = 120.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """One ``sieve-repro serve`` process on an ephemeral port."""

    def __init__(self, name: str):
        self.directory = harness.fresh_dir(name)
        self.log_path = self.directory / "server.log"
        env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        argv = [
            sys.executable, "-m", "repro.cli",
            "--jobs", "1", "--cache-dir", str(self.directory / "cache"),
            "serve", "--port", "0",
        ]
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                argv, cwd=harness.ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self.host, self.port = self._wait_for_port()
            status, _ = self.get(protocol.HEALTHZ_ROUTE)
            if status != 200:
                raise harness.BenchError(f"/v1/healthz answered HTTP {status}")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _wait_for_port(self, timeout_s: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise harness.BenchError(
            f"server did not start: {self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, route: str) -> tuple[int, bytes]:
        connection = self.connect()
        try:
            connection.request("GET", route)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def counters(self) -> dict[str, float]:
        """Dispatcher, cache and server-latency counters, read over HTTP."""
        status, health = self.get(protocol.HEALTHZ_ROUTE)
        _, text = self.get(protocol.METRICS_ROUTE)
        if status != 200:
            raise harness.BenchError(f"/v1/healthz answered HTTP {status}")
        counters = {f"dispatcher.{k}": float(v) for k, v in json.loads(health)["dispatcher"].items()}
        families = parse_prometheus(text.decode("utf-8"))
        routes = (protocol.SELECT_ROUTE, protocol.PREDICT_ROUTE)

        def total(family: str, sample: str, evaluation_routes: bool = False) -> float:
            return sum(
                value
                for name, labels, value in families.get(family, {}).get("samples", [])
                if name == sample and (not evaluation_routes or labels.get("route") in routes)
            )

        counters["cache.hits"] = total("engine_cache_hit_total", "engine_cache_hit_total")
        counters["cache.misses"] = total("engine_cache_miss_total", "engine_cache_miss_total")
        counters["latency.sum"] = total("service_latency_s", "service_latency_s_sum", True)
        counters["latency.count"] = total("service_latency_s", "service_latency_s_count", True)
        return counters

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)


def boot(name: str, repeats: int = 5) -> tuple[Server, float]:
    """Boot ``repeats`` servers, keep the last; returns it and the median boot."""
    boots = []
    for attempt in range(repeats):
        server = Server(name)
        boots.append(server.boot_s)
        if attempt + 1 < repeats:
            server.stop()
    return server, harness.median(boots)


def post(connection: http.client.HTTPConnection, request: dict) -> tuple[int, bytes]:
    body = json.dumps(request["payload"]).encode("utf-8")
    connection.request(
        "POST", request["route"], body=body,
        headers={"Content-Type": "application/json", "Content-Length": str(len(body))},
    )
    response = connection.getresponse()
    return response.status, response.read()


class Record:
    """One request as the client saw it (``perf_counter`` stamps).

    The response is kept as bytes and decoded only when the checks read
    it, so the client spends as little CPU as it can while measuring.
    """

    __slots__ = ("index", "due", "sent", "done", "status", "raw")

    def __init__(self, index: int, due: float):
        self.index, self.due = index, due
        self.sent = self.done = 0.0
        self.status, self.raw = 0, b""

    def send(self, connection, request: dict) -> None:
        self.sent = time.perf_counter()
        try:
            self.status, self.raw = post(connection, request)
        except (OSError, http.client.HTTPException):
            self.status, self.raw = 599, b""
        self.done = time.perf_counter()

    @property
    def body(self) -> dict | None:
        try:
            return json.loads(self.raw)
        except ValueError:
            return None


def closed_loop(server: Server, requests: list[dict], seconds: float | None) -> list[Record]:
    """``CONNECTIONS`` clients, each sending its next request on a reply.

    Stops taking requests after ``seconds`` (or when the list runs out).
    Each record's ``due`` is its send time.
    """
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    records: list[Record] = []
    start = time.perf_counter()

    def client() -> None:
        connection = server.connect()
        try:
            while seconds is None or time.perf_counter() - start < seconds:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                record = Record(index, time.perf_counter())
                record.send(connection, requests[index])
                with lock:
                    records.append(record)
                if record.status == 599:
                    connection.close()
                    connection = server.connect()
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda record: record.index)
    return records


def open_loop(
    server: Server, distinct: list[dict], schedule: list[tuple[float, int]]
) -> tuple[list[Record], float]:
    """Send each request when due, whatever is still in flight.

    This thread releases each request on schedule to a pool of
    connections; a request's latency runs from when it was due, so a
    stall delays every request queued behind it. Returns the records and
    the schedule's start stamp.
    """
    ready: queue.Queue = queue.Queue()
    records = [Record(n, 0.0) for n in range(len(schedule))]

    def worker() -> None:
        connection = server.connect()
        try:
            while (n := ready.get()) is not None:
                records[n].send(connection, distinct[schedule[n][1]])
                if records[n].status == 599:
                    connection.close()
                    connection = server.connect()
        finally:
            connection.close()

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
    workers = [threading.Thread(target=worker) for _ in range(OPEN_LOOP_WORKERS)]
    try:
        for thread in workers:
            thread.start()
        start = time.perf_counter() + 0.05
        for n, (offset, _) in enumerate(schedule):
            records[n].due = start + offset
            pause = records[n].due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            ready.put(n)
    finally:
        for _ in workers:
            ready.put(None)
        for thread in workers:
            if thread.is_alive():
                thread.join()
        sys.setswitchinterval(switch_interval)
    return records, start


def _task(request: dict) -> EvaluationTask:
    payload = request["payload"]
    return EvaluationTask(
        label=payload["workload"],
        max_invocations=payload["cap"],
        methods=(MethodRequest(payload["method"]),),
    )


def _kind(request: dict) -> str:
    return "predict" if request["route"] == protocol.PREDICT_ROUTE else "select"


def _rows(request: dict) -> int:
    payload = request["payload"]
    return min(payload["cap"], spec_for(payload["workload"]).num_invocations)


def reevaluate(requests: list[dict], trace: bool, out: harness.Outcome) -> list[dict]:
    """Evaluate ``requests`` in this process; returns their response bodies.

    In a traced run each task first runs isolated (a forked child, as the
    server runs it) and then in process, so both sides build the context;
    the results also go through a cache put and get and the protocol
    encoders, all under the layer timers.
    """
    cache = ResultCache(harness.fresh_dir("reevaluate-cache"))
    engine = EvaluationEngine(EngineConfig(jobs=1, use_cache=False))
    isolated, inprocess, bodies = [], [], []
    for request in requests:
        task = _task(request)
        if trace:
            start = time.perf_counter()
            outcome = engine.run_isolated([task])[0]
            isolated.append(time.perf_counter() - start)
            out.check(outcome.ok, f"isolated re-evaluation failed: {outcome.error}")
        start = time.perf_counter()
        results = run_task(task)
        inprocess.append(time.perf_counter() - start)
        key = task.cache_key()
        cache.put(key, results)
        out.check(cache.get(key) is not None, "cache lost a result")
        parsed = protocol.parse_request(_kind(request), request["payload"])
        body = {
            "kind": parsed.kind,
            "method": parsed.method,
            "workload": parsed.workload,
            **protocol.response_body(parsed, results[parsed.method]),
        }
        bodies.append(json.loads(protocol.canonical_json(body)))
    engine.close()
    if trace:
        isolated_ms = 1000 * sum(isolated) / len(isolated)
        inprocess_ms = 1000 * sum(inprocess) / len(inprocess)
        out.metrics["evaluation.isolated_task_ms"] = isolated_ms
        out.metrics["evaluation.inprocess_task_ms"] = inprocess_ms
        out.metrics["evaluation.isolation_overhead_ms"] = isolated_ms - inprocess_ms
    return bodies


def _overhead_ratio(requests: list[dict]) -> float:
    """Observability on/off for ``evaluate_method`` on the requests' contexts."""
    contexts = [
        build_context(r["payload"]["workload"], r["payload"]["cap"]) for r in requests
    ]

    def evaluate() -> None:
        for request, context in zip(requests, contexts):
            evaluate_method(request["payload"]["method"], context)

    return observability_overhead(evaluate, rounds=3)


def _sample(records: list[Record], seed: int) -> list[Record]:
    """A seeded sample of successful records to re-evaluate."""
    ok = [record for record in records if record.status == 200]
    picks = np.random.default_rng([seed, 7]).permutation(len(ok))[:REEVALUATED]
    return [ok[i] for i in sorted(picks)]


def _check_sample(bodies, expected, out) -> None:
    """Each served body that differs from its in-process twin is a failure."""
    for served, want in zip(bodies, expected):
        problems = checks.check_reevaluated(served, want)
        out.failed += bool(problems)
        for problem in problems:
            out.check(False, problem)


def _report(
    out: harness.Outcome,
    records: list[Record],
    requests: list[dict],
    window_s: float,
    before: dict,
    after: dict,
) -> dict[str, float]:
    """Client-side end-to-end metrics plus the server's counters."""
    latencies = [record.done - record.due for record in records]
    out.attempted = len(records)
    out.failed = sum(1 for record in records if not 200 <= record.status < 300)
    for problem in checks.check_responses([(r.status, r.body) for r in records]):
        out.check(False, problem)
    delta = {key: after[key] - before[key] for key in after}
    client_mean_ms = 1000 * sum(latencies) / len(latencies)
    server_mean_ms = 1000 * delta["latency.sum"] / max(delta["latency.count"], 1)
    lookups = delta["cache.hits"] + delta["cache.misses"]
    out.metrics.update(
        {
            "req_per_s": len(records) / window_s,
            "rows_per_s": sum(_rows(requests[r.index]) for r in records) / window_s,
            "latency_p50_ms": 1000 * harness.percentile(latencies, 50),
            "latency_p90_ms": 1000 * harness.percentile(latencies, 90),
            "resident_rows_peak": max(_rows(requests[r.index]) for r in records),
            "service.server_latency_mean_ms": server_mean_ms,
            "service.transport_ms": client_mean_ms - server_mean_ms,
            "service.batches": delta["dispatcher.batches"],
            "service.tasks_per_batch": delta["dispatcher.tasks"] / max(delta["dispatcher.batches"], 1),
            "service.coalesced_ratio": delta["dispatcher.coalesced"] / max(delta["dispatcher.requests"], 1),
            "evaluation.cache_hit_ratio": delta["cache.hits"] / lookups if lookups else 0.0,
        }
    )
    out.samples.update(latency_p50_ms=len(latencies), latency_p90_ms=len(latencies),
                       req_per_s=len(records), rows_per_s=len(records))
    return delta


def _traced_sample(out, requests, trace: bool) -> list[dict]:
    """Re-evaluate ``requests``; in a traced run, under the layer timers."""
    if not trace:
        return reevaluate(requests, False, out)
    mark = spans.mark()
    with LayerTracer() as tracer:
        start = time.perf_counter()
        bodies = reevaluate(requests, True, out)
        wall = time.perf_counter() - start
    out.metrics.update(tracer.metrics(wall))
    out.metrics["observability.span_records"] = len(spans.records(since=mark))
    out.metrics["service.protocol_ms"] = (
        1000 * tracer.timers["service.protocol"].inclusive_s / len(requests)
    )
    out.metrics["observability.overhead_ratio"] = _overhead_ratio(requests)
    return bodies


def run_cold(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    out = harness.Outcome()
    requests = inputs.cold_schedule(seed)
    server, boot_s = boot("service_cold")
    try:
        before = server.counters()
        start = time.perf_counter()
        records = closed_loop(server, requests, seconds)
        window_s = max(r.done for r in records) - start
        after = server.counters()
        out.metrics["peak_rss_mb"] = harness.peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    out.metrics["setup_s"] = boot_s
    delta = _report(out, records, requests, window_s, before, after)
    invalid = checks.cold_validity(delta)
    if invalid:
        raise harness.BenchError("cold run invalid: " + "; ".join(invalid))
    sample = _sample(records, seed)
    chosen = [requests[record.index] for record in sample]
    expected = _traced_sample(out, chosen, trace)
    _check_sample([record.body for record in sample], expected, out)
    return out


def run_warm(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    out = harness.Outcome()
    distinct, schedule = inputs.warm_schedule(seed, seconds)
    server, boot_s = boot("service_warm")
    try:
        start = time.perf_counter()
        prefill = closed_loop(server, distinct, None)
        prefill_s = time.perf_counter() - start
        for problem in checks.check_responses([(r.status, r.body) for r in prefill]):
            out.check(False, f"pre-fill {problem}")
        before = server.counters()
        records, start = open_loop(server, distinct, schedule)
        last_done = max(r.done for r in records)
        after = server.counters()
        out.metrics["peak_rss_mb"] = harness.peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    out.metrics["setup_s"] = boot_s + prefill_s
    warm_requests = [distinct[index] for _, index in schedule]
    window_s = last_done - start
    _report(out, records, warm_requests, window_s, before, after)
    late = [record.sent - record.due for record in records]
    # Not a gated metric: service_warm is not in BENCHMARK.json.
    out.notes["bench.generator_late_p90_ms"] = 1000 * harness.percentile(late, 90)
    drain_s = last_done - max(r.due for r in records)
    invalid = checks.warm_validity(out.metrics["evaluation.cache_hit_ratio"], drain_s, MAX_DRAIN_S)
    if invalid:
        raise harness.BenchError("warm run invalid: " + "; ".join(invalid))
    cold_bodies = {record.index: record.body for record in prefill}
    problems = checks.check_warm_bodies(
        [(schedule[r.index][1], r.body) for r in records if r.body is not None], cold_bodies
    )
    out.failed += len(problems)
    for problem in problems:
        out.check(False, problem)
    sample = _sample(prefill, seed)
    chosen = [distinct[record.index] for record in sample]
    expected = _traced_sample(out, chosen, trace)
    _check_sample([record.body for record in sample], expected, out)
    return out
