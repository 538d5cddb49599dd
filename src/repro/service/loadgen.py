"""Request-generation load harness for the sampling service.

Modeled on the request-generator-engine pattern from the hopperkv
exemplar: a seeded *arrival pattern* (static, poisson or multi-phase
dynamic) is combined with a *request mix* (which workloads, methods and
request kinds) into a fully materialized, deterministic request
schedule; the schedule either replays against a live server under N
concurrent clients or round-trips through a JSONL trace file for later
byte-identical replay.

Determinism is the point: every random draw flows from one
:func:`~repro.utils.seeding.rng_for` generator in a fixed order, so the
same ``(pattern, mix, count, seed)`` tuple always yields the same
schedule — a property test pins this — and recorded traces are the
schedule's canonical serialization (``load_trace(save_trace(x)) == x``
byte-for-byte).

The measurement side (:func:`run_loadgen`) drives plain
:class:`http.client.HTTPConnection` clients on threads (keep-alive, one
connection per client), records per-request latency and status, and
summarizes into a :class:`LoadgenReport` whose
:meth:`~LoadgenReport.to_manifest` emits the ``BENCH_service.json``
:class:`~repro.observability.manifest.RunManifest` the bench-regression
gate consumes. Latency percentiles ride as synthetic stage rows (gated
like any wall time: rank test plus practical floor); the manifest
*aggregates* carry only deterministic counts, because the gate compares
them exactly.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.observability.manifest import RunManifest, StageStat
from repro.service import protocol
from repro.utils.errors import BadRequestError, ServiceError
from repro.utils.seeding import rng_for

# ------------------------------------------------------- arrival patterns


@dataclass(frozen=True)
class StaticPattern:
    """Uniform arrivals at a fixed rate (requests/second)."""

    rate: float

    def offsets(self, count: int, rng) -> list[float]:
        return [i / self.rate for i in range(count)]


@dataclass(frozen=True)
class PoissonPattern:
    """Poisson process arrivals with mean ``rate`` requests/second."""

    rate: float

    def offsets(self, count: int, rng) -> list[float]:
        gaps = rng.exponential(scale=1.0 / self.rate, size=count)
        offsets, now = [], 0.0
        for gap in gaps:
            offsets.append(now)
            now += float(gap)
        return offsets


@dataclass(frozen=True)
class DynamicPattern:
    """Piecewise-static phases: ``((rate, fraction_of_requests), ...)``."""

    phases: tuple[tuple[float, float], ...]

    def offsets(self, count: int, rng) -> list[float]:
        offsets, now = [], 0.0
        remaining = count
        for i, (rate, fraction) in enumerate(self.phases):
            n = round(count * fraction) if i < len(self.phases) - 1 else remaining
            n = min(n, remaining)
            for _ in range(n):
                offsets.append(now)
                now += 1.0 / rate
            remaining -= n
        return offsets


def parse_pattern(text: str) -> StaticPattern | PoissonPattern | DynamicPattern:
    """Parse ``static:50``, ``poisson:20`` or ``dynamic:10@0.3,200@0.7``."""
    kind, _, spec = text.partition(":")
    try:
        if kind == "static":
            return StaticPattern(rate=_positive(float(spec)))
        if kind == "poisson":
            return PoissonPattern(rate=_positive(float(spec)))
        if kind == "dynamic":
            phases = []
            for phase in spec.split(","):
                rate, _, fraction = phase.partition("@")
                phases.append((_positive(float(rate)), _positive(float(fraction))))
            total = sum(fraction for _, fraction in phases)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"phase fractions sum to {total}, need 1.0")
            return DynamicPattern(phases=tuple(phases))
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"bad arrival pattern {text!r}: {exc}") from exc
    raise BadRequestError(
        f"unknown arrival pattern kind {kind!r} (static|poisson|dynamic)"
    )


def _positive(value: float) -> float:
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


# ----------------------------------------------------------- request mix


@dataclass(frozen=True)
class RequestMix:
    """What the generated requests ask for."""

    workloads: tuple[str, ...]
    methods: tuple[str, ...] = ("sieve", "pks")
    cap: int | None = 400
    predict_fraction: float = 0.5  # rest are /v1/select


@dataclass(frozen=True)
class ScheduledRequest:
    """One materialized request: when, where and what to POST."""

    index: int
    offset_s: float
    route: str
    payload: dict

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "offset_s": self.offset_s,
            "route": self.route,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduledRequest":
        return cls(
            index=int(data["index"]),
            offset_s=float(data["offset_s"]),
            route=str(data["route"]),
            payload=dict(data["payload"]),
        )


def generate_requests(
    pattern: StaticPattern | PoissonPattern | DynamicPattern,
    mix: RequestMix,
    count: int,
    seed: int,
) -> tuple[ScheduledRequest, ...]:
    """Materialize a deterministic request schedule.

    All randomness (arrival gaps, workload/method/kind draws) comes from
    one seeded generator consumed in a fixed order: same arguments, same
    schedule, byte for byte.
    """
    if count < 1:
        raise BadRequestError(f"count must be >= 1, got {count}")
    if not mix.workloads:
        raise BadRequestError("request mix needs at least one workload")
    rng = rng_for("service.loadgen", seed)
    offsets = pattern.offsets(count, rng)
    workload_draws = rng.integers(0, len(mix.workloads), size=count)
    method_draws = rng.integers(0, len(mix.methods), size=count)
    kind_draws = rng.random(size=count)
    requests = []
    for i in range(count):
        predict = bool(kind_draws[i] < mix.predict_fraction)
        payload = {
            "workload": mix.workloads[int(workload_draws[i])],
            "method": mix.methods[int(method_draws[i])],
        }
        if mix.cap is not None:
            payload["cap"] = mix.cap
        requests.append(
            ScheduledRequest(
                index=i,
                offset_s=round(float(offsets[i]), 6),
                route=protocol.PREDICT_ROUTE if predict else protocol.SELECT_ROUTE,
                payload=payload,
            )
        )
    return tuple(requests)


# ------------------------------------------------------------ trace files


def save_trace(requests: tuple[ScheduledRequest, ...], path: str | Path) -> Path:
    """Write a schedule as canonical JSONL (sorted keys, one per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(request.to_dict(), sort_keys=True, separators=(",", ":"))
        for request in requests
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: str | Path) -> tuple[ScheduledRequest, ...]:
    """Read a schedule back; ``save_trace(load_trace(p))`` is a no-op."""
    path = Path(path)
    requests = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            requests.append(ScheduledRequest.from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed trace line: {exc}", path=str(path), line=lineno
            ) from exc
    return tuple(requests)


# ------------------------------------------------------------ measurement


@dataclass
class RequestRecord:
    """One completed request as the harness observed it."""

    index: int
    route: str
    status: int
    latency_s: float
    workload: str
    method: str
    error_value: float | None = None  # served prediction error (/v1/predict)
    from_cache: bool | None = None


@dataclass
class LoadgenReport:
    """A finished run: every record plus the derived summary numbers."""

    records: list[RequestRecord]
    duration_s: float
    clients: int
    pattern: str
    seed: int

    @property
    def latencies(self) -> list[float]:
        return [r.latency_s for r in self.records]

    def percentile(self, q: float) -> float:
        if not self.records:
            return 0.0
        return float(
            statistics.quantiles(self.latencies, n=100, method="inclusive")[
                min(98, max(0, round(q) - 1))
            ]
            if len(self.records) > 1
            else self.latencies[0]
        )

    def status_counts(self) -> dict[str, int]:
        counts = {"http_2xx": 0, "http_4xx": 0, "http_5xx": 0, "other": 0}
        for record in self.records:
            if 200 <= record.status < 300:
                counts["http_2xx"] += 1
            elif 400 <= record.status < 500:
                counts["http_4xx"] += 1
            elif 500 <= record.status < 600:
                counts["http_5xx"] += 1
            else:
                counts["other"] += 1
        return counts

    @property
    def throughput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return len(self.records) / self.duration_s

    def summary(self) -> dict:
        return {
            "requests": len(self.records),
            "clients": self.clients,
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_s": round(self.percentile(50), 6),
            "p90_s": round(self.percentile(90), 6),
            "p99_s": round(self.percentile(99), 6),
            **self.status_counts(),
        }

    def to_manifest(self) -> RunManifest:
        """The BENCH_service manifest for the regression gate.

        Aggregates hold only deterministic counts (the gate compares every
        numeric aggregate exactly, at ~1e-6 tolerance); wall-clock
        quantities ride as stage rows, which the gate compares like any
        wall time. Workload rows carry the served prediction errors — these
        are engine-deterministic, so drift there is a real regression.
        """
        counts = self.status_counts()
        errors_by_workload: dict[str, dict[str, float]] = {}
        for record in self.records:
            if record.error_value is not None:
                row = errors_by_workload.setdefault(record.workload, {})
                row[f"{record.method}_error"] = record.error_value
        workloads = tuple(
            {"workload": label, **fields}
            for label, fields in sorted(errors_by_workload.items())
        )
        stages = (
            StageStat(
                name="service.loadgen",
                count=len(self.records),
                wall_s=self.duration_s,
                self_s=self.duration_s,
                cpu_s=0.0,
                errors=counts["http_5xx"],
            ),
            StageStat(
                name="service.latency.p50",
                count=len(self.records),
                wall_s=self.percentile(50),
                self_s=self.percentile(50),
                cpu_s=0.0,
            ),
            StageStat(
                name="service.latency.p90",
                count=len(self.records),
                wall_s=self.percentile(90),
                self_s=self.percentile(90),
                cpu_s=0.0,
            ),
            StageStat(
                name="service.latency.p99",
                count=len(self.records),
                wall_s=self.percentile(99),
                self_s=self.percentile(99),
                cpu_s=0.0,
            ),
        )
        return RunManifest(
            command="loadgen",
            config={
                "clients": self.clients,
                "pattern": self.pattern,
                "seed": self.seed,
            },
            total_wall_s=self.duration_s,
            stages=stages,
            workloads=workloads,
            aggregates={
                "requests": float(len(self.records)),
                "clients": float(self.clients),
                "http_2xx": float(counts["http_2xx"]),
                "http_4xx": float(counts["http_4xx"]),
                "http_5xx": float(counts["http_5xx"]),
            },
            metrics={},
        )


@dataclass
class _SharedCursor:
    """Thread-safe next-request counter for closed-loop dispatch."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    next_index: int = 0

    def take(self, limit: int) -> int | None:
        with self.lock:
            if self.next_index >= limit:
                return None
            index = self.next_index
            self.next_index += 1
            return index


def _post_json(
    connection: http.client.HTTPConnection, route: str, payload: dict, timeout_s: float
) -> tuple[int, dict | None]:
    body = json.dumps(payload).encode("utf-8")
    connection.request(
        "POST",
        route,
        body=body,
        headers={"Content-Type": "application/json", "Content-Length": str(len(body))},
    )
    response = connection.getresponse()
    raw = response.read()
    try:
        decoded = json.loads(raw.decode("utf-8")) if raw else None
    except (UnicodeDecodeError, json.JSONDecodeError):
        decoded = None
    return response.status, decoded


def run_loadgen(
    host: str,
    port: int,
    requests: tuple[ScheduledRequest, ...],
    *,
    clients: int = 8,
    open_loop: bool = False,
    timeout_s: float = 60.0,
) -> LoadgenReport:
    """Replay a schedule against a live server with N concurrent clients.

    Closed-loop by default (each client takes the next request as soon
    as it finishes its last — maximum pressure); ``open_loop=True``
    honors the schedule's arrival offsets instead, sleeping until each
    request's release time and timing it from that release.
    """
    if clients < 1:
        raise BadRequestError(f"clients must be >= 1, got {clients}")
    cursor = _SharedCursor()
    per_thread: list[list[RequestRecord]] = [[] for _ in range(clients)]
    start_barrier = threading.Barrier(clients + 1)
    t_start: list[float] = [0.0]

    def client_loop(slot: int) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            start_barrier.wait()
            while True:
                index = cursor.take(len(requests))
                if index is None:
                    break
                request = requests[index]
                t0 = time.monotonic()
                if open_loop:
                    # Time from the scheduled release: a stall that holds
                    # this client back counts against the requests behind it.
                    t0 = t_start[0] + request.offset_s
                    delay = t0 - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                try:
                    status, decoded = _post_json(
                        connection, request.route, request.payload, timeout_s
                    )
                except (http.client.HTTPException, OSError):
                    # One reconnect attempt; count a persistent failure
                    # as status 0 so it can't masquerade as success.
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout_s
                    )
                    try:
                        status, decoded = _post_json(
                            connection, request.route, request.payload, timeout_s
                        )
                    except (http.client.HTTPException, OSError):
                        status, decoded = 0, None
                latency = time.monotonic() - t0
                record = RequestRecord(
                    index=request.index,
                    route=request.route,
                    status=status,
                    latency_s=latency,
                    workload=str(request.payload.get("workload", "inline")),
                    method=str(request.payload.get("method", "sieve")),
                )
                if decoded is not None and status == 200:
                    telemetry = decoded.get("telemetry") or {}
                    record.from_cache = telemetry.get("from_cache")
                    if request.route == protocol.PREDICT_ROUTE:
                        result = decoded.get("result") or {}
                        if isinstance(result.get("error"), (int, float)):
                            record.error_value = float(result["error"])
                per_thread[slot].append(record)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client_loop, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    t_start[0] = time.monotonic()
    wall0 = time.perf_counter()
    start_barrier.wait()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - wall0

    records = sorted(
        (record for bucket in per_thread for record in bucket),
        key=lambda record: record.index,
    )
    return LoadgenReport(
        records=records,
        duration_s=duration,
        clients=clients,
        pattern="replay",
        seed=0,
    )
