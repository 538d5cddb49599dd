"""Time-boxed smoke test for the sampling service (CI ``service-smoke``).

Boots a private server on an ephemeral port, replays a seeded loadgen
burst at 32 concurrent clients, and asserts the service-level objectives
the acceptance bar names:

* **zero 5xx** responses across the burst;
* **p99 latency** under a deliberately generous bound (this is a shared
  CI box, not a latency lab — the bound catches hangs and pathological
  serialization, not millisecond drift);
* ``GET /v1/metrics`` parses as valid Prometheus exposition text
  (:func:`repro.observability.export.parse_prometheus` is the strict
  validator);
* the resulting ``BENCH_service.json`` manifest is written for the
  ``check_bench_regression.py --figures service`` gate (CI runs the
  smoke three times and gates the runs against the stored baseline runs
  in ``benchmarks/perfstore``) and uploaded as a CI artifact.

A sequential warm-up pass touches every unique (workload, method, cap)
task first, so the measured burst exercises the dispatcher and cache
under concurrency rather than timing first-time evaluation cost.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py --out /tmp/manifests
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import tempfile
from pathlib import Path

from repro.observability.export import parse_prometheus
from repro.service import loadgen
from repro.service.server import ServiceConfig, start_in_thread

#: Fixed smoke parameters: the stored service baseline runs in
#: benchmarks/perfstore were recorded with exactly these, so CI's gate
#: compares like-for-like.
SEED = 2023
PATTERN = "poisson:200"
REQUESTS = 96
CLIENTS = 32
CAP = 400
WORKLOADS = ("rodinia/nw", "rodinia/lud", "rodinia/srad", "parboil/histo")
METHODS = ("sieve", "pks", "periodic", "random")


def build_schedule() -> tuple[loadgen.ScheduledRequest, ...]:
    mix = loadgen.RequestMix(
        workloads=WORKLOADS, methods=METHODS, cap=CAP, predict_fraction=0.5
    )
    return loadgen.generate_requests(
        loadgen.parse_pattern(PATTERN), mix, REQUESTS, seed=SEED
    )


def warm_up(host: str, port: int, schedule) -> int:
    """Evaluate every unique task once, serially; returns the count."""
    unique = {}
    for request in schedule:
        key = (request.payload["workload"], request.payload["method"])
        unique.setdefault(key, request)
    connection = http.client.HTTPConnection(host, port, timeout=300)
    try:
        for request in unique.values():
            body = json.dumps(request.payload).encode()
            connection.request(
                "POST",
                loadgen.protocol.PREDICT_ROUTE,
                body=body,
                headers={"Content-Length": str(len(body))},
            )
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise SystemExit(
                    f"warm-up request failed with HTTP {response.status} "
                    f"for {request.payload}"
                )
    finally:
        connection.close()
    return len(unique)


def check_metrics(host: str, port: int) -> int:
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", loadgen.protocol.METRICS_ROUTE)
        response = connection.getresponse()
        text = response.read().decode("utf-8")
    finally:
        connection.close()
    if response.status != 200:
        raise SystemExit(f"/v1/metrics returned HTTP {response.status}")
    families = parse_prometheus(text)  # raises ValueError on malformation
    for expected in ("service_requests_total", "service_latency_s"):
        if expected not in families:
            raise SystemExit(f"/v1/metrics is missing the {expected} family")
    return len(families)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, required=True,
        help="directory to write BENCH_service.json into",
    )
    parser.add_argument(
        "--p99-bound-s", type=float, default=5.0,
        help="generous p99 latency ceiling for the warm burst (default 5s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="engine supervisor threads inside each batch (default 2)",
    )
    args = parser.parse_args(argv)

    schedule = build_schedule()
    with tempfile.TemporaryDirectory(prefix="service-smoke-cache-") as cache:
        handle = start_in_thread(
            ServiceConfig(cache_dir=cache, jobs=args.jobs, deadline_s=300.0)
        )
        try:
            warmed = warm_up(handle.host, handle.port, schedule)
            print(f"warm-up: {warmed} unique tasks evaluated")
            report = loadgen.run_loadgen(
                handle.host, handle.port, schedule, clients=CLIENTS
            )
            families = check_metrics(handle.host, handle.port)
        finally:
            handle.stop()

    summary = report.summary()
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"/v1/metrics: {families} families, exposition valid")

    args.out.mkdir(parents=True, exist_ok=True)
    manifest = report.to_manifest()
    path = manifest.save(args.out / "BENCH_service.json")
    print(f"manifest: {path}")
    from repro.perfstore.store import maybe_record

    maybe_record(manifest, figure="service")

    failures = []
    if summary["http_5xx"] or summary["other"]:
        failures.append(
            f"{summary['http_5xx']} 5xx / {summary['other']} transport "
            "failures (must be 0)"
        )
    if summary["p99_s"] > args.p99_bound_s:
        failures.append(
            f"p99 {summary['p99_s']:.3f}s exceeds the {args.p99_bound_s}s bound"
        )
    if len(report.records) != REQUESTS:
        failures.append(
            f"only {len(report.records)}/{REQUESTS} requests completed"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: {REQUESTS} requests, {CLIENTS} clients, zero 5xx")
    return 0


if __name__ == "__main__":
    sys.exit(main())
