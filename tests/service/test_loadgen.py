"""Loadgen determinism, trace round-trips and the live harness."""

from __future__ import annotations

import http.server
import threading
import time

import pytest

from repro.service import loadgen, protocol
from repro.utils.errors import BadRequestError, ServiceError

MIX = loadgen.RequestMix(
    workloads=("rodinia/nw", "rodinia/lud"),
    methods=("periodic", "random"),
    cap=200,
    predict_fraction=0.5,
)


@pytest.mark.parametrize(
    "pattern", ["static:50", "poisson:80", "dynamic:10@0.25,200@0.75"]
)
def test_same_seed_same_schedule(pattern):
    first = loadgen.generate_requests(
        loadgen.parse_pattern(pattern), MIX, 24, seed=7
    )
    second = loadgen.generate_requests(
        loadgen.parse_pattern(pattern), MIX, 24, seed=7
    )
    assert first == second
    different = loadgen.generate_requests(
        loadgen.parse_pattern(pattern), MIX, 24, seed=8
    )
    assert first != different


def test_schedule_shape():
    requests = loadgen.generate_requests(
        loadgen.parse_pattern("static:100"), MIX, 20, seed=0
    )
    assert len(requests) == 20
    assert [request.index for request in requests] == list(range(20))
    offsets = [request.offset_s for request in requests]
    assert offsets == sorted(offsets)
    routes = {request.route for request in requests}
    assert routes <= {protocol.SELECT_ROUTE, protocol.PREDICT_ROUTE}
    for request in requests:
        assert request.payload["workload"] in MIX.workloads
        assert request.payload["method"] in MIX.methods
        assert request.payload["cap"] == 200


def test_dynamic_pattern_phases_cover_all_requests():
    pattern = loadgen.parse_pattern("dynamic:10@0.5,100@0.5")
    offsets = pattern.offsets(10, None)
    assert len(offsets) == 10
    # First phase spaces at 1/10 s, second at 1/100 s.
    assert offsets[1] - offsets[0] == pytest.approx(0.1)
    assert offsets[9] - offsets[8] == pytest.approx(0.01)


@pytest.mark.parametrize(
    "text",
    ["static:0", "poisson:-3", "bursty:5", "dynamic:10@0.5", "static:abc"],
)
def test_bad_patterns_are_rejected(text):
    with pytest.raises(BadRequestError):
        loadgen.parse_pattern(text)


def test_trace_round_trips_byte_identically(tmp_path):
    requests = loadgen.generate_requests(
        loadgen.parse_pattern("poisson:60"), MIX, 16, seed=3
    )
    path = tmp_path / "trace.jsonl"
    loadgen.save_trace(requests, path)
    recorded = path.read_bytes()
    loaded = loadgen.load_trace(path)
    assert loaded == requests
    loadgen.save_trace(loaded, path)
    assert path.read_bytes() == recorded


def test_malformed_trace_raises_typed_error(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"index": 0}\n')
    with pytest.raises(ServiceError, match="malformed trace"):
        loadgen.load_trace(path)


def test_report_summary_and_manifest_shape():
    records = [
        loadgen.RequestRecord(
            index=i,
            route=protocol.PREDICT_ROUTE if i % 2 else protocol.SELECT_ROUTE,
            status=200 if i < 9 else 503,
            latency_s=0.01 * (i + 1),
            workload="rodinia/nw",
            method="periodic",
            error_value=0.05 if i % 2 else None,
        )
        for i in range(10)
    ]
    report = loadgen.LoadgenReport(
        records=records, duration_s=0.5, clients=4, pattern="static:10", seed=1
    )
    summary = report.summary()
    assert summary["requests"] == 10
    assert summary["http_2xx"] == 9 and summary["http_5xx"] == 1
    assert summary["p50_s"] <= summary["p90_s"] <= summary["p99_s"]
    assert summary["throughput_rps"] == pytest.approx(20.0)

    manifest = report.to_manifest()
    assert [stage.name for stage in manifest.stages] == [
        "service.loadgen",
        "service.latency.p50",
        "service.latency.p90",
        "service.latency.p99",
    ]
    # Aggregates must stay deterministic (counts only) — the regression
    # gate diffs every numeric aggregate at ~1e-6 tolerance.
    assert manifest.aggregates == {
        "requests": 10.0,
        "clients": 4.0,
        "http_2xx": 9.0,
        "http_4xx": 0.0,
        "http_5xx": 1.0,
    }
    assert manifest.workloads == (
        {"workload": "rodinia/nw", "periodic_error": 0.05},
    )
    assert manifest.stages[0].errors == 1


def test_live_run_sustains_32_clients_with_zero_5xx(service):
    requests = loadgen.generate_requests(
        loadgen.parse_pattern("poisson:200"), MIX, 48, seed=5
    )
    report = loadgen.run_loadgen(
        service.host, service.port, requests, clients=32
    )
    assert len(report.records) == 48
    counts = report.status_counts()
    assert counts["http_2xx"] == 48
    assert counts["http_5xx"] == 0 and counts["other"] == 0
    assert report.duration_s > 0
    # Served prediction errors land in the manifest's workload rows.
    manifest = report.to_manifest()
    assert manifest.aggregates["http_5xx"] == 0.0
    assert all(set(row) > {"workload"} for row in manifest.workloads)


def test_open_loop_honors_offsets(service):
    requests = loadgen.generate_requests(
        loadgen.parse_pattern("static:40"), MIX, 8, seed=2
    )
    report = loadgen.run_loadgen(
        service.host, service.port, requests, clients=4, open_loop=True
    )
    assert report.status_counts()["http_2xx"] == 8
    # 8 requests at 40 rps = last release at 0.175s; the run can't
    # finish faster than the schedule allows.
    assert report.duration_s >= 0.15


class _StallFirstHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with ``{}``; the first one only after a stall."""

    protocol_version = "HTTP/1.1"
    stall_s = 0.3
    served = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if type(self).served == 0:
            time.sleep(self.stall_s)
        type(self).served += 1
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_latency_counts_a_stall_ahead_in_the_queue():
    """Two requests released together behind one client: the second waits
    out the first one's stall, so its latency must include it."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StallFirstHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    requests = tuple(
        loadgen.ScheduledRequest(
            index=i,
            offset_s=0.0,
            route=protocol.SELECT_ROUTE,
            payload={"workload": "rodinia/nw", "method": "periodic"},
        )
        for i in range(2)
    )
    try:
        report = loadgen.run_loadgen(
            *server.server_address[:2], requests, clients=1, open_loop=True
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    first, second = report.records
    assert first.status == second.status == 200
    assert first.latency_s >= _StallFirstHandler.stall_s
    assert second.latency_s >= _StallFirstHandler.stall_s
