"""CLI telemetry exports: ``trace export`` and ``attribute``."""

import json

import pytest

from repro.cli import main
from repro.observability import metrics, spans
from repro.observability.export import read_jsonl_spans
from repro.observability.manifest import RunManifest


@pytest.fixture(autouse=True)
def _clean_telemetry():
    spans.reset()
    spans.clear_sinks()
    metrics.get_registry().reset()
    yield
    spans.reset()
    spans.clear_sinks()
    metrics.get_registry().reset()


# --------------------------------------------------------------------- #
# trace export


def test_trace_export_chrome(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main([
        "--cap", "500", "trace", "export", "cactus/gru",
        "--format", "chrome", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    trace = json.loads(out.read_text())
    events = trace["traceEvents"]
    assert any(e.get("ph") == "X" and e["name"] == "sieve.stratify" for e in events)
    assert any(e.get("ph") == "M" for e in events)


def test_trace_export_jsonl_is_canonical(tmp_path, capsys):
    out = tmp_path / "spans.jsonl"
    assert main([
        "--cap", "500", "trace", "export", "cactus/gru",
        "--format", "jsonl", "--out", str(out), "--structural",
    ]) == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines
    paths = [(line["path"], line["seq"]) for line in lines]
    assert paths == sorted(paths)
    assert all("wall_s" not in line for line in lines)


def test_trace_export_prometheus(tmp_path, capsys):
    out = tmp_path / "metrics.prom"
    assert main([
        "--cap", "500", "trace", "export", "cactus/gru",
        "--format", "prometheus", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert "# TYPE" in text


def test_trace_export_from_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "m.json"
    assert main([
        "--cap", "500", "--trace-out", str(manifest_path),
        "sample", "cactus/gru",
    ]) == 0
    capsys.readouterr()
    manifest = RunManifest.load(manifest_path)
    assert manifest.spans  # --trace-out now embeds the span window

    out = tmp_path / "trace.json"
    assert main([
        "trace", "export", "--from-manifest", str(manifest_path),
        "--format", "chrome", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    trace = json.loads(out.read_text())
    durations = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    assert len(durations) == len(manifest.spans)


def test_trace_export_from_spanless_manifest_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "empty.json"
    RunManifest(command="x").save(path)
    assert main([
        "trace", "export", "--from-manifest", str(path), "--format", "chrome",
        "--out", str(tmp_path / "out.json"),
    ]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------- #
# attribute


def test_attribute_renders_tables_and_json(tmp_path, capsys):
    out = tmp_path / "attr.json"
    assert main([
        "--cap", "500", "attribute", "cactus/gru", "--json", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "attribution cactus/gru · sieve" in text
    assert "signed error" in text
    payload = json.loads(out.read_text())
    assert {entry["method"] for entry in payload} >= {"sieve"}
    for entry in payload:
        total = sum(k["contribution"] for k in entry["per_kernel"])
        assert abs(total - entry["signed_error"]) <= 1e-9 * abs(entry["signed_error"]) + 1e-12


def test_attribute_from_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "m.json"
    assert main([
        "--cap", "500", "--trace-out", str(manifest_path),
        "sample", "cactus/gru",
    ]) == 0
    capsys.readouterr()
    assert RunManifest.load(manifest_path).attribution

    assert main(["attribute", "--from-manifest", str(manifest_path)]) == 0
    text = capsys.readouterr().out
    assert "attribution cactus/gru" in text


# --------------------------------------------------------------------- #
# --stream-spans


def test_stream_spans_writes_live_jsonl(tmp_path, capsys):
    stream = tmp_path / "live.jsonl"
    assert main([
        "--cap", "500", "--stream-spans", str(stream), "sample", "cactus/gru",
    ]) == 0
    capsys.readouterr()
    records = read_jsonl_spans(stream)
    assert records
    assert {r.name for r in records} >= {"sieve.stratify", "sieve.selection"}
    # The sink was unregistered on exit; later spans don't leak into it.
    size = stream.stat().st_size
    with spans.span("after.exit"):
        pass
    assert stream.stat().st_size == size
