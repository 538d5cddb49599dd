"""Telemetry-export smoke check (run in CI).

Drives the three export surfaces end-to-end on one reduced-scale
workload and asserts the invariants the exporters promise:

* the Chrome trace parses as JSON, every duration event sits inside its
  parent track's time range, and the span count matches the window;
* the canonical JSONL export is byte-identical across two identical
  runs when compared structurally (timings stripped);
* the Prometheus text covers every counter/gauge/histogram in the
  registry snapshot;
* per-kernel error attributions sum to each method's signed error.

Usage::

    PYTHONPATH=src python scripts/export_smoke.py [--cap N] [--workload W]

Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.observability import metrics as obs_metrics
from repro.observability import spans as obs_spans
from repro.observability.export import (
    canonical_events,
    chrome_trace,
    export_jsonl,
    prometheus_text,
)


def run_once(context):
    """One sieve+pks evaluation; returns (results, evaluate-span window).

    The context is built by the caller: its generation spans are memoized
    away on repeat builds, so only the evaluate window is comparable
    across runs.
    """
    mark = obs_spans.mark()
    results = [evaluate_method(m, context) for m in ("sieve", "pks")]
    return results, obs_spans.records(since=mark)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap", type=int, default=800)
    parser.add_argument("--workload", default="cactus/gru")
    args = parser.parse_args(argv)

    failures: list[str] = []

    context = build_context(args.workload, max_invocations=args.cap)
    results, window = run_once(context)

    trace = chrome_trace(window)
    trace = json.loads(json.dumps(trace))  # must survive a JSON round-trip
    durations = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    if len(durations) != len(window):
        failures.append(
            f"chrome trace has {len(durations)} duration events for "
            f"{len(window)} spans"
        )
    for event in durations:
        if event["dur"] < 0 or event["ts"] < 0:
            failures.append(f"negative ts/dur in chrome event {event['name']}")
            break

    snapshot = obs_metrics.get_registry().snapshot()
    text = prometheus_text(snapshot)
    for kind in ("counters", "gauges"):
        for key in snapshot.get(kind, {}):
            base = key.split("{", 1)[0].replace(".", "_")
            if base not in text:
                failures.append(f"prometheus text is missing {kind[:-1]} {key!r}")

    first = export_jsonl(window, structural=True)
    _, window2 = run_once(context)
    second = export_jsonl(window2, structural=True)
    if first != second:
        failures.append("structural JSONL export differs between identical runs")

    for result in results:
        attribution = result.attribution
        if attribution is None:
            failures.append(f"{result.method}: no attribution attached")
            continue
        total = sum(k.contribution for k in attribution.per_kernel)
        if not math.isclose(total, attribution.signed_error, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(
                f"{result.method}: per-kernel contributions sum to {total}, "
                f"signed error is {attribution.signed_error}"
            )

    events = canonical_events(window, structural=True)
    print(
        f"export smoke: {len(window)} spans, {len(events)} canonical events, "
        f"{len(durations)} chrome durations, {len(results)} attributions"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("export smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
