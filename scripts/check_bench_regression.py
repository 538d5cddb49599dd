"""Gate benchmark manifests against the committed performance store.

Each CI regression job runs a bench or smoke N times with
``SIEVE_BENCH_MANIFEST_DIR`` set (run 1 writes ``BENCH_<figure>.json``,
runs 2..N are renamed to ``BENCH_<figure>.<i>.json``) and then runs
this script. For each figure it gates the N current runs against every
stored run of the baseline version with
:func:`repro.perfstore.gate.gate_manifests`:

* wall times (total and per stage) by rank test plus a practical floor
  (``--min-ratio``, ``--min-seconds``), or the labeled single-sample
  fallback (``--max-slowdown``) when a side has one run;
* seed-deterministic fields (every workload ``*_error``, every numeric
  aggregate) exactly, in both directions, whatever the run count.

It exits 1 when a figure regresses or drifts, or when its current runs
or its stored baseline are missing.

The baseline store defaults to the committed ``benchmarks/perfstore``
snapshot; the baseline version is ``--against REV`` or, per figure, the
newest stored version that has that figure. To refresh a baseline, run
the CI recipe (discarded warm-up, then at least three runs) on the new
reference commit and record the runs into the snapshot::

    sieve-repro perf ingest --store benchmarks/perfstore \\
        --figure fig3 BENCH_fig3.json BENCH_fig3.2.json BENCH_fig3.3.json

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py \\
        --current-dir /tmp/manifests --figures fig3 fig6 --repeat 3
    PYTHONPATH=src python scripts/check_bench_regression.py \\
        --current-dir service-manifests --figures service --repeat 3 \\
        --min-ratio 5.0 --min-seconds 0.25
    PYTHONPATH=src python scripts/check_bench_regression.py --self-test

``--self-test`` proves the gate has teeth on each figure's stored
baseline runs, at n=1 and n=3 current runs: an injected 2x wall
slowdown must fail, jittered same-speed reruns must pass, and injected
deterministic drift must fail — one workload ``*_error`` x1.005, and one
aggregate moved the way a lower-is-better test would wave through
(``picks_identical`` 1 -> 0, ``sieve_hmean`` x0.5, ``http_2xx`` 96 -> 90).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.observability.manifest import RunManifest
from repro.perfstore import (
    PerfStore,
    current_version,
    gate_manifests,
    render_gate_report,
)
from repro.utils.errors import PerfStoreError

BASELINE_STORE = Path(__file__).resolve().parent.parent / "benchmarks/perfstore"
GATED_FIGURES = ("fig3", "fig6", "scale", "service", "streaming")

#: Deterministic ±3% run-to-run jitter for the self-test's reruns.
_RERUN_JITTER = (0.98, 1.01, 1.02)

#: Self-test aggregate drift per figure: (aggregate, factor). Each moves
#: the value *down*, which a lower-is-better wall test reads as better.
_AGGREGATE_DRIFT = {
    "fig3": ("sieve_avg", 0.5),
    "fig6": ("sieve_hmean", 0.5),
    "scale": ("num_strata", 0.5),
    "service": ("http_2xx", 90 / 96),
    "streaming": ("picks_identical", 0.0),
}


def _current_runs(directory: Path, figure: str, repeat: int) -> list[RunManifest]:
    """Runs 1..``repeat`` (run 1 keeps the unsuffixed name); all must exist."""
    paths = [
        directory / (f"BENCH_{figure}.json" if i == 1 else f"BENCH_{figure}.{i}.json")
        for i in range(1, repeat + 1)
    ]
    missing = [path.name for path in paths if not path.exists()]
    if missing:
        print(f"[{figure}] missing current manifest(s) in {directory}: "
              f"{', '.join(missing)}; did the bench run with "
              f"SIEVE_BENCH_MANIFEST_DIR set?")
        return []
    return [RunManifest.load(path) for path in paths]


def _baseline_runs(
    store: PerfStore, against: str | None, figure: str
) -> tuple[str, list[RunManifest]]:
    """``(version label, runs)`` of the baseline version for ``figure``."""
    version = store.resolve(against) if against else store.latest_version(figure)
    if version is None:
        return "", []
    return version[:12], [run.manifest for run in store.runs(version, figure)]


def _gate(args, baseline: list[RunManifest], current: list[RunManifest], **labels):
    return gate_manifests(
        baseline,
        current,
        alpha=args.alpha,
        min_ratio=args.min_ratio,
        min_seconds=args.min_seconds,
        fallback_slowdown=args.max_slowdown,
        **labels,
    )


def _check(args) -> int:
    store = PerfStore(args.baseline_store)
    current_label = current_version()[:12]
    failures = 0
    for figure in args.figures:
        current = _current_runs(args.current_dir, figure, args.repeat)
        try:
            label, baseline = _baseline_runs(store, args.against, figure)
        except PerfStoreError as exc:
            print(f"[{figure}] {exc}")
            label, baseline = "", []
        if not baseline:
            print(f"[{figure}] no stored baseline runs in {store.root}")
        if not (current and baseline):
            failures += 1
            continue
        report = _gate(
            args,
            baseline,
            current,
            baseline_label=label,
            current_label=current_label,
            figure=figure,
        )
        print(f"=== {figure} ===")
        print(render_gate_report(report))
        print()
        if report.regressed:
            failures += 1
    if failures:
        print(f"FAIL: {failures} figure(s) regressed or missing")
        return 1
    print(f"OK: {len(args.figures)} figure(s) within tolerance")
    return 0


def _scaled(manifest: RunManifest, factor: float) -> RunManifest:
    """A synthetic run whose every wall time is ``factor``x the original."""
    return dataclasses.replace(
        manifest,
        total_wall_s=manifest.total_wall_s * factor,
        stages=tuple(
            dataclasses.replace(
                stage, wall_s=stage.wall_s * factor, self_s=stage.self_s * factor
            )
            for stage in manifest.stages
        ),
    )


def _error_drift(manifest: RunManifest, key: tuple[str, str]) -> RunManifest:
    workload, field = key
    rows = tuple(
        {**row, field: row[field] * 1.005} if row.get("workload") == workload else row
        for row in manifest.workloads
    )
    return dataclasses.replace(manifest, workloads=rows)


def _aggregate_drift(manifest: RunManifest, key: str, factor: float) -> RunManifest:
    return dataclasses.replace(
        manifest, aggregates={**manifest.aggregates, key: manifest.aggregates[key] * factor}
    )


def _self_test_cases(figure: str, runs: list[RunManifest]):
    """``(label, transform, failing kinds)``; empty kinds = must pass."""
    walls = {"total-wall", "stage-wall"}
    yield "2x wall slowdown", lambda m, j: _scaled(m, 2.0 * j), walls
    yield "jittered same-speed reruns", _scaled, set()
    row = runs[0].workloads[0] if runs[0].workloads else {}
    errors = sorted(k for k, v in row.items() if k.endswith("_error") and v)
    field = "sieve_error" if "sieve_error" in errors else next(iter(errors), None)
    if field is None:
        print(f"[{figure}] no workload *_error field; error-drift case skipped")
    else:
        error = (row["workload"], field)
        yield (
            f"{error[0]}.{field} x1.005",
            lambda m, j: _error_drift(m, error),
            {"accuracy"},
        )
    key, factor = _AGGREGATE_DRIFT[figure]
    before = runs[0].aggregates[key]
    yield (
        f"{key} {before:g} -> {before * factor:g}",
        lambda m, j: _aggregate_drift(m, key, factor),
        {"aggregate"},
    )


def _self_test(args) -> int:
    """The gate must catch every injected fault on every stored baseline."""
    store = PerfStore(args.baseline_store)
    failures = 0
    for figure in args.figures:
        _, runs = _baseline_runs(store, args.against, figure)
        if len(runs) < 3:
            print(f"[{figure}] SELF-TEST FAILED: {len(runs)} stored baseline "
                  f"run(s) in {store.root}; need at least 3")
            failures += 1
            continue
        for name, transform, kinds in _self_test_cases(figure, runs):
            for n in (1, 3):
                current = [transform(m, j) for m, j in zip(runs[:n], _RERUN_JITTER)]
                report = _gate(args, runs[:n], current, figure=figure)
                failed = {row.kind for row in report.failures}
                ok = failed <= kinds and bool(failed) == bool(kinds)
                verdict = "caught" if kinds else "passed"
                if ok:
                    print(f"[{figure}] self-test OK (n={n}): {name} {verdict}")
                else:
                    print(f"[{figure}] SELF-TEST FAILED (n={n}): {name} should "
                          f"{'fail ' + '/'.join(sorted(kinds)) if kinds else 'pass'}"
                          f", failing rows: {sorted(failed) or 'none'}")
                    failures += 1
    if failures:
        print(f"FAIL: {failures} self-test case(s) failed")
        return 1
    print(f"OK: the gate catches every injected fault on {len(args.figures)} "
          f"figure(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current-dir", type=Path, default=None,
        help="directory with freshly produced BENCH_<figure>.json files",
    )
    parser.add_argument(
        "--figures", nargs="+", default=list(GATED_FIGURES),
        help=f"figures to gate (default: {' '.join(GATED_FIGURES)})",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="number of current runs per figure: run 1 is "
        "BENCH_<figure>.json, runs 2..N are BENCH_<figure>.<i>.json "
        "(default 1)",
    )
    parser.add_argument(
        "--baseline-store", type=Path, default=BASELINE_STORE,
        help=f"store holding the baseline runs (default {BASELINE_STORE})",
    )
    parser.add_argument(
        "--against", default=None,
        help="baseline revision in the baseline store (default: per figure, "
        "the newest stored version that has it)",
    )
    parser.add_argument(
        "--alpha", type=float, default=0.05,
        help="rank-test significance level (default 0.05)",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=1.10,
        help="practical floor: median wall-time slowdown ratio (default 1.10)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="practical floor: absolute median wall-time slowdown "
        "(default 0.05s)",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=1.25,
        help="wall-time ratio tolerated when a side has a single run "
        "(default 1.25)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the gate catches injected slowdowns and drift on each "
        "figure's stored baseline runs",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return _self_test(args)
    if args.current_dir is None:
        parser.error("--current-dir is required unless --self-test")
    return _check(args)


if __name__ == "__main__":
    sys.exit(main())
