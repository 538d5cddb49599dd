"""The committed baseline snapshot (``benchmarks/perfstore``).

It is the one baseline store the CI regression gate reads: every figure
CI gates needs at least three stored runs of one version, and because
the pipeline is seed-deterministic, those runs must agree exactly on
every field the gate compares exactly.
"""

import re
from pathlib import Path

import pytest

from repro.perfstore import PerfStore

ROOT = Path(__file__).resolve().parents[2]
SNAPSHOT = ROOT / "benchmarks" / "perfstore"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
GATED_FIGURES = ("fig3", "fig6", "scale", "service", "streaming")


def _deterministic_fields(manifest):
    errors = {
        (row.get("workload"), key): value
        for row in manifest.workloads
        for key, value in row.items()
        if key.endswith("_error")
    }
    aggregates = {
        key: value
        for key, value in manifest.aggregates.items()
        if isinstance(value, (int, float))
    }
    return errors, aggregates


def test_ci_gates_exactly_the_snapshot_figures():
    gated = set()
    for match in re.finditer(r"--figures\s+([\w ]+)", CI_WORKFLOW.read_text()):
        gated.update(match.group(1).split())
    assert gated == set(GATED_FIGURES)


@pytest.mark.parametrize("figure", GATED_FIGURES)
def test_snapshot_has_three_agreeing_runs(figure):
    store = PerfStore(SNAPSHOT)
    version = store.latest_version(figure)
    assert version is not None, f"no stored {figure} baseline"
    runs = [run.manifest for run in store.runs(version, figure)]
    assert len(runs) >= 3
    first = _deterministic_fields(runs[0])
    assert first[0] or first[1], "nothing deterministic to gate"
    for run in runs[1:]:
        assert _deterministic_fields(run) == first
