"""BENCHMARK.json matches the metric tables, and a checkout without the
program's source is refused without a result."""

import json
import shutil
import subprocess
import sys

from perfbench import harness


def _benchmark():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_measured_workloads_and_metrics():
    spec = _benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_1m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_stream_run_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_1m", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
