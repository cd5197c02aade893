"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Runs every workload at the smoke size, untraced and traced, and checks
that the last line names exactly the metrics BENCHMARK.json lists, with
their units, and that no operation failed. It takes about a minute.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace),
                     "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert result["correct"] and result["attempted"] > 0
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["error_rate"] == 0
        # self times of all layers account for the traced wall time
        assert 0.9 < metrics["span_coverage_frac"] <= 1.0
    else:
        assert metrics["success_rate"] == 1
        assert all(value > 0 for value in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
