"""Smoke runs of the benchmark with a handful of ops.

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
OPS = 20


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "60", "--trace", str(trace), "--ops", str(OPS)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    out = result(run(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] == OPS
    assert out["failed"] == 0
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = out["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_with_the_seed(workload):
    first, second = (result(run(workload, trace=1, seed=5))["metrics"] for _ in range(2))
    counts = {name for name in first if name.endswith((".calls", ".ryser_terms"))}
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())
    mapped = [name for layer in layer_map["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(spec["name"] for spec in BENCHMARK["per_layer"])
    for layer in layer_map["layers"]:
        assert set(layer["moves"]) <= {spec["name"] for spec in BENCHMARK["end_to_end"]}
        assert set(layer["on"]) | set(layer["no_change_on"]) <= set(WORKLOADS)
    assert all(set(on) <= set(WORKLOADS) for on in layer_map["functions"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
