"""Schema of the benchmark declaration and of the recorded BENCH_*.json sweeps.

Reads the JSON files only; runs no benchmark.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_declaration():
    assert SPEC["command"] and SPEC["paths"] and SPEC["run_seconds"] > 0
    assert WORKLOADS and len(set(WORKLOADS)) == len(WORKLOADS)
    assert all(w["why"] for w in SPEC["workloads"])
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert names and len(set(names)) == len(names)
        for m in SPEC[group]:
            assert m["unit"] and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0.0 < m["bound"] < 1.0


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_recorded_sweep(path):
    data = json.loads(path.read_text())
    assert data["seconds"] == SPEC["run_seconds"]
    assert sorted(data["runs"]) == sorted(WORKLOADS)
    for runs in data["runs"].values():
        assert runs
        for run in runs:
            assert isinstance(run["correct"], bool)
            assert 0 <= run["failed"] <= run["attempted"]
            units = {name: m["unit"] for name, m in run["metrics"].items()}
            assert units == METRICS
            assert all(isinstance(m["value"], (int, float)) for m in run["metrics"].values())
