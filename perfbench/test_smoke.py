"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Shrinks every workload to a few small items and checks that a run prints
exactly the metrics BENCHMARK.json declares, with their units, in a last
line of the agreed shape; and that a copy holding only the benchmark,
without the library source, exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    workloads = run.load_library()
    monkeypatch.setattr(run, "MIN_ITEMS", 10)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads.PolygonRoundtrip, "n_range", (6, 9))
    monkeypatch.setattr(workloads.PolygonRoundtrip, "semiregular_k", range(3, 5))
    monkeypatch.setattr(workloads.ChordKernel, "n_range", (8, 32))
    monkeypatch.setattr(workloads.VariationCheck, "n_range", (1, 4))
    monkeypatch.setattr(workloads.VariationCheck, "m_range", (6, 7))
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (1 if trace else run.MIN_ITEMS)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") for line in lines)
    if trace:
        assert (tiny / f"trace-{workload}-seed3.json").is_file()


def test_fails_without_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
