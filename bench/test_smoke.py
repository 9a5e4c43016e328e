"""Smoke test of the benchmark: tiny request lists, every workload, both modes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_reports_every_metric():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "all", "--seed", "7", "--seconds", "0.2",
                    "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
        assert result["attempted"] >= 1
        names = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec[key]}
        assert set(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            declared = next(m for m in spec[key] if name.endswith("." + m["name"]))
            assert metric["unit"] == declared["unit"], name


def test_single_workload_output_matches_contract():
    spec = _spec()
    proc = _run(ROOT, "--workload", "series_race", "--seed", "3", "--seconds", "0.2",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "classic_mix", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
