"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python -m pytest bench/smoke_check.py``.
It is kept out of the default test collection because it starts dozens of
interpreters.  Each workload runs once per trace mode with ``--smoke``; the
test checks the result line, not the timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload: str, trace: str) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "figures", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
