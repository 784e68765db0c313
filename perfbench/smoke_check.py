"""Smoke test of the benchmark: a tiny run of every workload, untraced and
traced, through the same command the benchmark is run with.

Run it explicitly (it is not part of the repository's test suite)::

    python3 -m pytest perfbench/smoke_check.py -q

Each run must exit 0, pass every output check, and report exactly the
metrics ``BENCHMARK.json`` declares for its mode, each with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The gated workloads, then those that run only on request.
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]] + ["serve-exact"]


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "2",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_and_every_check_passes(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert reported == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def test_run_without_program_sources_fails_without_a_result(tmp_path: Path) -> None:
    """A directory holding only the benchmark cannot import the program."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
