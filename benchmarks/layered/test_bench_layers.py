"""Self-test of the layered benchmark at tiny scale (``--smoke``).

Runs the benchmark as a regression gate would, as a subprocess from
the repository root, and checks its contract: every metric of
``BENCHMARK.json`` is reported with its unit, the correctness gates
pass, and a tampered oracle makes the run fail. Run with::

    PYTHONPATH=src python -m pytest benchmarks/layered/test_bench_layers.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "bench_layers.py"), "--smoke", "--seed", "3",
         "--seconds", "1.5", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_every_workload_reports_every_end_to_end_metric():
    result = _run()
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{workload['name']}.{name}": unit
        for workload in SPEC["workloads"]
        for name, unit in _units("end_to_end").items()
    }
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _run("--workload", "churn", "--trace", "1")
    assert result["correct"] is True
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _units("per_layer")


def test_tampered_oracle_fails_the_run():
    result = _run("--workload", "churn", "--tamper")
    assert result["correct"] is False
    assert result["failed"] > 0
