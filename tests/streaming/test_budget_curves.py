"""The budget compressors' error-vs-budget curves, pinned exactly.

``benchmarks/bench_budget.py --quick`` streams a seeded random-walk
workload through ``squish`` and ``sttrace`` at three budgets and sets
each result against the offline ``td-tr-budget`` reference: a greedy
top-down split, which the report's ``oracle`` keys name but which is
not an optimum. Every number it reports is a pure function of that
seed, so this test runs the same quick sweep in process and requires
the committed report, ``tests/data/golden/budget_curves.json``,
exactly: its curves, mean SED ratios and dead-reckoning sweep. A change
to eviction order or priorities cannot hide inside a tolerance.

The bench module is loaded by path, so the sweep has one implementation.
After an intentional change to eviction quality, regenerate the golden
file and review its diff::

    PYTHONPATH=src python benchmarks/bench_budget.py --quick \
        --output tests/data/golden/budget_curves.json
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
_spec = importlib.util.spec_from_file_location(
    "bench_budget", _BENCHMARKS / "bench_budget.py"
)
assert _spec is not None and _spec.loader is not None
bench_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_budget)

BASELINE = (
    Path(__file__).resolve().parents[1] / "data" / "golden" / "budget_curves.json"
)


def test_quick_sweep_reproduces_the_committed_baseline():
    report = bench_budget.bench(
        bench_budget.QUICK_TRAJS,
        bench_budget.QUICK_FIXES,
        bench_budget.QUICK_BUDGETS,
        output=None,
    )
    assert not report["failed"], report["failures"]
    assert report == json.loads(BASELINE.read_text())
