"""Benchmark: error-vs-budget curves for the online budget compressors.

Streams deterministic random-walk trajectories through the online
SQUISH-E and STTrace compressors (``repro.streaming.budget``) at a
sweep of point budgets, and sets each curve against an *offline*
budgeted reference (``td-tr-budget``, greedy best-first top-down
splitting with the synchronized criterion) on the same input. The
report calls that reference the ``oracle``, but it is not an optimum:
on the quick workload its mean SED is 1.31–1.37× the least possible at
the same budgets, as an exact dynamic program finds them.

* **budget invariant** — the net retained stream never exceeds the
  budget, keeps both endpoints, and stays strictly time-ordered; any
  violation fails the bench outright.
* **sed_ratio** — mean synchronized (SED) error of the online result
  over the offline reference's, per (algorithm, budget) point: what
  streaming costs against a greedy offline compressor that sees the
  whole trajectory. The reference is greedy, so nothing bounds the
  ratio below by 1. The tier-1 test
  ``tests/streaming/test_budget_curves.py`` requires the quick report,
  these ratios included, to equal the committed
  ``tests/data/golden/budget_curves.json`` exactly, so a refactor that
  silently changes eviction quality fails loudly.

A dead-reckoning sweep (epsilon, not budget, is its knob) is included
informationally: retained points and SED per epsilon, with the online
form asserted bit-identical to the batch ``dead-reckoning`` compressor.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_budget.py

or the quick variant (same sweep shape, smaller workload)::

    PYTHONPATH=src python benchmarks/bench_budget.py --quick

After an intentional change to eviction quality, regenerate the golden
report that tier-1 compares against, and review its diff::

    PYTHONPATH=src python benchmarks/bench_budget.py --quick \
        --output tests/data/golden/budget_curves.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.core.registry import make_compressor
from repro.error import mean_synchronized_error
from repro.streaming.base import partition_events
from repro.streaming.registry import make_online_compressor
from repro.trajectory.trajectory import Trajectory
from repro.types import Fix

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_budget.json"

ALGORITHMS = ("squish", "sttrace")
ORACLE = "td-tr-budget"
DEAD_RECKONING_EPSILONS = (10.0, 30.0, 60.0)
SEED = 11

FULL_TRAJS = 12
FULL_FIXES = 1200
FULL_BUDGETS = (10, 25, 50, 100, 200)

QUICK_TRAJS = 5
QUICK_FIXES = 400
QUICK_BUDGETS = (10, 25, 50)


def make_workload(
    n_trajectories: int, fixes_each: int, seed: int = SEED
) -> list[list[Fix]]:
    """Deterministic bounded random walks (1 Hz, ~14 m/s steps)."""
    rng = np.random.default_rng(seed)
    workload = []
    for _ in range(n_trajectories):
        steps = rng.normal(0.0, 10.0, size=(fixes_each, 2))
        xy = np.cumsum(steps, axis=0)
        t = np.arange(fixes_each, dtype=float)
        workload.append(
            [Fix(float(t[j]), float(xy[j, 0]), float(xy[j, 1]))
             for j in range(fixes_each)]
        )
    return workload


def replay(spec: str, fixes: list[Fix]) -> list[Fix]:
    """Net retained stream of one online pass over ``fixes``."""
    compressor = make_online_compressor(spec)
    retained: list[Fix] = []
    evicted_times: set[float] = set()
    for fix in fixes:
        kept, evicted = partition_events(compressor.push(fix))
        retained.extend(kept)
        evicted_times.update(point.t for point in evicted)
    kept, evicted = partition_events(compressor.finish())
    retained.extend(kept)
    evicted_times.update(point.t for point in evicted)
    return [point for point in retained if point.t not in evicted_times]


def _check_invariants(
    retained: list[Fix], fixes: list[Fix], budget: int, label: str
) -> list[str]:
    """The budget contract, checked on the replay output."""
    failures = []
    if len(retained) > budget:
        failures.append(
            f"{label}: {len(retained)} retained points exceed budget {budget}"
        )
    if not retained or retained[0] != fixes[0] or retained[-1] != fixes[-1]:
        failures.append(f"{label}: endpoints not retained")
    times = [point.t for point in retained]
    if times != sorted(set(times)):
        failures.append(f"{label}: retained stream not strictly time-ordered")
    originals = set(fixes)
    if any(point not in originals for point in retained):
        failures.append(f"{label}: retained a point never pushed")
    return failures


def _as_trajectory(fixes: list[Fix]) -> Trajectory:
    return Trajectory.from_points([(f.t, f.x, f.y) for f in fixes])


def bench(
    n_trajectories: int,
    fixes_each: int,
    budgets: tuple[int, ...],
    output: "Path | None" = OUTPUT,
) -> dict:
    """Sweep budgets, compare against the offline reference, write report."""
    workload = make_workload(n_trajectories, fixes_each)
    originals = [_as_trajectory(fixes) for fixes in workload]
    failures: list[str] = []

    # Reference SEDs once per budget (shared by both online algorithms).
    oracle_sed: dict[int, float] = {}
    for budget in budgets:
        oracle = make_compressor(ORACLE, budget=budget)
        seds = [
            mean_synchronized_error(traj, oracle.compress(traj).compressed)
            for traj in originals
        ]
        oracle_sed[budget] = float(np.mean(seds))

    curves: dict[str, list[dict]] = {}
    ratio_means: dict[str, float] = {}
    for algorithm in ALGORITHMS:
        curve = []
        for budget in budgets:
            spec = f"{algorithm}:budget={budget}"
            seds = []
            max_points = 0
            for index, fixes in enumerate(workload):
                retained = replay(spec, fixes)
                failures.extend(
                    _check_invariants(
                        retained, fixes, budget, f"{spec} traj {index}"
                    )
                )
                max_points = max(max_points, len(retained))
                seds.append(
                    mean_synchronized_error(
                        originals[index], _as_trajectory(retained)
                    )
                )
            online = float(np.mean(seds))
            ratio = online / oracle_sed[budget] if oracle_sed[budget] else 1.0
            curve.append({
                "budget": budget,
                "online_mean_sed_m": online,
                "oracle_mean_sed_m": oracle_sed[budget],
                "sed_ratio": ratio,
                "max_retained_points": max_points,
            })
        curves[algorithm] = curve
        ratio_means[algorithm] = float(
            np.mean([point["sed_ratio"] for point in curve])
        )
        # The curve must actually descend: more budget, less error.
        seds_by_budget = [point["online_mean_sed_m"] for point in curve]
        if any(b <= a for a, b in zip(seds_by_budget, seds_by_budget[1:])
               if a == 0.0):
            pass  # degenerate zero-error workload; nothing to order
        elif sorted(seds_by_budget, reverse=True) != seds_by_budget:
            failures.append(
                f"{algorithm}: mean SED not monotonically non-increasing "
                f"in budget: {seds_by_budget}"
            )

    # Dead reckoning (informational): epsilon sweep, online form
    # asserted bit-identical to the batch compressor.
    dead_reckoning = []
    for epsilon in DEAD_RECKONING_EPSILONS:
        points = []
        seds = []
        for index, fixes in enumerate(workload):
            retained = replay(f"dead-reckoning:epsilon={epsilon}", fixes)
            batch_indices = make_compressor(
                "dead-reckoning", epsilon=epsilon
            ).compress(originals[index]).indices
            batch_retained = [fixes[i] for i in batch_indices]
            if retained != batch_retained:
                failures.append(
                    f"dead-reckoning:epsilon={epsilon} traj {index}: online "
                    f"result diverged from the batch compressor "
                    f"({len(retained)} vs {len(batch_retained)} points)"
                )
            points.append(len(retained))
            seds.append(
                mean_synchronized_error(
                    originals[index], _as_trajectory(retained)
                )
            )
        dead_reckoning.append({
            "epsilon_m": epsilon,
            "mean_retained_points": float(np.mean(points)),
            "mean_sed_m": float(np.mean(seds)),
        })

    report = {
        "benchmark": "budget",
        "config": {
            "n_trajectories": n_trajectories,
            "fixes_per_trajectory": fixes_each,
            "budgets": list(budgets),
            "oracle": ORACLE,
            "seed": SEED,
        },
        "results": {
            "curves": curves,
            "sed_ratio_mean": ratio_means,
            "dead_reckoning": dead_reckoning,
        },
        "failed": bool(failures),
        "failures": failures,
    }
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_bench_budget_quick(tmp_path):
    """Suite-sized smoke: invariants hold and each curve descends.

    The exact ratios against the greedy reference are pinned by
    ``tests/streaming/test_budget_curves.py``; no bound on them holds in
    general, because the reference is not an optimum.
    """
    report = bench(
        3, 200, (10, 25), output=tmp_path / "BENCH_budget.json"
    )
    assert not report["failed"], report["failures"]
    for algorithm in ALGORITHMS:
        at_10, at_25 = (
            point["online_mean_sed_m"]
            for point in report["results"]["curves"][algorithm]
        )
        assert at_25 < at_10, (algorithm, at_10, at_25)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"quick run ({QUICK_TRAJS}x{QUICK_FIXES} fixes, "
             f"budgets {QUICK_BUDGETS})",
    )
    parser.add_argument(
        "--output", "-o", type=Path, default=OUTPUT,
        help=f"report path (default {OUTPUT.name} at the repo root)",
    )
    args = parser.parse_args()
    if args.quick:
        report = bench(QUICK_TRAJS, QUICK_FIXES, QUICK_BUDGETS, args.output)
    else:
        report = bench(FULL_TRAJS, FULL_FIXES, FULL_BUDGETS, args.output)
    results = report["results"]
    for algorithm, curve in results["curves"].items():
        for point in curve:
            print(
                f"{algorithm} budget={point['budget']}: "
                f"online SED {point['online_mean_sed_m']:.2f} m vs "
                f"oracle {point['oracle_mean_sed_m']:.2f} m "
                f"({point['sed_ratio']:.2f}x)"
            )
        print(
            f"{algorithm}: mean SED ratio vs {ORACLE}: "
            f"{results['sed_ratio_mean'][algorithm]:.2f}x"
        )
    for point in results["dead_reckoning"]:
        print(
            f"dead-reckoning epsilon={point['epsilon_m']:.0f} m: "
            f"{point['mean_retained_points']:.1f} points, "
            f"SED {point['mean_sed_m']:.2f} m (batch-identical)"
        )
    if report["failed"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}")
    print(f"-> {args.output}")
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
