"""Perf-regression gate: compare a bench report against its baseline.

CI runs the quick benchmarks (``bench_kernels.py --quick`` and
``repro serve-bench``) and then this script against the baselines
committed under ``benchmarks/baselines/``. A metric that regresses by
more than the tolerance (default 25%) fails the gate. Absolute timings
differ across machines — the committed baselines were produced on one
runner class, and the wide tolerance absorbs runner-to-runner noise; a
genuine algorithmic slowdown blows well past it.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        BENCH_kernels_ci.json benchmarks/baselines/BENCH_kernels_quick.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        BENCH_serve_ci.json benchmarks/baselines/BENCH_serve_ci.json \
        --tolerance 0.25

After an intentional perf change, regenerate and commit the baseline::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick \
        --output benchmarks/baselines/BENCH_kernels_quick.json
    # or copy a fresh report over the old baseline:
    PYTHONPATH=src python benchmarks/check_regression.py \
        BENCH_kernels_ci.json benchmarks/baselines/BENCH_kernels_quick.json \
        --update-baseline

Exit codes: 0 = within tolerance, 1 = regression (or a failed bench
report), 2 = configuration mismatch or unusable input (the two reports
measured different things; comparing them would be meaningless).
See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["compare", "main"]

#: A regression beyond this fraction fails the gate by default.
DEFAULT_TOLERANCE = 0.25


def _load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: {path}: no such report (exit 2)") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path}: not valid JSON: {exc} (exit 2)") from None
    if not isinstance(data, dict):
        raise SystemExit(f"error: {path}: expected a JSON object (exit 2)")
    return data


def _detect_kind(report: dict) -> str:
    if report.get("benchmark") == "kernels" or "algorithms" in report:
        return "kernels"
    if report.get("benchmark") == "query":
        return "query"
    if "benchmark" not in report and "results" in report and "config" in report:
        return "serve"
    raise SystemExit(
        "error: cannot tell what kind of bench report this is "
        "(expected a kernels, query or serve report) (exit 2)"
    )


def _kernel_view(report: dict) -> tuple[dict, dict]:
    """(metrics, config) for a ``bench_kernels.py`` report.

    Only the shipped path is gated: it is what production runs, and it
    gets best-of-3 timing; the forced sides are diagnostics.
    """
    metrics = {}
    for spec, entry in sorted(report.get("algorithms", {}).items()):
        metrics[f"{spec} shipped best_s"] = (float(entry["shipped"]["best_s"]), False)
    return metrics, {"n_points": report.get("n_points")}


def _serve_view(report: dict) -> tuple[dict, dict]:
    """(metrics, config) for a ``repro serve-bench`` report."""
    results = report.get("results", {})
    metrics = {}
    if results.get("p50_append_ms") is not None:
        metrics["p50_append_ms"] = (float(results["p50_append_ms"]), False)
    if results.get("fixes_per_sec") is not None:
        metrics["fixes_per_sec"] = (float(results["fixes_per_sec"]), True)
    config = dict(report.get("config", {}))
    config.pop("seed", None)  # the seed shifts data, not the workload shape
    return metrics, config


def _query_view(report: dict) -> tuple[dict, dict]:
    """(metrics, config) for a ``bench_query.py`` report.

    Only the decoded-byte ratios are gated: byte counts are a pure
    function of the deterministic store and query mix, so any drop is a
    real pruning regression, not runner noise. Latencies ride along in
    the report but are machine-dependent and stay informational.
    """
    results = report.get("results", {})
    metrics = {
        "decoded_bytes_ratio": (float(results["decoded_bytes_ratio"]), True),
    }
    for verb, entry in sorted(results.get("verbs", {}).items()):
        metrics[f"{verb} decoded_bytes_ratio"] = (
            float(entry["decoded_bytes_ratio"]), True
        )
    return metrics, dict(report.get("config", {}))


_VIEWS = {
    "kernels": _kernel_view,
    "serve": _serve_view,
    "query": _query_view,
}


def compare(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[int, list[str]]:
    """Compare two reports; returns ``(exit_code, messages)``.

    Exit codes follow the script contract: 0 within tolerance,
    1 regression, 2 configuration mismatch.
    """
    messages: list[str] = []
    kind = _detect_kind(current)
    if _detect_kind(baseline) != kind:
        return 2, [f"baseline is not a {kind} report"]
    if current.get("failed"):
        reasons = current.get("failures", [])
        return 1, [f"current report is marked failed: {reasons[:3]}"]
    cur_metrics, cur_config = _VIEWS[kind](current)
    base_metrics, base_config = _VIEWS[kind](baseline)
    if cur_config != base_config:
        return 2, [
            f"configuration mismatch: current {cur_config} vs "
            f"baseline {base_config}; regenerate the baseline "
            f"(see docs/PERFORMANCE.md)"
        ]
    missing = sorted(set(base_metrics) - set(cur_metrics))
    if missing:
        return 2, [f"current report lacks baseline metric(s): {missing}"]
    worst = 0
    for name, (base_value, higher_is_better) in sorted(base_metrics.items()):
        value, _ = cur_metrics[name]
        if base_value <= 0:
            messages.append(f"skip {name}: non-positive baseline {base_value}")
            continue
        if higher_is_better:
            change = (base_value - value) / base_value  # drop fraction
        else:
            change = (value - base_value) / base_value  # growth fraction
        verdict = "REGRESSION" if change > tolerance else "ok"
        messages.append(
            f"{verdict:>10}  {name}: {value:g} vs baseline {base_value:g} "
            f"({abs(change) * 100.0:.1f}% {'worse' if change > 0 else 'better'}, "
            f"tolerance {tolerance * 100.0:.0f}%)"
        )
        if change > tolerance:
            worst = 1
    return worst, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly produced bench report")
    parser.add_argument("baseline", type=Path,
                        help="committed baseline report to compare against")
    parser.add_argument(
        "--tolerance", "-t", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed fractional regression (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baseline with the current report and exit 0",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be non-negative")
    current = _load(args.current)
    if args.update_baseline:
        _detect_kind(current)  # refuse to bless an unusable report
        if current.get("failed"):
            print("error: refusing to bless a failed bench report", file=sys.stderr)
            return 2
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0
    baseline = _load(args.baseline)
    code, messages = compare(current, baseline, args.tolerance)
    for message in messages:
        print(message)
    if code == 0:
        print("perf gate: OK")
    elif code == 1:
        print("perf gate: REGRESSION", file=sys.stderr)
    else:
        print("perf gate: CONFIG MISMATCH", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
