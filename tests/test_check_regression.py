"""The perf gate's comparison logic and exit-code contract."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
assert _spec is not None and _spec.loader is not None
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def kernel_report(td_s: float = 0.010, opw_s: float = 0.050, n_points: int = 4000):
    return {
        "benchmark": "kernels",
        "n_points": n_points,
        "algorithms": {
            "td-tr:epsilon=30": {
                "scalar": {"engine": "python", "best_s": td_s * 5, "n_kept": 50},
                "shipped": {"engine": "numpy", "best_s": td_s, "n_kept": 50},
                "speedup": 5.0,
            },
            "opw-tr:epsilon=30": {
                "scalar": {"engine": "python", "best_s": opw_s * 2, "n_kept": 61},
                "shipped": {"engine": "numpy", "best_s": opw_s, "n_kept": 61},
                "speedup": 2.0,
            },
        },
    }


def serve_report(p50: float = 1.0, throughput: float = 10_000.0, sessions: int = 12):
    return {
        "config": {
            "spec": "opw-tr:epsilon=25",
            "sessions": sessions,
            "fixes_per_session": 80,
            "append_batch": 1,
            "induced_max_sessions": sessions,
            "attempted_rejects": 3,
            "seed": 7,
        },
        "results": {
            "p50_append_ms": p50,
            "p99_append_ms": p50 * 4,
            "fixes_per_sec": throughput,
            "rejected_sessions": 3,
        },
        "server_stats": {},
    }


class TestCompare:
    def test_identical_reports_pass(self):
        code, _ = check_regression.compare(kernel_report(), kernel_report())
        assert code == 0

    def test_within_tolerance_passes(self):
        code, messages = check_regression.compare(
            kernel_report(td_s=0.011), kernel_report(td_s=0.010), tolerance=0.25
        )
        assert code == 0
        assert any("ok" in m for m in messages)

    def test_kernel_slowdown_beyond_tolerance_fails(self):
        code, messages = check_regression.compare(
            kernel_report(td_s=0.020), kernel_report(td_s=0.010), tolerance=0.25
        )
        assert code == 1
        assert any("REGRESSION" in m for m in messages)

    def test_improvement_always_passes(self):
        code, _ = check_regression.compare(
            kernel_report(td_s=0.002), kernel_report(td_s=0.010)
        )
        assert code == 0

    def test_serve_latency_regression_fails(self):
        code, _ = check_regression.compare(
            serve_report(p50=2.0), serve_report(p50=1.0), tolerance=0.25
        )
        assert code == 1

    def test_serve_throughput_drop_fails(self):
        code, _ = check_regression.compare(
            serve_report(throughput=5_000.0), serve_report(throughput=10_000.0)
        )
        assert code == 1

    def test_serve_seed_difference_is_not_a_config_mismatch(self):
        current = serve_report()
        current["config"]["seed"] = 99
        code, _ = check_regression.compare(current, serve_report())
        assert code == 0

    def test_config_mismatch_is_exit_2(self):
        code, messages = check_regression.compare(
            kernel_report(n_points=800), kernel_report(n_points=4000)
        )
        assert code == 2
        assert any("mismatch" in m for m in messages)

    def test_kind_mismatch_is_exit_2(self):
        code, _ = check_regression.compare(kernel_report(), serve_report())
        assert code == 2

    def test_budget_report_is_refused(self):
        """Budget curves are pinned exactly by a tier-1 test, not gated
        here; a budget report must not pass as a serve report."""
        budget = {"benchmark": "budget", "config": {}, "results": {}}
        with pytest.raises(SystemExit, match="exit 2"):
            check_regression.compare(budget, budget)

    def test_failed_bench_report_is_a_regression(self):
        failed = serve_report()
        failed["failed"] = True
        failed["failures"] = ["bench-0001: diverged"]
        code, messages = check_regression.compare(failed, serve_report())
        assert code == 1
        assert any("failed" in m for m in messages)

    def test_tolerance_widens_the_gate(self):
        slow = kernel_report(td_s=0.014)
        base = kernel_report(td_s=0.010)
        assert check_regression.compare(slow, base, tolerance=0.25)[0] == 1
        assert check_regression.compare(slow, base, tolerance=0.50)[0] == 0


class TestMain:
    def _write(self, tmp_path: Path, name: str, report: dict) -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return path

    def test_exit_zero_on_matching_reports(self, tmp_path, capsys):
        current = self._write(tmp_path, "current.json", kernel_report())
        baseline = self._write(tmp_path, "baseline.json", kernel_report())
        assert check_regression.main([str(current), str(baseline)]) == 0
        assert "perf gate: OK" in capsys.readouterr().out

    def test_exit_one_on_degraded_report(self, tmp_path, capsys):
        current = self._write(tmp_path, "current.json", kernel_report(td_s=0.05))
        baseline = self._write(tmp_path, "baseline.json", kernel_report())
        assert check_regression.main([str(current), str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_exit_two_on_config_mismatch(self, tmp_path):
        current = self._write(
            tmp_path, "current.json", kernel_report(n_points=123)
        )
        baseline = self._write(tmp_path, "baseline.json", kernel_report())
        assert check_regression.main([str(current), str(baseline)]) == 2

    def test_missing_report_exits_two(self, tmp_path):
        baseline = self._write(tmp_path, "baseline.json", kernel_report())
        with pytest.raises(SystemExit, match="exit 2"):
            check_regression.main([str(tmp_path / "nope.json"), str(baseline)])

    def test_update_baseline_writes_and_passes(self, tmp_path):
        current = self._write(tmp_path, "current.json", kernel_report(td_s=0.05))
        baseline = tmp_path / "baselines" / "baseline.json"
        code = check_regression.main(
            [str(current), str(baseline), "--update-baseline"]
        )
        assert code == 0
        assert json.loads(baseline.read_text()) == kernel_report(td_s=0.05)
        # The blessed baseline now gates future runs.
        assert check_regression.main([str(current), str(baseline)]) == 0

    def test_update_baseline_refuses_failed_reports(self, tmp_path):
        failed = serve_report()
        failed["failed"] = True
        current = self._write(tmp_path, "current.json", failed)
        baseline = tmp_path / "baseline.json"
        code = check_regression.main(
            [str(current), str(baseline), "--update-baseline"]
        )
        assert code == 2
        assert not baseline.exists()

    def test_committed_baselines_are_usable(self):
        """The baselines shipped in-repo parse and carry gated metrics."""
        base_dir = _SCRIPT.parent / "baselines"
        kernels = json.loads((base_dir / "BENCH_kernels_quick.json").read_text())
        serve = json.loads((base_dir / "BENCH_serve_ci.json").read_text())
        k_metrics, _ = check_regression._kernel_view(kernels)
        s_metrics, _ = check_regression._serve_view(serve)
        assert k_metrics and all(v > 0 for v, _ in k_metrics.values())
        assert {"p50_append_ms", "fixes_per_sec"} <= set(s_metrics)
