"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.trajectory import read_csv, read_json, write_csv


@pytest.fixture
def trip_csv(tmp_path, zigzag):
    path = tmp_path / "trip.csv"
    write_csv(zigzag, path)
    return path


class TestStats:
    def test_prints_statistics(self, trip_csv, capsys):
        assert main(["stats", str(trip_csv)]) == 0
        out = capsys.readouterr().out
        assert "points" in out
        assert "19" in out
        assert "mean speed" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unsupported_format(self, tmp_path, capsys):
        bad = tmp_path / "trip.xlsx"
        bad.write_text("whatever")
        assert main(["stats", str(bad)]) == 2
        assert "unsupported" in capsys.readouterr().err


class TestCompress:
    def test_epsilon_algorithm_roundtrip(self, trip_csv, tmp_path, capsys):
        out = tmp_path / "small.csv"
        code = main(
            ["compress", str(trip_csv), "-a", "td-tr", "-e", "30", "-o", str(out)]
        )
        assert code == 0
        compressed = read_csv(out)
        original = read_csv(trip_csv)
        assert 2 <= len(compressed) < len(original)
        text = capsys.readouterr().out
        assert "mean sync error" in text

    def test_json_output(self, trip_csv, tmp_path):
        out = tmp_path / "small.json"
        main(["compress", str(trip_csv), "-a", "ndp", "-e", "30", "-o", str(out)])
        assert json.loads(out.read_text())["points"]
        assert read_json(out).object_id

    def test_sp_algorithm_needs_speed(self, trip_csv, capsys):
        assert main(["compress", str(trip_csv), "-a", "opw-sp", "-e", "30"]) == 2
        assert "--speed" in capsys.readouterr().err

    def test_sp_algorithm_with_speed(self, trip_csv):
        assert (
            main(["compress", str(trip_csv), "-a", "opw-sp", "-e", "30", "--speed", "5"])
            == 0
        )

    def test_every_ith_needs_step(self, trip_csv, capsys):
        assert main(["compress", str(trip_csv), "-a", "every-ith"]) == 2
        assert "--step" in capsys.readouterr().err

    def test_budget_algorithm(self, trip_csv, tmp_path):
        out = tmp_path / "b.csv"
        code = main(
            ["compress", str(trip_csv), "-a", "td-tr-budget", "--budget", "5",
             "-o", str(out)]
        )
        assert code == 0
        assert len(read_csv(out)) == 5

    def test_angular_algorithm(self, trip_csv):
        assert main(["compress", str(trip_csv), "-a", "angular", "--angle", "0.5"]) == 0

    def test_total_error_budget(self, trip_csv):
        assert (
            main(["compress", str(trip_csv), "-a", "bottom-up-total-error", "-e", "10"])
            == 0
        )

    def test_missing_epsilon(self, trip_csv, capsys):
        assert main(["compress", str(trip_csv), "-a", "td-tr"]) == 2
        assert "--epsilon" in capsys.readouterr().err


class TestReport:
    def test_report_output(self, trip_csv, capsys):
        assert main(["report", str(trip_csv), "-a", "td-tr", "-e", "30"]) == 0
        out = capsys.readouterr().out
        assert "algorithm: td-tr" in out
        assert "percentiles" in out
        assert "worst moment" in out

    def test_report_needs_params(self, trip_csv, capsys):
        assert main(["report", str(trip_csv), "-a", "opw-sp", "-e", "30"]) == 2
        assert "--speed" in capsys.readouterr().err


class TestGenerate:
    def test_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        code = main(
            ["generate", "--profile", "urban", "--seed", "4", "--length-km", "5",
             "-o", str(out)]
        )
        assert code == 0
        traj = read_csv(out)
        assert len(traj) > 10
        assert "fixes" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            main(["generate", "--seed", "9", "--length-km", "4", "-o", str(out)])
        assert a.read_text() == b.read_text()


class TestDataset:
    def test_writes_ten_files(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        assert main(["dataset", str(out_dir)]) == 0
        files = sorted(out_dir.glob("*.csv"))
        assert len(files) == 10
        assert "10 trajectories" in capsys.readouterr().out


class TestFigures:
    def test_quick_figure(self, capsys):
        assert main(["figures", "fig07", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out
        assert "td-tr" in out
        assert "ndp" in out

    def test_quick_figure_with_chart(self, capsys):
        assert main(["figures", "fig07", "--quick", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "vs threshold" in out
        assert "a = " in out  # chart legend

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "40.85" in out  # the paper's speed mean

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestCluster:
    @pytest.fixture
    def fleet_dir(self, tmp_path):
        import numpy as np

        from repro.trajectory import Trajectory, write_csv

        t = np.arange(0.0, 100.0, 10.0)
        for name, dy in (("a1", 0.0), ("a2", 12.0), ("b1", 900.0)):
            traj = Trajectory(
                t, np.column_stack([t * 10.0, np.full_like(t, dy)]), name
            )
            write_csv(traj, tmp_path / f"{name}.csv")
        return tmp_path

    def test_cluster_directory_by_route(self, fleet_dir, capsys):
        assert main(["cluster", str(fleet_dir), "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 clusters" in out
        assert "a1, a2" in out

    def test_cluster_with_max_distance(self, fleet_dir, capsys):
        assert main(["cluster", str(fleet_dir), "--max-distance", "50"]) == 0
        assert "2 clusters" in capsys.readouterr().out

    def test_cluster_synchronized_metric(self, fleet_dir, capsys):
        assert (
            main(["cluster", str(fleet_dir), "--metric", "synchronized",
                  "--clusters", "2"])
            == 0
        )
        assert "synchronized" in capsys.readouterr().out

    def test_cluster_needs_two_files(self, fleet_dir, capsys):
        only = fleet_dir / "a1.csv"
        assert main(["cluster", str(only), "--clusters", "1"]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_cluster_requires_stop_criterion(self, fleet_dir):
        with pytest.raises(SystemExit):
            main(["cluster", str(fleet_dir)])


class TestFlow:
    def test_flow_over_directory(self, tmp_path, capsys):
        import numpy as np

        from repro.trajectory import Trajectory, write_csv

        t = np.arange(0.0, 100.0, 10.0)
        for name, dy in (("a", 0.0), ("b", 10.0)):
            write_csv(
                Trajectory(t, np.column_stack([t * 10.0, np.full_like(t, dy)]), name),
                tmp_path / f"{name}.csv",
            )
        assert main(["flow", str(tmp_path), "--bin-seconds", "50"]) == 0
        out = capsys.readouterr().out
        assert "fleet speed profile" in out
        assert "busiest" in out
        assert "origin-destination" in out

    def test_flow_no_inputs(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["flow", str(empty)]) == 2
        assert "no trajectory files" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_version_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_choices_match_their_sources(self):
        from repro import cli
        from repro.datagen import profiles
        from repro.experiments.dataset import DATASET_SEED
        from repro.experiments.figures import ALL_FIGURES
        from repro.serve.chaos import SCENARIOS

        assert cli._PROFILE_NAMES == ("highway", "rural", "urban")
        for name in cli._PROFILE_NAMES:
            assert isinstance(getattr(profiles, name.upper()), profiles.WorkloadProfile)
        assert cli._FIGURE_IDS == tuple(sorted(ALL_FIGURES))
        assert cli._DATASET_SEED == DATASET_SEED
        assert cli._CHAOS_SCENARIOS == SCENARIOS


def _loaded_in_fresh_interpreter(setup: str, prefixes: tuple[str, ...]) -> list:
    """Modules under ``prefixes`` that a new interpreter holds after
    running ``setup``."""
    probe = (
        f"import json, sys; {setup}; print(json.dumps(sorted("
        f"m for m in sys.modules if m.startswith({prefixes!r}))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return json.loads(out)


def _serve_command(argv: list[str]) -> str:
    """Probe setup running ``repro <argv>`` up to its event loop: the
    command imports and builds everything it serves with, then
    ``asyncio.run`` discards the coroutine instead of serving."""
    return (
        "import asyncio, repro.cli; "
        "asyncio.run = lambda main: main.close(); "
        f"assert repro.cli.main({argv!r}) == 0"
    )


#: The packages whose ``__init__`` resolves its exports on first use.
_LAZY_PACKAGES = (
    "repro", "repro.trajectory", "repro.storage", "repro.serve", "repro.query",
)


class TestImportFootprint:
    """Each process imports only what its role runs."""

    def test_cli_import_skips_generator_and_experiments(self):
        """Every ``repro serve`` process, router and fleet worker imports
        the CLI; the synthetic-data generator and the experiment harness
        must stay out of that import."""
        loaded = _loaded_in_fresh_interpreter(
            "import repro.cli", ("networkx", "repro.datagen", "repro.experiments")
        )
        assert loaded == []

    def test_generator_routes_without_networkx(self):
        """The synthetic trips are routed by ``repro.datagen``'s own
        planner, so generating and evaluating them loads no networkx."""
        loaded = _loaded_in_fresh_interpreter(
            "import repro.datagen, repro.experiments", ("networkx",)
        )
        assert loaded == []

    def test_router_holds_no_compute_stack(self):
        """``repro serve --workers N`` only routes bytes and merges
        stats: it must reach the router without numpy, the store, the
        compressors or the online sessions."""
        loaded = _loaded_in_fresh_interpreter(
            _serve_command(["serve", "--port", "0", "--workers", "2"]),
            ("numpy", "repro.storage", "repro.core", "repro.streaming"),
        )
        assert loaded == []

    def test_worker_skips_batch_stack(self, tmp_path):
        """A ``repro serve`` worker runs sessions, the WAL and the store;
        the batch pipeline, its process pool, the error metrics and the
        file formats stay out."""
        loaded = _loaded_in_fresh_interpreter(
            _serve_command([
                "serve", "--port", "0", "--shard", "worker-0",
                "--store", str(tmp_path / "fleet.rsto.worker-0"),
                "--wal", str(tmp_path / "wal"),
            ]),
            (
                "repro.pipeline", "repro.error", "concurrent.futures.process",
                "repro.trajectory.gpx", "repro.trajectory.io",
                "repro.trajectory.stats",
            ),
        )
        assert loaded == []

    @pytest.mark.parametrize("package", _LAZY_PACKAGES)
    def test_lazy_exports_resolve_to_their_homes(self, package):
        """Every exported name resolves to the object its ``_HOMES``
        entry's module defines, so the table cannot drift from the
        modules."""
        import importlib

        module = importlib.import_module(package)
        for name in module._HOMES:
            home = importlib.import_module(module._HOMES[name])
            assert getattr(module, name) is getattr(home, name)
        with pytest.raises(AttributeError):
            getattr(module, "no_such_export")


class TestCleanExit:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys, trip_csv):
        # Ctrl-C inside any subcommand must exit with the POSIX code for
        # SIGINT and no traceback on stdout.
        from repro import cli

        def interrupted(args):
            raise KeyboardInterrupt

        parser = cli.build_parser()
        monkeypatch.setattr(
            cli, "build_parser", lambda: _with_func(parser, interrupted)
        )
        assert cli.main(["stats", str(trip_csv)]) == 130
        assert "Traceback" not in capsys.readouterr().out

    def test_broken_pipe_exits_zero(self, monkeypatch, trip_csv):
        from repro import cli

        def piped(args):
            raise BrokenPipeError

        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: _with_func(parser, piped))
        assert cli.main(["stats", str(trip_csv)]) == 0


def _with_func(parser, func):
    """Rebind every subcommand of a built parser to ``func``."""
    class _Shim:
        def parse_args(self, argv):
            args = parser.parse_args(argv)
            args.func = func
            return args

    return _Shim()


class TestPipeline:
    @pytest.fixture
    def fleet_dir(self, tmp_path, zigzag, straight_line):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        write_csv(zigzag, fleet / "zigzag.csv")
        write_csv(straight_line, fleet / "straight.csv")
        return fleet

    def test_smoke(self, fleet_dir, capsys):
        assert main(["pipeline", str(fleet_dir), "-s", "td-tr:epsilon=30"]) == 0
        out = capsys.readouterr().out
        assert "pipeline: td-tr" in out
        assert "zigzag" in out and "straight" in out
        assert "2/2 items ok" in out

    def test_metrics_json_export(self, fleet_dir, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            ["pipeline", str(fleet_dir), "-s", "td-tr:epsilon=30",
             "--metrics-json", str(metrics)]
        )
        assert code == 0
        data = json.loads(metrics.read_text())
        assert data["engine"]["compressor"] == "td-tr:epsilon=30"
        assert data["run"]["n_ok"] == 2
        assert data["run"]["n_failed"] == 0
        assert data["metrics"]["counters"]["items_ok"] == 2
        assert data["failures"] == []

    def test_output_dir_writes_compressed_files(self, fleet_dir, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["pipeline", str(fleet_dir), "-s", "td-tr:epsilon=30",
             "-o", str(out_dir)]
        )
        assert code == 0
        compressed = read_csv(out_dir / "straight.csv")
        assert len(compressed) == 2  # a straight line compresses to its ends

    def test_skip_policy_survives_corrupt_file(self, fleet_dir, tmp_path, capsys):
        (fleet_dir / "corrupt.csv").write_text("t,x,y\nnot,a,number\n")
        metrics = tmp_path / "metrics.json"
        code = main(
            ["pipeline", str(fleet_dir), "--on-error", "skip",
             "--metrics-json", str(metrics)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "failed: corrupt" in captured.err
        data = json.loads(metrics.read_text())
        assert data["run"]["n_failed"] == 1
        assert [f["item_id"] for f in data["failures"]] == ["corrupt"]

    def test_parallel_workers(self, fleet_dir, capsys):
        assert main(["pipeline", str(fleet_dir), "-w", "2"]) == 0
        assert "2/2 items ok" in capsys.readouterr().out

    def test_resumes_checkpoint_whose_spec_names_an_engine(
        self, fleet_dir, tmp_path, capsys
    ):
        """``pipeline --engine python`` stored its spec with
        ``engine=python``; such a checkpoint still resumes."""
        ck = tmp_path / "ck"
        assert main(["pipeline", str(fleet_dir), "-s", "td-tr:epsilon=30",
                     "--checkpoint", str(ck)]) == 0
        manifest_path = ck / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["compressor"] = "td-tr:epsilon=30,engine=python"
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["pipeline", str(fleet_dir), "--resume", str(ck)]) == 0
        assert "resumed 2 already-completed item(s)" in capsys.readouterr().out

    def test_invalid_spec_exits_2(self, fleet_dir, capsys):
        assert main(["pipeline", str(fleet_dir), "-s", "td-tr:oops"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_algorithm_exits_2(self, fleet_dir, capsys):
        assert main(["pipeline", str(fleet_dir), "-s", "nope:epsilon=1"]) == 2

    def test_no_inputs(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["pipeline", str(empty)]) == 2
        assert "no trajectory files" in capsys.readouterr().err


class TestSpecStrings:
    def test_compress_accepts_spec_algorithm(self, trip_csv, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["compress", str(trip_csv), "-a", "td-tr:epsilon=40", "-o", str(out)]
        )
        assert code == 0
        assert len(read_csv(out)) >= 2

    @pytest.mark.parametrize("command", ["compress", "report"])
    def test_engine_flag_is_gone(self, command, trip_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(trip_csv), "-a", "td-tr", "-e", "30",
                  "--engine", "python"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_spec_naming_an_engine_is_refused(self, trip_csv, capsys):
        code = main(["compress", str(trip_csv), "-a", "td-tr:epsilon=30,engine=python"])
        assert code == 2
        assert "engine" in capsys.readouterr().err

    def test_report_accepts_spec_algorithm(self, trip_csv, capsys):
        code = main(
            ["report", str(trip_csv), "-a", "opw-sp:epsilon=30,speed=5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm: opw-sp" in out
        assert "synchronized" in out

    def test_malformed_spec_exits_2(self, trip_csv, capsys):
        assert main(["compress", str(trip_csv), "-a", "td-tr:=30"]) == 2


class TestFlowWorkers:
    def test_flow_skips_corrupt_file(self, tmp_path, capsys, zigzag):
        write_csv(zigzag, tmp_path / "good.csv")
        (tmp_path / "bad.csv").write_text("garbage")
        code = main(
            ["flow", str(tmp_path), "--on-error", "skip", "--bin-seconds", "50"]
        )
        assert code == 0
        assert "skipped bad" in capsys.readouterr().err

    def test_table2_workers_match_serial(self, capsys):
        assert main(["table2"]) == 0
        serial = capsys.readouterr().out
        assert main(["table2", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestServeArgumentValidation:
    """Bad serve flags die at the parser with a usage line, not deep in
    the server constructor with a traceback."""

    @pytest.mark.parametrize("flag,value", [
        ("--queue-size", "0"),
        ("--queue-size", "-3"),
        ("--queue-size", "ten"),
        ("--max-sessions", "0"),
        ("--idle-timeout", "0"),
        ("--idle-timeout", "-1.5"),
        ("--idle-timeout", "inf"),
        ("--idle-timeout", "nan"),
        ("--sweep-interval", "0"),
        ("--sweep-interval", "oops"),
    ])
    def test_invalid_values_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.serve
    @pytest.mark.parametrize("spec", ["td-tr:epsilon=30", "nosuch", "opw-tr:epsilon"])
    def test_unbuildable_algorithm_exits_before_serving(self, spec, tmp_path, capsys):
        """``--algorithm`` is built before the store loads or the WAL
        opens: a spec no session could use exits 2 and binds nothing."""
        code = main([
            "serve", "--port", "0", "--algorithm", spec,
            "--store", str(tmp_path / "s.rsto"), "--wal", str(tmp_path / "wal"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "serving on" not in captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "wal").exists()

    @pytest.mark.serve
    @pytest.mark.parametrize("held", ["wal", "store"])
    def test_second_server_on_a_locked_path_exits(self, held, tmp_path, capsys, monkeypatch):
        """A server holds its WAL directory and store file from before
        recovery for its life: a second ``repro serve`` on either exits
        2 with one error line and leaves the first one's files as they
        were."""
        import asyncio

        from repro.serve.server import TrajectoryServer
        from repro.serve.wal import WalWriter
        from repro.storage.store import TrajectoryStore
        from repro.trajectory import Trajectory

        wal, store_path = tmp_path / "wal", tmp_path / "fleet.rsto"
        store = TrajectoryStore()
        store.insert(Trajectory.from_points([(0.0, 0.0, 0.0), (1.0, 5.0, 5.0)], "a"))
        store.save(store_path, durable=False)
        if held == "wal":
            owner = WalWriter(wal, durable=False)
            owner.stage_open("live", "opw-tr:epsilon=10")
            owner.commit_sync()
        else:
            owner = TrajectoryServer(store_path=store_path, durable=False)
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        # Were the path not held, this would build the server and return
        # 0 instead of serving.
        monkeypatch.setattr(asyncio, "run", lambda main: main.close())
        code = main(["serve", "--port", "0", "--store", str(store_path), "--wal", str(wal)])
        captured = capsys.readouterr()
        owner.close()
        assert code == 2
        assert "serving on" not in captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "in use by another" in captured.err
        after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert {path: data for path, data in after.items() if path in before} == before
        # At most the store's empty lock file is new; the WAL directory is as it was.
        assert [path.name for path in set(after) - set(before)] in ([], ["fleet.rsto.lock"])
        assert not after.get(tmp_path / "fleet.rsto.lock")

    def test_valid_values_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--queue-size", "8", "--idle-timeout", "0.5",
            "--sweep-interval", "2", "--wal", "/tmp/wal",
        ])
        assert args.queue_size == 8
        assert args.idle_timeout == 0.5
        assert args.sweep_interval == 2.0
        assert args.wal == "/tmp/wal"

    def test_unknown_chaos_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-chaos", "--scenario", "nosuch"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro serve-chaos")
        assert "invalid choice: 'nosuch'" in err


def _registry_export() -> dict:
    from repro.obs import Registry

    registry = Registry()
    registry.counter("appends").inc(3)
    registry.gauge("queue_depth").set(2.5)
    registry.timer("flush").observe(0.25)
    registry.histogram("batch_fixes", buckets=(1, 10)).observe(4)
    return registry.to_dict()


#: Inputs ``obs dump --input`` refuses, by name (None: a directory).
_NOT_METRICS = {
    "directory": None,
    "text": b"not json\n",
    "not-utf8": b"\xff\xfe{}",
    "metrics-number": b'{"metrics": 5}',
    "timer-fields": b'{"timers": {"x": {}}}',
    "counter-string": b'{"counters": {"x": "y"}}',
}


class TestObsDump:
    """``repro obs dump --input`` renders a saved registry export, or the
    ``metrics`` of a saved ``stats`` payload; anything else exits 2 with
    one ``error:`` line naming the file."""

    @pytest.fixture(params=["export", "stats"])
    def metrics_file(self, request, tmp_path):
        export = _registry_export()
        if request.param == "stats":
            payload = {"sessions_open": 1, "metrics": export}
        else:
            payload = export
        path = tmp_path / f"{request.param}.json"
        path.write_text(json.dumps(payload))
        return path

    def test_prometheus(self, metrics_file, capsys):
        from repro.obs import render_prometheus

        assert main(["obs", "dump", "--input", str(metrics_file)]) == 0
        out = capsys.readouterr().out
        assert out == render_prometheus(_registry_export())
        assert "repro_appends_total 3\n" in out
        assert 'repro_batch_fixes_bucket{le="10"} 1\n' in out

    def test_json(self, metrics_file, capsys):
        argv = ["obs", "dump", "--input", str(metrics_file), "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == _registry_export()

    @pytest.mark.parametrize("name", list(_NOT_METRICS))
    def test_refusal(self, name, tmp_path, capsys):
        path = tmp_path / name
        if _NOT_METRICS[name] is None:
            path.mkdir()
        else:
            path.write_bytes(_NOT_METRICS[name])
        assert main(["obs", "dump", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1
