"""Tests for retry backoff, malformed-input handling, and resumable runs."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import TDTR
from repro.exceptions import CheckpointError, PipelineError, TrajectoryError
from repro.pipeline import executor as executor_module
from repro.pipeline.checkpoint import JOURNAL_NAME, MANIFEST_NAME, RunCheckpoint
from repro.pipeline.engine import BatchEngine, load_fleet
from repro.pipeline.executor import (
    FailurePolicy,
    MalformedItemError,
    execute,
)
from repro.obs import Registry
from repro.trajectory import Trajectory
from repro.trajectory.io import write_csv


@pytest.fixture
def csv_fleet_dir(tmp_path) -> Path:
    rng = np.random.default_rng(3)
    directory = tmp_path / "fleet"
    directory.mkdir()
    for i in range(4):
        t = np.arange(80, dtype=float) * 10.0
        xy = np.cumsum(rng.normal(0.0, 30.0, size=(80, 2)), axis=0)
        write_csv(
            Trajectory(t, xy, object_id=f"walk-{i}"), directory / f"walk-{i}.csv"
        )
    return directory


class TestRetryBackoff:
    def test_parse_backoff_spec(self):
        policy = FailurePolicy.parse("retry(3,backoff=0.1)")
        assert policy.mode == "retry"
        assert policy.retries == 3
        assert policy.backoff == 0.1

    def test_str_round_trips(self):
        for spec in ["retry(3,backoff=0.1)", "retry(2)", "skip"]:
            assert str(FailurePolicy.parse(spec)) == spec

    def test_negative_backoff_rejected(self):
        with pytest.raises(PipelineError, match="backoff"):
            FailurePolicy("retry", 2, -1.0)

    def test_no_delay_without_backoff(self):
        policy = FailurePolicy.parse("retry(3)")
        assert policy.retry_delay("item", 2) == 0.0

    def test_no_delay_before_first_attempt(self):
        policy = FailurePolicy.parse("retry(3,backoff=0.1)")
        assert policy.retry_delay("item", 1) == 0.0

    def test_delay_deterministic_and_jittered(self):
        policy = FailurePolicy.parse("retry(5,backoff=0.1)")
        d2 = policy.retry_delay("item-a", 2)
        assert d2 == policy.retry_delay("item-a", 2)
        assert 0.05 <= d2 < 0.15  # base 0.1, jitter in [0.5, 1.5)
        assert policy.retry_delay("item-b", 2) != d2

    def test_delay_doubles_per_attempt(self):
        policy = FailurePolicy.parse("retry(5,backoff=0.2)")
        for attempt in (3, 4, 5):
            lower = 0.2 * 2 ** (attempt - 2) * 0.5
            upper = 0.2 * 2 ** (attempt - 2) * 1.5
            assert lower <= policy.retry_delay("x", attempt) < upper

    def test_execute_sleeps_the_policy_schedule(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(executor_module, "_sleep", slept.append)

        def always_fails(_payload):
            raise RuntimeError("nope")

        policy = FailurePolicy.parse("retry(2,backoff=0.1)")
        outcomes = execute(always_fails, [("it", 0)], policy=policy)
        assert not outcomes[0].ok and outcomes[0].attempts == 3
        assert slept == [policy.retry_delay("it", 2), policy.retry_delay("it", 3)]

    def test_execute_does_not_sleep_after_success(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(executor_module, "_sleep", slept.append)
        policy = FailurePolicy.parse("retry(3,backoff=0.5)")
        outcomes = execute(lambda payload: payload, [("it", 42)], policy=policy)
        assert outcomes[0].ok and slept == []


class TestMalformedModes:
    @staticmethod
    def _bad_input(_payload):
        raise MalformedItemError("unreadable input")

    def test_defer_follows_policy(self):
        outcomes = execute(self._bad_input, [("a", 0)], policy="skip")
        assert not outcomes[0].ok

    def test_defer_raise_policy_propagates(self):
        with pytest.raises(MalformedItemError):
            execute(self._bad_input, [("a", 0)], policy="raise")

    def test_raise_mode_overrides_skip_policy(self):
        with pytest.raises(MalformedItemError):
            execute(
                self._bad_input, [("a", 0)], policy="skip", malformed_mode="raise"
            )

    def test_isolate_never_retries(self):
        calls: list[str] = []

        def bad(_payload):
            calls.append("call")
            raise MalformedItemError("bad bytes")

        outcomes = execute(
            bad, [("a", 0)], policy="retry(5)", malformed_mode="isolate"
        )
        assert not outcomes[0].ok
        assert outcomes[0].malformed
        assert calls == ["call"]  # malformed input is not retried

    def test_isolate_never_aborts(self):
        outcomes = execute(
            self._bad_input, [("a", 0)], policy="raise", malformed_mode="isolate"
        )
        assert not outcomes[0].ok and outcomes[0].malformed


class TestEngineQuarantine:
    def test_skip_malformed_file(self, csv_fleet_dir):
        (csv_fleet_dir / "broken.csv").write_text("t,x,y\nno,numbers,here\n")
        engine = BatchEngine("td-tr:epsilon=30", on_malformed="skip")
        run = engine.run(csv_fleet_dir)
        assert len(run.failures) == 1
        assert len(run.results) == 4
        assert (csv_fleet_dir / "broken.csv").exists()  # skip leaves it

    def test_quarantine_moves_file_with_reason(self, csv_fleet_dir, tmp_path):
        (csv_fleet_dir / "broken.csv").write_text("t,x,y\nno,numbers,here\n")
        bad_dir = tmp_path / "bad"
        engine = BatchEngine(
            "td-tr:epsilon=30", on_malformed=f"quarantine:{bad_dir}"
        )
        metrics = Registry()
        run = engine.run(csv_fleet_dir, metrics=metrics)
        assert run.n_quarantined == 1
        assert not (csv_fleet_dir / "broken.csv").exists()
        assert (bad_dir / "broken.csv").exists()
        reason = json.loads((bad_dir / "broken.csv.reason.json").read_text())
        assert reason["item_id"] == "broken"
        assert "TrajectoryError" in reason["error_type"]
        assert metrics.counter("items_quarantined").value == 1

    def test_quarantine_collision_gets_suffix(self, csv_fleet_dir, tmp_path):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        (bad_dir / "broken.csv").write_text("already here")
        (csv_fleet_dir / "broken.csv").write_text("t,x,y\nno,numbers,here\n")
        engine = BatchEngine(
            "td-tr:epsilon=30", on_malformed=f"quarantine:{bad_dir}"
        )
        run = engine.run(csv_fleet_dir)
        assert run.n_quarantined == 1
        assert (bad_dir / "broken.1.csv").exists()
        assert (bad_dir / "broken.csv").read_text() == "already here"

    def test_default_still_raises(self, csv_fleet_dir):
        (csv_fleet_dir / "broken.csv").write_text("t,x,y\nno,numbers,here\n")
        engine = BatchEngine("td-tr:epsilon=30")
        with pytest.raises(TrajectoryError):
            engine.run(csv_fleet_dir)

    def test_invalid_policy_rejected_at_construction(self):
        with pytest.raises(PipelineError, match="on_malformed"):
            BatchEngine("td-tr:epsilon=30", on_malformed="explode")

    def test_load_fleet_quarantine(self, csv_fleet_dir, tmp_path):
        (csv_fleet_dir / "broken.csv").write_text("t,x,y\nno,numbers,here\n")
        bad_dir = tmp_path / "bad"
        fleet, failures = load_fleet(
            csv_fleet_dir, on_error="skip", on_malformed=f"quarantine:{bad_dir}"
        )
        assert len(fleet) == 4
        assert len(failures) == 1
        assert failures[0].quarantined_to == str(bad_dir / "broken.csv")
        assert (bad_dir / "broken.csv").exists()


class TestResume:
    def test_full_rerun_resumes_everything(self, csv_fleet_dir, tmp_path):
        engine = BatchEngine("td-tr:epsilon=30")
        ck = tmp_path / "ck"
        first = engine.run(csv_fleet_dir, checkpoint=ck)
        metrics = Registry()
        second = engine.run(csv_fleet_dir, checkpoint=ck, metrics=metrics)
        assert second.items_resumed == 4
        assert metrics.counter("items_resumed").value == 4
        for a, b in zip(first.results, second.results):
            assert a.item_id == b.item_id
            assert a.index == b.index
            assert (a.indices == b.indices).all()

    def test_resumes_instance_manifest_that_names_an_engine(
        self, csv_fleet_dir, tmp_path
    ):
        """An instance's repr carried ``engine='numpy'`` while compressors
        took one; such a checkpoint resumes under the same instance."""
        engine = BatchEngine(TDTR(epsilon=30.0))
        ck = tmp_path / "ck"
        engine.run(csv_fleet_dir, checkpoint=ck)
        manifest_path = ck / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["compressor"] == "TDTR(epsilon=30.0, traversal='iterative')"
        manifest["compressor"] = (
            "TDTR(engine='numpy', epsilon=30.0, traversal='iterative')"
        )
        manifest_path.write_text(json.dumps(manifest))
        assert engine.run(csv_fleet_dir, checkpoint=ck).items_resumed == 4

    def test_partial_journal_reruns_the_rest(self, csv_fleet_dir, tmp_path):
        engine = BatchEngine("td-tr:epsilon=30")
        ck = tmp_path / "ck"
        first = engine.run(csv_fleet_dir, checkpoint=ck)
        journal = ck / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:2]))
        second = engine.run(csv_fleet_dir, checkpoint=ck)
        assert second.items_resumed == 2
        for a, b in zip(first.results, second.results):
            assert a.item_id == b.item_id
            assert (a.indices == b.indices).all()
        # the journal is complete again after the resumed run
        assert len(journal.read_text().splitlines()) == 4

    def test_torn_journal_tail_tolerated(self, csv_fleet_dir, tmp_path):
        engine = BatchEngine("td-tr:epsilon=30")
        ck = tmp_path / "ck"
        engine.run(csv_fleet_dir, checkpoint=ck)
        journal = ck / JOURNAL_NAME
        text = journal.read_text()
        journal.write_text(text[:-7])  # crash mid-append of the last line
        second = engine.run(csv_fleet_dir, checkpoint=ck)
        assert second.items_resumed == 3
        assert len(second.results) == 4

    def test_mismatched_config_fails_loudly(self, csv_fleet_dir, tmp_path):
        ck = tmp_path / "ck"
        BatchEngine("td-tr:epsilon=30").run(csv_fleet_dir, checkpoint=ck)
        with pytest.raises(CheckpointError, match="compressor"):
            BatchEngine("td-tr:epsilon=15").run(csv_fleet_dir, checkpoint=ck)

    def test_mismatched_items_fails_loudly(self, csv_fleet_dir, tmp_path):
        ck = tmp_path / "ck"
        engine = BatchEngine("td-tr:epsilon=30")
        engine.run(csv_fleet_dir, checkpoint=ck)
        (csv_fleet_dir / "walk-0.csv").unlink()
        with pytest.raises(CheckpointError, match="item_ids"):
            engine.run(csv_fleet_dir, checkpoint=ck)

    def test_journal_entry_for_unknown_item_rejected(self, csv_fleet_dir, tmp_path):
        ck = tmp_path / "ck"
        engine = BatchEngine("td-tr:epsilon=30")
        engine.run(csv_fleet_dir, checkpoint=ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        with RunCheckpoint.open(ck, {k: v for k, v in manifest.items() if k != "format"}) as handle:
            handle.record({"index": 99, "ok": True, "item_id": "ghost"})
        with pytest.raises(CheckpointError, match="99"):
            engine.run(csv_fleet_dir, checkpoint=ck)

    def test_checkpoint_with_failures_resumes_failures_too(
        self, csv_fleet_dir, tmp_path
    ):
        (csv_fleet_dir / "broken.csv").write_text("t,x,y\nno,numbers,here\n")
        engine = BatchEngine("td-tr:epsilon=30", on_error="skip", on_malformed="skip")
        ck = tmp_path / "ck"
        first = engine.run(csv_fleet_dir, checkpoint=ck)
        assert len(first.failures) == 1
        second = engine.run(csv_fleet_dir, checkpoint=ck)
        assert second.items_resumed == 5
        assert len(second.failures) == 1
        assert second.failures[0].item_id == "broken"
