"""The crash-safety acceptance tests, driven by the chaos harness.

Each test runs one scripted disaster and asserts the durability
contract: the acknowledged prefix of every session is recovered
byte-identical to an uninterrupted run (see :mod:`repro.serve.chaos`
for the exact assertion). The ``sigkill`` scenario spawns real
``repro serve`` subprocesses and is additionally ``slow``-marked.
"""

from __future__ import annotations

import pytest

import repro.serve.chaos
from tests.serve.chaos import FAST_SCENARIOS, SLOW_SCENARIOS, run_chaos, run_scenario

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


def test_an_empty_selection_runs_nothing(monkeypatch):
    ran: list[str] = []
    monkeypatch.setattr(
        repro.serve.chaos, "run_scenario", lambda name, **_: ran.append(name)
    )
    report = run_chaos(())
    assert ran == []
    assert report["scenarios"] == []


@pytest.mark.parametrize("scenario", FAST_SCENARIOS)
@pytest.mark.parametrize("seed", [7, 23])
def test_fast_scenario_recovers_acked_prefix(scenario, seed):
    result = run_scenario(scenario, seed=seed, n_fixes=100)
    assert result.passed, f"{scenario} (seed {seed}): {result.detail}"
    # The window invariant is part of the harness; re-assert the numbers
    # it reported are coherent so a silently-degenerate run (0 fixes
    # acked, trivially 'recovered') cannot pass.
    assert result.detail["acked_raw"] > 0
    assert (
        result.detail["acked_raw"]
        <= result.detail["recovered_raw"]
        <= result.detail["sent_raw"]
    )


def test_fsync_failure_refuses_instead_of_lying():
    """The specific wal-failure behaviours beyond prefix recovery."""
    result = run_scenario("fsync-fail", seed=11, n_fixes=100)
    assert result.passed, result.detail
    assert result.detail["failure_code"] == "wal-failure"
    # Something real was rejected: the acked prefix stops strictly
    # before everything that was sent.
    assert result.detail["acked_raw"] < 100


def test_torn_tail_is_counted_not_fatal():
    result = run_scenario("torn-tail", seed=11, n_fixes=100)
    assert result.passed, result.detail
    assert result.detail["dropped_lines"] >= 1
    # The first recovery truncated the damage out of the segment, so the
    # second crash-restart inside the scenario rediscovered none of it.
    assert result.detail["dropped_lines_second_restart"] == 0


def test_disconnect_resend_is_deduplicated():
    result = run_scenario("disconnect", seed=11, n_fixes=100)
    assert result.passed, result.detail
    assert result.detail["duplicates_replayed"] == 1


@pytest.mark.slow
@pytest.mark.parametrize("scenario", SLOW_SCENARIOS)
def test_process_murder_recovers_acked_prefix(scenario):
    result = run_scenario(scenario, seed=7, n_fixes=100)
    assert result.passed, result.detail
    if scenario == "sigkill":
        # Single server: the client must have actually redialled.
        assert result.detail["reconnects"] >= 1
    else:  # worker-kill: the fleet absorbed the murder
        assert result.detail["respawns"] >= 1
        assert set(result.detail["worker_exit_codes"].values()) == {0}
        # Both shards held sessions, so the kill provably hit live state
        # while the surviving shard kept serving.
        assert set(result.detail["owners"].values()) == {
            "worker-0", "worker-1"
        }
