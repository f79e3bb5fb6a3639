"""The process-level crash-safety scenarios of :mod:`repro.serve.chaos`.

``sigkill`` SIGKILLs a real ``repro serve`` subprocess mid-stream and
``worker-kill`` one worker of a router-fronted fleet; each asserts that
every session's stored stream is byte-identical to an uninterrupted run
(see :mod:`repro.serve.chaos` for the exact assertion). Both spawn
subprocesses and are ``slow``-marked. In-process faults are the rules
of the model in ``test_serve_model.py``.
"""

from __future__ import annotations

import pytest

import repro.serve.chaos
from repro.serve.chaos import SCENARIOS, run_chaos, run_scenario

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


def test_an_empty_selection_runs_nothing(monkeypatch):
    ran: list[str] = []
    monkeypatch.setattr(
        repro.serve.chaos, "run_scenario", lambda name, **_: ran.append(name)
    )
    report = run_chaos(())
    assert ran == []
    assert report["scenarios"] == []


@pytest.mark.slow
@pytest.mark.parametrize("scenario", SCENARIOS)
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
