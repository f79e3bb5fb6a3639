"""Spec-string support in :func:`make_online_compressor`.

The factory accepts the same unified grammar as the batch registry, so a
spec that configures a pipeline run (or a server session) works verbatim
for streaming — and the failure modes are spelled out, not KeyErrors
from parameter plumbing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.registry import available_compressors
from repro.exceptions import CompressorSpecError, StreamError
from repro.streaming import (
    available_online_compressors,
    make_online_compressor,
)


class TestSpecStrings:
    def test_opw_tr_spec(self):
        opw = make_online_compressor("opw-tr:epsilon=30")
        assert opw.criterion == "synchronized"
        assert opw.epsilon == 30.0
        assert opw.max_speed_error is None

    def test_opw_sp_spec(self):
        opw = make_online_compressor("opw-sp:epsilon=30,max_speed_error=5")
        assert opw.criterion == "synchronized"
        assert opw.max_speed_error == 5.0

    def test_nopw_spec_with_max_window(self):
        opw = make_online_compressor("nopw:epsilon=12.5,max_window=64")
        assert opw.criterion == "perpendicular"
        assert opw.epsilon == 12.5
        assert opw.max_window == 64

    def test_operb_spec(self):
        operb = make_online_compressor("operb:epsilon=30")
        assert operb.algorithm == "operb"
        assert operb.sync_error_bound() == 30.0

    def test_cised_spec(self):
        cised = make_online_compressor("cised:epsilon=30,m=12")
        assert cised.algorithm == "cised"
        assert cised.sync_error_bound() == 30.0
        assert cised.m == 12

    def test_cli_aliases(self):
        # The CLI's batch aliases work unchanged for streaming.
        opw = make_online_compressor("opw-sp:max_dist_error=30,speed=5")
        assert opw.epsilon == 30.0
        assert opw.max_speed_error == 5.0

    def test_max_dist_error_alias_for_one_pass(self):
        operb = make_online_compressor("operb:max_dist_error=30")
        assert operb.sync_error_bound() == 30.0

    def test_engine_entry_is_ignored(self):
        # Batch spec strings may carry engine=python; streaming has one
        # engine, so the entry must not be an error.
        opw = make_online_compressor("opw-tr:epsilon=30,engine=python")
        assert opw.epsilon == 30.0

    def test_explicit_kwargs_override_spec(self):
        opw = make_online_compressor("opw-tr:epsilon=30", epsilon=7.0)
        assert opw.epsilon == 7.0


class TestSpecErrors:
    @pytest.mark.parametrize("name", ["td-tr:epsilon=30", "ndp:epsilon=30",
                                      "bottom-up:epsilon=30"])
    def test_batch_only_algorithm_is_a_clear_error(self, name):
        with pytest.raises(StreamError) as err:
            make_online_compressor(name)
        message = str(err.value)
        assert "batch-only" in message
        for streamable in available_online_compressors():
            assert streamable in message  # the fix is named in the error

    def test_unknown_name_is_keyerror(self):
        with pytest.raises(KeyError):
            make_online_compressor("no-such-algo:epsilon=30")

    def test_unsupported_parameter(self):
        with pytest.raises(CompressorSpecError) as err:
            make_online_compressor("opw-tr:epsilon=30,budget=5")
        assert "budget" in str(err.value)

    def test_unsupported_parameter_for_one_pass(self):
        # max_window is an OPW knob; the one-pass compressors hold no
        # window, so accepting it silently would be misleading.
        with pytest.raises(CompressorSpecError) as err:
            make_online_compressor("operb:epsilon=30,max_window=64")
        assert "max_window" in str(err.value)

    def test_malformed_spec(self):
        with pytest.raises(CompressorSpecError):
            make_online_compressor("opw-tr:epsilon")

    def test_missing_epsilon_in_spec(self):
        with pytest.raises(ValueError):
            make_online_compressor("opw-tr")

    def test_streamable_names_are_registered_batch_algorithms(self):
        # Threshold algorithms mirror a batch twin.  The budget
        # algorithms (SQUISH-E, STTrace) are inherently online — their
        # offline oracle is td-tr-budget, not a same-name batch twin.
        online_only = {"squish", "sttrace"}
        mirrored = set(available_online_compressors()) - online_only
        assert mirrored <= set(available_compressors())


class TestRegisterOnline:
    def test_third_party_registration(self):
        from repro.streaming import StreamingOPERB, register_online
        from repro.core.registry import _ROWS

        def _factory(*, epsilon):
            return StreamingOPERB(epsilon=epsilon)

        register_online("test-operb-clone", _factory, {"epsilon": "epsilon"})
        try:
            assert "test-operb-clone" in available_online_compressors()
            clone = make_online_compressor("test-operb-clone:epsilon=9")
            assert clone.sync_error_bound() == 9.0
        finally:
            _ROWS.pop("test-operb-clone", None)

    def test_duplicate_registration_rejected(self):
        from repro.streaming import register_online

        with pytest.raises(ValueError, match="already registered"):
            register_online("operb", lambda **kw: None, {})

    @pytest.mark.parametrize(
        "module", ["repro", "repro.streaming", "repro.streaming.registry"]
    )
    def test_builtin_names_taken_in_a_fresh_interpreter(self, module):
        """Whichever import hands out ``register_online``, the built-in
        algorithms are registered by then: a fresh process cannot take
        ``operb``, and its next lookup still builds the built-in."""
        probe = (
            f"from {module} import register_online\n"
            "try:\n"
            "    register_online('operb', lambda **kw: None, {})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "from repro.streaming import make_online_compressor\n"
            "print(type(make_online_compressor('operb:epsilon=5')).__name__)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.splitlines()
        assert out == [
            "online algorithm 'operb' is already registered", "StreamingOPERB",
        ]
