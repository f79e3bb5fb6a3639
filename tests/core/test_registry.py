"""Tests for the name-based compressor registry."""

from __future__ import annotations

import pytest

from repro.core import (
    OPWSP,
    TDTR,
    available_compressors,
    make_compressor,
)
from repro.exceptions import CompressorSpecError


class TestRegistry:
    def test_all_names_construct(self, zigzag):
        params = {
            "ndp": {"epsilon": 30.0},
            "td-tr": {"epsilon": 30.0},
            "nopw": {"epsilon": 30.0},
            "bopw": {"epsilon": 30.0},
            "opw-tr": {"epsilon": 30.0},
            "operb": {"epsilon": 30.0},
            "cised": {"epsilon": 30.0},
            "opw-sp": {"max_dist_error": 30.0, "max_speed_error": 5.0},
            "td-sp": {"max_dist_error": 30.0, "max_speed_error": 5.0},
            "every-ith": {"step": 3},
            "distance-threshold": {"epsilon": 30.0},
            "angular": {"max_angle_rad": 0.5},
            "sliding-window": {"epsilon": 30.0},
            "bottom-up": {"epsilon": 30.0},
            "td-tr-budget": {"budget": 6},
            "bottom-up-budget": {"budget": 6},
            "bottom-up-total-error": {"max_mean_error": 10.0},
            "dead-reckoning": {"epsilon": 30.0},
        }
        assert sorted(params) == available_compressors()
        for name, kwargs in params.items():
            compressor = make_compressor(name, **kwargs)
            result = compressor.compress(zigzag)
            assert result.indices[0] == 0
            assert result.indices[-1] == len(zigzag) - 1

    def test_constructed_types(self):
        assert isinstance(make_compressor("td-tr", epsilon=10.0), TDTR)
        assert isinstance(
            make_compressor("opw-sp", max_dist_error=10.0, max_speed_error=5.0), OPWSP
        )

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="available"):
            make_compressor("super-compress")

    def test_unknown_name_error_names_every_registered_algorithm(self):
        from repro.core.registry import available_compressors
        from repro.exceptions import CompressorSpecError, UnknownCompressorError

        with pytest.raises(UnknownCompressorError) as excinfo:
            make_compressor("super-compress")
        message = str(excinfo.value)
        assert "super-compress" in message
        for name in available_compressors():
            assert name in message
        # Catchable both as a spec error and as the historical KeyError;
        # str() must read like a sentence, not a repr-quoted KeyError.
        assert isinstance(excinfo.value, CompressorSpecError)
        assert isinstance(excinfo.value, KeyError)
        assert not message.startswith('"')

    def test_unknown_name_in_spec_string_lists_options(self):
        from repro.exceptions import UnknownCompressorError

        with pytest.raises(UnknownCompressorError, match="td-tr"):
            make_compressor("super-compress:epsilon=30")

    def test_bad_params_propagate(self):
        with pytest.raises(CompressorSpecError):
            make_compressor("td-tr", wrong_param=1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_compressor("td-tr:epsilon=30,engine=python"),
            lambda: make_compressor("ndp", epsilon=30.0, engine="numpy"),
        ],
        ids=["spec", "keyword"],
    )
    def test_engine_parameter_is_refused(self, build):
        """The kernels choose scalar or numpy per sweep; a batch spec or
        keyword that still names an engine fails, naming it."""
        with pytest.raises(CompressorSpecError, match="engine"):
            build()
