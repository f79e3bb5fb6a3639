"""Tests for compressor spec strings and keyword-only construction."""

from __future__ import annotations

import pickle

import pytest

from repro.core import (
    BOPW,
    CISED,
    NOPW,
    OPERB,
    OPWSP,
    OPWTR,
    TDSP,
    TDTR,
    AngularChange,
    BottomUp,
    CompressorSpec,
    DistanceThreshold,
    DouglasPeucker,
    EveryIth,
    SlidingWindow,
    make_compressor,
    parse_compressor_spec,
)
from repro.core.budget import BottomUpBudget, BottomUpTotalError, TDTRBudget
from repro.core.dead_reckoning import DeadReckoning
from repro.exceptions import CompressorSpecError


class TestParseSpec:
    def test_bare_name(self):
        spec = parse_compressor_spec("td-tr")
        assert spec.name == "td-tr"
        assert spec.params == ()

    def test_name_with_params(self):
        spec = parse_compressor_spec("td-tr:epsilon=30")
        assert spec.name == "td-tr"
        assert spec.params_dict == {"epsilon": 30}

    def test_multiple_params_and_aliases(self):
        spec = parse_compressor_spec("opw-sp:epsilon=30,speed=5")
        compressor = spec.build()
        assert isinstance(compressor, OPWSP)
        assert compressor.max_dist_error == 30.0
        assert compressor.max_speed_error == 5.0

    def test_value_coercion(self):
        spec = parse_compressor_spec("x:a=3,b=2.5,c=true,d=off,e=violating")
        assert spec.params_dict == {
            "a": 3, "b": 2.5, "c": True, "d": "off", "e": "violating",
        }
        assert isinstance(spec.params_dict["a"], int)

    def test_false_coercion(self):
        assert parse_compressor_spec("x:flag=false").params_dict == {"flag": False}

    def test_whitespace_tolerated(self):
        spec = parse_compressor_spec(" td-tr : epsilon = 30 ")
        assert spec.name == "td-tr"
        assert spec.params_dict == {"epsilon": 30}

    def test_str_round_trips(self):
        for text in ("td-tr:epsilon=30", "opw-sp:epsilon=30,speed=5", "ndp"):
            spec = parse_compressor_spec(text)
            again = parse_compressor_spec(str(spec))
            assert again == spec

    @pytest.mark.parametrize(
        "text",
        ["", ":epsilon=30", "td-tr:epsilon", "td-tr:=30", "td-tr:2bad=1",
         "td-tr:epsilon=30,,", "td-tr:a b=1", "td-tr:epsilon="],
    )
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(CompressorSpecError):
            parse_compressor_spec(text)

    def test_unknown_name_fails_at_build(self):
        spec = parse_compressor_spec("super-compress:epsilon=1")
        with pytest.raises(KeyError, match="available"):
            spec.build()

    def test_unknown_param_fails_at_build(self):
        with pytest.raises(CompressorSpecError):
            parse_compressor_spec("td-tr:bogus=1").build()

    def test_make_compressor_accepts_specs(self):
        compressor = make_compressor("td-tr:epsilon=30")
        assert isinstance(compressor, TDTR)
        assert compressor.epsilon == 30.0

    def test_make_compressor_kwargs_override_spec(self):
        compressor = make_compressor("td-tr:epsilon=30", epsilon=99.0)
        assert compressor.epsilon == 99.0

    def test_make_compressor_plain_name_unchanged(self):
        assert isinstance(make_compressor("td-tr", epsilon=10.0), TDTR)

    def test_spec_equality_and_hash(self):
        a = parse_compressor_spec("td-tr:epsilon=30")
        b = CompressorSpec("td-tr", (("epsilon", 30),))
        assert a == b
        assert hash(a) == hash(b)


#: Every concrete compressor with minimal keyword arguments.
_ALL_KEYWORD_FORMS = [
    (DouglasPeucker, {"epsilon": 30.0}),
    (TDTR, {"epsilon": 30.0}),
    (NOPW, {"epsilon": 30.0}),
    (BOPW, {"epsilon": 30.0}),
    (OPWTR, {"epsilon": 30.0}),
    (OPERB, {"epsilon": 30.0}),
    (CISED, {"epsilon": 30.0}),
    (OPWSP, {"max_dist_error": 30.0, "max_speed_error": 5.0}),
    (TDSP, {"max_dist_error": 30.0, "max_speed_error": 5.0}),
    (EveryIth, {"step": 3}),
    (DistanceThreshold, {"epsilon": 30.0}),
    (AngularChange, {"max_angle_rad": 0.5}),
    (SlidingWindow, {"epsilon": 30.0}),
    (BottomUp, {"epsilon": 30.0}),
    (TDTRBudget, {"budget": 6}),
    (BottomUpBudget, {"budget": 6}),
    (BottomUpTotalError, {"max_mean_error": 10.0}),
    (DeadReckoning, {"epsilon": 30.0}),
]


class TestKeywordOnlyConstruction:
    @pytest.mark.parametrize(("cls", "kwargs"), _ALL_KEYWORD_FORMS)
    def test_keyword_construction_is_silent(self, cls, kwargs, recwarn):
        cls(**kwargs)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    @pytest.mark.parametrize(("cls", "kwargs"), _ALL_KEYWORD_FORMS)
    def test_positional_construction_rejected(self, cls, kwargs):
        """The PR-1 positional shim is gone: thresholds are keyword-only."""
        values = list(kwargs.values())
        with pytest.raises(TypeError):
            cls(*values)

    @pytest.mark.parametrize(("cls", "kwargs"), _ALL_KEYWORD_FORMS)
    def test_compressors_pickle(self, cls, kwargs):
        """Process-pool dispatch requires every compressor to pickle."""
        compressor = cls(**kwargs)
        clone = pickle.loads(pickle.dumps(compressor))
        assert type(clone) is cls
        for name in kwargs:
            assert getattr(clone, name) == getattr(compressor, name)
