"""Spec oracle: what each spec string builds, in the batch and online forms.

For every algorithm name, each required parameter is spelled in turn by
every key that may name it (its keyword and each alias), and each
optional parameter and an ``engine=`` entry are added to the base spec
one at a time. Every spec is built in both forms; the class and state
(``vars()``, recursively) of each spec that builds are pinned in
``tests/data/golden/spec_oracle.json``. A spec that builds in one form
only, or in neither, is pinned by its absence from that form's table.
Regenerate with ``pytest --regen-golden`` only when a change is meant to
alter what a spec builds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import _ROWS, make_compressor, resolve
from repro.exceptions import CompressorParameterError, ReproError
from repro.streaming import OnlineCompressor, make_online_compressor

ORACLE_PATH = Path(__file__).resolve().parents[1] / "data" / "golden" / "spec_oracle.json"

FORMS = {"batch": make_compressor, "online": make_online_compressor}

EPSILON = ("epsilon", "max_dist_error")
SPEED = ("speed", "max_speed_error")
BUDGET = ("budget",)

#: Per algorithm name: its required parameters, each as the keys that
#: may spell it plus a value, and its optional ``key=value`` entries.
PARAMETERS: dict[str, tuple[list[tuple[tuple[str, ...], object]], list[str]]] = {
    "ndp": ([(EPSILON, 25)], ["traversal=recursive"]),
    "td-tr": ([(EPSILON, 25)], ["traversal=recursive"]),
    "nopw": ([(EPSILON, 25)], ["max_window=100"]),
    "bopw": ([(EPSILON, 25)], []),
    "opw-tr": ([(EPSILON, 25)], ["strategy=before-float", "max_window=100"]),
    "opw-sp": ([(EPSILON, 25), (SPEED, 4)], ["max_window=100"]),
    "operb": ([(EPSILON, 25)], []),
    "cised": ([(EPSILON, 25)], ["m=12"]),
    "td-sp": ([(EPSILON, 25), (SPEED, 4)], []),
    "every-ith": ([(("step",), 3)], []),
    "distance-threshold": ([(EPSILON, 25)], []),
    "angular": ([(("angle", "max_angle_rad"), 0.5)], ["max_gap_m=40"]),
    "sliding-window": (
        [(EPSILON, 25)], ["window_size=16", "criterion=synchronized"]
    ),
    "bottom-up": ([(EPSILON, 25)], ["criterion=perpendicular"]),
    "td-tr-budget": ([(BUDGET, 6)], ["criterion=perpendicular"]),
    "bottom-up-budget": ([(BUDGET, 6)], ["criterion=perpendicular"]),
    "bottom-up-total-error": (
        [(("epsilon", "max_mean_error", "max_dist_error"), 12)], []
    ),
    "dead-reckoning": ([(EPSILON, 25)], []),
    "squish": ([(BUDGET, 6)], []),
    "sttrace": ([(BUDGET, 6)], []),
}


def specs_for(name: str) -> list[str]:
    """The oracle's spec strings for ``name``, base spec first."""
    required, optional = PARAMETERS[name]
    base = [f"{keys[0]}={value}" for keys, value in required]
    entries = [base]
    for slot, (keys, value) in enumerate(required):
        for key in keys[1:]:
            entries.append([*base[:slot], f"{key}={value}", *base[slot + 1:]])
    entries.extend([*base, extra] for extra in [*optional, "engine=python"])
    return [f"{name}:{','.join(entry)}" for entry in entries]


def state(value: object) -> object:
    """A JSON-ready image of ``value``: classes, ``vars()`` and values."""
    if isinstance(value, (list, tuple)):
        return [state(item) for item in value]
    if isinstance(value, dict):
        return {str(key): state(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if callable(value) and hasattr(value, "__qualname__"):
        return f"{value.__module__}.{value.__qualname__}"
    if hasattr(value, "__dict__"):
        cls = type(value)
        return {"class": f"{cls.__module__}.{cls.__qualname__}", "vars": state(vars(value))}
    return value


def built(form: str, spec: str) -> object:
    """The state ``spec`` builds in ``form``, or None when it is refused."""
    try:
        return state(FORMS[form](spec))
    except (ReproError, TypeError, ValueError, KeyError):
        return None


def oracle(form: str, name: str) -> dict[str, object]:
    return {
        spec: image
        for spec in specs_for(name)
        if (image := built(form, spec)) is not None
    }


def test_regen_spec_oracle(regen_golden):
    """Not a test when run normally; rewrites the oracle under --regen-golden."""
    if not regen_golden:
        pytest.skip("pass --regen-golden to regenerate")
    blob = {
        form: {
            spec: image
            for name in sorted(PARAMETERS)
            for spec, image in oracle(form, name).items()
        }
        for form in FORMS
    }
    ORACLE_PATH.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_specs_build_as_pinned(name, form, regen_golden):
    if regen_golden:
        pytest.skip("regenerating, not checking")
    pinned = json.loads(ORACLE_PATH.read_text())[form]
    want = {spec: pinned[spec] for spec in specs_for(name) if spec in pinned}
    got = oracle(form, name)
    assert sorted(got) == sorted(want), f"{name} ({form}): the set of specs that build changed"
    for spec, image in want.items():
        assert got[spec] == image, f"{spec} ({form}) builds a different object"


#: Every (name, form) pair the table has.
ROW_FORMS = [
    (name, form) for name in sorted(_ROWS) for form in sorted(FORMS)
    if _ROWS[name].targets[form] is not None
]


def test_oracle_covers_every_row():
    assert set(PARAMETERS) == set(_ROWS)


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_row_is_consistent(name):
    """Each target resolves, a batch class carries its row's name, an
    online target builds an OnlineCompressor, and each alias names a
    keyword that one of the row's forms accepts."""
    row = _ROWS[name]
    forms = [row.form(form) for form in FORMS if row.targets[form] is not None]
    assert forms
    if row.targets["batch"] is not None:
        assert resolve(name, "batch").target.name == name
    if row.targets["online"] is not None:
        base = specs_for(name)[0]
        assert isinstance(make_online_compressor(base), OnlineCompressor)
    keywords = {keyword for form in forms for keyword in form.keys.values()}
    assert set(row.aliases.values()) <= keywords


@pytest.mark.parametrize(("name", "form"), ROW_FORMS)
def test_oracle_spells_every_accepted_key(name, form):
    spelled = {
        entry.partition("=")[0]
        for spec in specs_for(name)
        for entry in spec.partition(":")[2].split(",")
    }
    assert set(resolve(name, form).keys) <= spelled


@pytest.mark.parametrize(("name", "form"), ROW_FORMS)
def test_refusals_are_parameter_errors(name, form):
    """Every oracle spec a form does not build, a bare name (a missing
    required key) and an unknown key are one error type in both forms,
    whose message lists the accepted keys."""
    pinned = json.loads(ORACLE_PATH.read_text())[form]
    refused = [spec for spec in specs_for(name) if spec not in pinned]
    refused += [name, f"{specs_for(name)[0]},bogus=1"]
    accepted = f"accepted: {', '.join(sorted(resolve(name, form).keys))}"
    for spec in refused:
        with pytest.raises(CompressorParameterError, match=accepted):
            FORMS[form](spec)


def test_builtin_names_need_no_import():
    """Every built-in online name is a row before any streaming module
    is imported: nothing registers by import."""
    probe = (
        "import sys\n"
        "from repro.core.registry import available_online_compressors as online\n"
        "print(','.join(online()), 'repro.streaming' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert out == [
        "cised,dead-reckoning,nopw,operb,opw-sp,opw-tr,squish,sttrace", "False"
    ]
