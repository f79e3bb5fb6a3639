"""Golden regression: pinned eviction sequences of the budget compressors.

``tests/data/golden/evictions.json`` records, per stream, the
timestamps each operation (every push, and a renegotiation where the
stream has one) evicted, the final net retained timestamps and
``n_evicted``, for ``squish`` and ``sttrace``. The Hypothesis suites
in ``test_budget.py`` prove the eviction core's invariants; this file
pins its exact output, so a change to the heap, the priorities or the
tie-break diffs to the push whose evictions moved.

Streams: the three golden trips of ``tests/data/golden/`` at
``budget=8``, and one long walk on a 5 m grid (so priorities tie and
the insertion-order tie-break decides) whose budget is renegotiated
halfway.

To bless intentional changes::

    PYTHONPATH=src python -m pytest tests/streaming/test_golden_evictions.py --regen-golden

then review the ``evictions.json`` diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.streaming import Eviction, make_online_compressor
from repro.trajectory import io as _io
from repro.types import Fix

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "golden"
EXPECTED_PATH = GOLDEN_DIR / "evictions.json"

TRIPS = ("golden-urban", "golden-rural", "golden-highway")
ALGORITHMS = ("squish", "sttrace")

#: The long stream: this many fixes at budget ``LONG_BUDGET``, tightened
#: to ``LONG_RENEGOTIATED`` before fix ``LONG_FIXES // 2`` is pushed.
LONG_FIXES = 2400
LONG_BUDGET = 60
LONG_RENEGOTIATED = 15


def grid_walk(n: int, seed: int = 2004) -> list[Fix]:
    """A seeded walk on a 5 m grid with 1–3 s steps.

    Drawn from a 64-bit linear congruential generator rather than
    numpy's RNG, so the stream cannot change with the numpy version.
    """
    state = seed

    def draw(k: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % k

    t = x = y = 0
    fixes = []
    for _ in range(n):
        fixes.append(Fix(float(t), float(x), float(y)))
        t += 1 + draw(3)
        x += 5 * (draw(9) - 4)
        y += 5 * (draw(9) - 4)
    return fixes


def _trip(name: str) -> list[Fix]:
    return list(_io.read_csv(GOLDEN_DIR / f"{name}.csv", object_id=name))


def _streams() -> dict[str, tuple[str, list[Fix], dict[int, int]]]:
    """label -> (spec, fixes, {push index: budget renegotiated before it})."""
    streams = {}
    for algorithm in ALGORITHMS:
        for name in TRIPS:
            spec = f"{algorithm}:budget=8"
            streams[f"{name}/{spec}"] = (spec, _trip(name), {})
        spec = f"{algorithm}:budget={LONG_BUDGET}"
        streams[f"grid-walk/{spec}->{LONG_RENEGOTIATED}"] = (
            spec,
            grid_walk(LONG_FIXES),
            {LONG_FIXES // 2: LONG_RENEGOTIATED},
        )
    return streams


STREAMS = _streams()


def _record(spec: str, fixes: list[Fix], renegotiations: dict[int, int]) -> dict:
    compressor = make_online_compressor(spec)
    evicted: list[list[float]] = []
    net: dict[float, Fix] = {}

    def apply(events) -> None:
        gone = []
        for event in events:
            if isinstance(event, Eviction):
                del net[event.fix.t]
                gone.append(event.fix.t)
            else:
                net[event.t] = event
        evicted.append(gone)

    for index, fix in enumerate(fixes):
        if index in renegotiations:
            apply(compressor.renegotiate(renegotiations[index]))
        apply(compressor.push(fix))
    return {
        "n_evicted": compressor.n_evicted,
        "retained": sorted(net),
        "evicted": evicted,
    }


def _dump(blob: dict) -> str:
    """JSON with one line per operation, so a drift diffs to its push."""
    streams = []
    for label, record in blob.items():
        ops = ",\n      ".join(json.dumps(op) for op in record["evicted"])
        streams.append(
            f"  {json.dumps(label)}: {{\n"
            f'    "n_evicted": {record["n_evicted"]},\n'
            f'    "retained": {json.dumps(record["retained"])},\n'
            f'    "evicted": [\n      {ops}\n    ]\n  }}'
        )
    return "{\n" + ",\n".join(streams) + "\n}\n"


@pytest.fixture(scope="module")
def expected() -> dict:
    if not EXPECTED_PATH.exists():
        pytest.fail(
            f"{EXPECTED_PATH} missing; run pytest with --regen-golden to create it"
        )
    return json.loads(EXPECTED_PATH.read_text())


def test_regen_golden_evictions(regen_golden):
    """Not a test when run normally; rewrites evictions.json under --regen-golden."""
    if not regen_golden:
        pytest.skip("pass --regen-golden to regenerate")
    blob = {label: _record(*stream) for label, stream in STREAMS.items()}
    text = _dump(blob)
    assert json.loads(text) == blob
    EXPECTED_PATH.write_text(text)


@pytest.mark.parametrize("label", sorted(STREAMS))
def test_golden_evictions(label, expected, regen_golden):
    if regen_golden:
        pytest.skip("regenerating, not checking")
    assert label in expected, f"no golden entry for {label}; regenerate"
    want = expected[label]
    got = _record(*STREAMS[label])
    assert got["n_evicted"] == want["n_evicted"] > 0
    assert got["retained"] == want["retained"], f"{label}: retained set drifted"
    for index, (ops_got, ops_want) in enumerate(zip(got["evicted"], want["evicted"])):
        assert ops_got == ops_want, f"{label}: evictions of operation {index} drifted"
    assert len(got["evicted"]) == len(want["evicted"])
