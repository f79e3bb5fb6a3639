"""Online compressors hold bounded memory however long their stream runs.

A per-stream compressor's state must not grow with the stream: the
budget compressors hold O(budget), the one-pass and dead-reckoning
ones O(1). Each test pushes 2,000 fixes, reads the traced memory,
pushes 18,000 more and reads it again; the difference must stay under
:data:`GROWTH_LIMIT_BYTES`. The fixes are allocated before tracing
starts, so only what the compressor allocates and keeps is counted.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.streaming import make_online_compressor
from repro.types import Fix

SPECS = (
    "squish:budget=100",
    "sttrace:budget=100",
    "operb:epsilon=25",
    "cised:epsilon=25",
    "dead-reckoning:epsilon=25",
)

FIRST = 2_000
TOTAL = 20_000
GROWTH_LIMIT_BYTES = 64 * 1024


def random_walk(n: int, seed: int = 19) -> list[Fix]:
    """1 Hz fixes with normally distributed 10 m steps."""
    rng = random.Random(seed)
    x = y = 0.0
    fixes = []
    for i in range(n):
        x += rng.gauss(0.0, 10.0)
        y += rng.gauss(0.0, 10.0)
        fixes.append(Fix(float(i), x, y))
    return fixes


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("spec", SPECS)
def test_memory_does_not_grow_with_the_stream(spec):
    fixes = random_walk(TOTAL)
    compressor = make_online_compressor(spec)
    tracemalloc.start()
    try:
        for fix in fixes[:FIRST]:
            compressor.push(fix)
        early = traced_bytes()
        for fix in fixes[FIRST:]:
            compressor.push(fix)
        late = traced_bytes()
    finally:
        tracemalloc.stop()
    assert late - early < GROWTH_LIMIT_BYTES, (
        f"{spec}: {late - early} bytes more after {TOTAL} fixes than after {FIRST}"
    )
