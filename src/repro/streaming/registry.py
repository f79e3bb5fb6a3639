"""Name-based construction of online (push-based) compressors.

The online forms are rows of the one algorithm table in
:mod:`repro.core.registry`, which also holds the batch forms: a spec
string names the same algorithm, keys and aliases in both, and a bad
key is the same error. This module re-exports the table's online entry
points.
"""

from repro.core.registry import (
    available_online_compressors,
    make_online_compressor,
    register_online,
)

__all__ = [
    "available_online_compressors",
    "make_online_compressor",
    "register_online",
]
