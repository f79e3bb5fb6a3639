"""Name-based compressor construction and the compressor-spec grammar.

The experiment harness, the benchmarks and the examples refer to
algorithms by the short names the paper uses (``ndp``, ``td-tr``,
``opw-sp``...). :func:`make_compressor` turns such a name plus parameters
into a configured :class:`~repro.core.base.Compressor`.

Algorithm and parameters can also travel as one value — a *spec string*::

    name[:key=value[,key=value...]]

e.g. ``"td-tr:epsilon=30"`` or ``"opw-sp:epsilon=30,speed=5"``. Values
are coerced to ``int``, ``float`` or ``bool`` when they look like one,
and are kept as strings otherwise (``"td-tr:epsilon=30,traversal=recursive"``).
A few convenience aliases mirror the CLI's flag names: ``epsilon`` and
``speed`` map onto ``max_dist_error`` / ``max_speed_error`` for the SP
algorithms, ``epsilon`` onto ``max_mean_error`` for
``bottom-up-total-error``, and ``angle`` onto ``max_angle_rad``.
:func:`parse_compressor_spec` parses the grammar into a
:class:`CompressorSpec`; :func:`make_compressor` accepts either form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.angular import AngularChange
from repro.core.base import Compressor
from repro.core.bottom_up import BottomUp
from repro.core.budget import BottomUpBudget, BottomUpTotalError, TDTRBudget
from repro.core.dead_reckoning import DeadReckoning
from repro.core.douglas_peucker import DouglasPeucker
from repro.core.one_pass import CISED, OPERB
from repro.core.opening_window import BOPW, NOPW
from repro.core.opw_tr import OPWTR
from repro.core.sliding_window import SlidingWindow
from repro.core.spt import OPWSP, TDSP
from repro.core.td_tr import TDTR
from repro.core.uniform import DistanceThreshold, EveryIth
from repro.exceptions import CompressorSpecError, UnknownCompressorError

__all__ = [
    "COMPRESSORS",
    "CompressorSpec",
    "make_compressor",
    "parse_compressor_spec",
    "available_compressors",
]

#: Registry of constructors keyed by the paper's algorithm names.
COMPRESSORS: dict[str, Callable[..., Compressor]] = {
    "ndp": DouglasPeucker,
    "td-tr": TDTR,
    "nopw": NOPW,
    "bopw": BOPW,
    "opw-tr": OPWTR,
    "opw-sp": OPWSP,
    "operb": OPERB,
    "cised": CISED,
    "td-sp": TDSP,
    "every-ith": EveryIth,
    "distance-threshold": DistanceThreshold,
    "angular": AngularChange,
    "sliding-window": SlidingWindow,
    "bottom-up": BottomUp,
    "td-tr-budget": TDTRBudget,
    "bottom-up-budget": BottomUpBudget,
    "bottom-up-total-error": BottomUpTotalError,
    "dead-reckoning": DeadReckoning,
}

#: Per-algorithm parameter aliases, mirroring the CLI's flag names.
_PARAM_ALIASES: dict[str, dict[str, str]] = {
    "opw-sp": {"epsilon": "max_dist_error", "speed": "max_speed_error"},
    "td-sp": {"epsilon": "max_dist_error", "speed": "max_speed_error"},
    "operb": {"max_dist_error": "epsilon"},
    "cised": {"max_dist_error": "epsilon"},
    "bottom-up-total-error": {"epsilon": "max_mean_error"},
    "angular": {"angle": "max_angle_rad"},
}


def available_compressors() -> list[str]:
    """Sorted list of registered algorithm names."""
    return sorted(COMPRESSORS)


def _coerce_value(text: str) -> int | float | bool | str:
    """Coerce a spec value: int, then float, then bool, else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


@dataclass(frozen=True)
class CompressorSpec:
    """An algorithm name plus constructor parameters, as one value.

    Hashable and string-round-trippable, so a spec can travel through
    configuration files, CLI arguments and process boundaries (the
    :class:`~repro.pipeline.engine.BatchEngine` ships specs — not
    compressor instances — to its worker processes).

    Attributes:
        name: a registry name (see :func:`available_compressors`).
        params: ``(key, value)`` pairs in declaration order; values are
            ints, floats, bools or strings.
    """

    name: str
    params: tuple[tuple[str, int | float | bool | str], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))

    @property
    def params_dict(self) -> dict[str, int | float | bool | str]:
        """The parameters as a plain keyword dict (aliases unresolved)."""
        return dict(self.params)

    def build(self) -> Compressor:
        """Construct the configured compressor this spec describes.

        Raises:
            UnknownCompressorError: unknown algorithm name; the message
                lists the registered names. (Also catchable as
                ``KeyError`` or ``CompressorSpecError``.)
            TypeError: a parameter the algorithm does not accept.
        """
        try:
            factory = COMPRESSORS[self.name]
        except KeyError:
            raise UnknownCompressorError(
                f"unknown compressor {self.name!r}; "
                f"available: {', '.join(available_compressors())}"
            ) from None
        aliases = _PARAM_ALIASES.get(self.name, {})
        resolved = {aliases.get(key, key): value for key, value in self.params}
        return factory(**resolved)

    def __str__(self) -> str:
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}:{rendered}"


def parse_compressor_spec(text: str) -> CompressorSpec:
    """Parse a ``name[:key=value[,key=value...]]`` spec string.

    Only the grammar is validated here; whether the name is registered
    and the parameters are accepted is checked by
    :meth:`CompressorSpec.build`.

    Raises:
        CompressorSpecError: empty name, a parameter without ``=``, an
            empty key, or a non-identifier key.
    """
    text = text.strip()
    name, _, param_text = text.partition(":")
    name = name.strip()
    if not name:
        raise CompressorSpecError(f"compressor spec {text!r} has an empty name")
    params: list[tuple[str, int | float | bool | str]] = []
    if param_text.strip():
        for part in param_text.split(","):
            key, eq, raw = part.partition("=")
            key = key.strip()
            if not eq:
                raise CompressorSpecError(
                    f"compressor spec parameter {part.strip()!r} is not "
                    f"of the form key=value"
                )
            if not key.isidentifier():
                raise CompressorSpecError(
                    f"compressor spec parameter name {key!r} is not a "
                    f"valid identifier"
                )
            raw = raw.strip()
            if not raw:
                raise CompressorSpecError(
                    f"compressor spec parameter {key!r} has an empty value"
                )
            params.append((key, _coerce_value(raw)))
    return CompressorSpec(name, tuple(params))


def make_compressor(name: str, **params: object) -> Compressor:
    """Construct a compressor by registry name or spec string.

    Args:
        name: one of :func:`available_compressors`, or a full spec
            string such as ``"opw-sp:epsilon=30,speed=5"``.
        **params: constructor parameters, e.g. ``epsilon=50.0`` for
            ``"td-tr"``; with a spec string, explicit keywords override
            the spec's parameters.

    Raises:
        UnknownCompressorError: for unknown names (listing the valid
            ones; also catchable as ``KeyError``).
        CompressorSpecError: for a malformed spec string.
    """
    if ":" in name or "=" in name:
        spec = parse_compressor_spec(name)
    else:
        spec = CompressorSpec(name)
    merged = {**spec.params_dict, **params}
    return CompressorSpec(spec.name, tuple(merged.items())).build()
