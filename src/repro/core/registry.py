"""The algorithm table and the compressor-spec grammar.

The experiment harness, the benchmarks, the serve tier and the examples
refer to algorithms by the short names the paper uses (``ndp``,
``td-tr``, ``opw-sp``...). Each name is one row of one table, holding
its batch form (a :class:`~repro.core.base.Compressor` class), its
online form (a class or keyword factory of an
:class:`~repro.streaming.base.OnlineCompressor`), either of which may be
absent, and its parameter aliases. Forms are ``"module:attr"`` strings
imported on first use, so this module imports no compressor and every
built-in name exists before any algorithm module is loaded.
:func:`make_compressor` builds the batch form and
:func:`make_online_compressor` the online form.

Algorithm and parameters can also travel as one value — a *spec string*::

    name[:key=value[,key=value...]]

e.g. ``"td-tr:epsilon=30"`` or ``"opw-sp:epsilon=30,speed=5"``. Values
are coerced to ``int``, ``float`` or ``bool`` when they look like one,
and are kept as strings otherwise (``"td-tr:epsilon=30,traversal=recursive"``).
A form accepts its target's keyword parameters, read from the target's
signature, plus the row's aliases onto them. Any other key, or a missing
required one, raises :class:`~repro.exceptions.CompressorParameterError`
listing the accepted keys, in both forms. The online form ignores an
``engine`` entry, which WAL open records and older clients still carry;
the batch form refuses it. :func:`parse_compressor_spec` parses the
grammar into a :class:`CompressorSpec`.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple

from repro.exceptions import (
    CompressorParameterError,
    CompressorSpecError,
    StreamError,
    UnknownCompressorError,
)

if TYPE_CHECKING:
    from repro.core.base import Compressor
    from repro.streaming.base import OnlineCompressor

__all__ = [
    "COMPRESSORS",
    "CompressorSpec",
    "make_compressor",
    "parse_compressor_spec",
    "available_compressors",
]


class Form(NamedTuple):
    """One form of a row: its target, every spec key it accepts mapped
    onto the keyword that key sets, and the keywords without a default."""

    target: Callable[..., Any]
    keys: Mapping[str, str]
    required: frozenset[str]


class _Row:
    """One algorithm: a target per form (``"module:attr"``, a callable,
    or None) and the aliases both forms share."""

    def __init__(
        self,
        batch: str | None = None,
        online: str | Callable[..., Any] | None = None,
        aliases: Mapping[str, str] | None = None,
    ) -> None:
        self.targets: dict[str, str | Callable[..., Any] | None] = {
            "batch": batch,
            "online": online,
        }
        self.aliases = dict(aliases or {})
        self._forms: dict[str, Form] = {}

    def form(self, form: str) -> Form | None:
        """The ``"batch"`` or ``"online"`` form, resolved once; None if absent."""
        target = self.targets[form]
        if target is None or form in self._forms:
            return self._forms.get(form)
        if isinstance(target, str):
            module, _, attr = target.partition(":")
            target = getattr(importlib.import_module(module), attr)
        parameters = [
            p for p in inspect.signature(target).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        keys = {p.name: p.name for p in parameters}
        keys.update((a, kw) for a, kw in self.aliases.items() if kw in keys)
        required = frozenset(p.name for p in parameters if p.default is p.empty)
        self._forms[form] = Form(target, keys, required)
        return self._forms[form]


_MAX_DIST_ERROR = {"max_dist_error": "epsilon"}
_SP = {"epsilon": "max_dist_error", "speed": "max_speed_error"}

#: The algorithm table: one row per name, for both forms.
_ROWS: dict[str, _Row] = {
    "ndp": _Row("repro.core.douglas_peucker:DouglasPeucker"),
    "td-tr": _Row("repro.core.td_tr:TDTR"),
    "nopw": _Row(
        "repro.core.opening_window:NOPW",
        "repro.streaming.online:_make_nopw",
        _MAX_DIST_ERROR,
    ),
    "bopw": _Row("repro.core.opening_window:BOPW"),
    "opw-tr": _Row(
        "repro.core.opw_tr:OPWTR",
        "repro.streaming.online:_make_opw_tr",
        _MAX_DIST_ERROR,
    ),
    "opw-sp": _Row("repro.core.spt:OPWSP", "repro.streaming.online:_make_opw_sp", _SP),
    "operb": _Row(
        "repro.core.one_pass:OPERB",
        "repro.streaming.one_pass:StreamingOPERB",
        _MAX_DIST_ERROR,
    ),
    "cised": _Row(
        "repro.core.one_pass:CISED",
        "repro.streaming.one_pass:StreamingCISED",
        _MAX_DIST_ERROR,
    ),
    "td-sp": _Row("repro.core.spt:TDSP", aliases=_SP),
    "every-ith": _Row("repro.core.uniform:EveryIth"),
    "distance-threshold": _Row("repro.core.uniform:DistanceThreshold"),
    "angular": _Row(
        "repro.core.angular:AngularChange", aliases={"angle": "max_angle_rad"}
    ),
    "sliding-window": _Row("repro.core.sliding_window:SlidingWindow"),
    "bottom-up": _Row("repro.core.bottom_up:BottomUp"),
    "td-tr-budget": _Row("repro.core.budget:TDTRBudget"),
    "bottom-up-budget": _Row("repro.core.budget:BottomUpBudget"),
    "bottom-up-total-error": _Row(
        "repro.core.budget:BottomUpTotalError", aliases={"epsilon": "max_mean_error"}
    ),
    "dead-reckoning": _Row(
        "repro.core.dead_reckoning:DeadReckoning",
        "repro.streaming.budget:StreamingDeadReckoning",
        _MAX_DIST_ERROR,
    ),
    "squish": _Row(online="repro.streaming.budget:StreamingSQUISH"),
    "sttrace": _Row(online="repro.streaming.budget:StreamingSTTrace"),
}


def _available(form: str) -> list[str]:
    return sorted(name for name, row in _ROWS.items() if row.targets[form] is not None)


def available_compressors() -> list[str]:
    """Sorted list of the algorithm names that have a batch form."""
    return _available("batch")


def available_online_compressors() -> list[str]:
    """Sorted list of the algorithm names that have an online form."""
    return _available("online")


def resolve(name: str, form: str) -> Form:
    """The ``"batch"`` or ``"online"`` form of algorithm ``name``.

    Raises:
        StreamError: (online) a row with no online form; the message
            lists the streamable names.
        UnknownCompressorError: any other name the form lacks; the
            message lists the form's names.
    """
    row = _ROWS.get(name)
    resolved = None if row is None else row.form(form)
    if resolved is not None:
        return resolved
    names = ", ".join(_available(form))
    if row is not None and form == "online":
        raise StreamError(
            f"{name!r} is a batch-only algorithm with no streaming form; "
            f"streamable algorithms: {names}"
        )
    raise UnknownCompressorError(f"unknown compressor {name!r}; available: {names}")


def _build(name: str, form: str, params: Mapping[str, object]) -> Any:
    resolved = resolve(name, form)
    accepted = ", ".join(sorted(resolved.keys))
    kwargs: dict[str, object] = {}
    for key, value in params.items():
        if form == "online" and key == "engine":
            continue
        if key not in resolved.keys:
            raise CompressorParameterError(
                f"{name} ({form}) takes no parameter {key!r}; accepted: {accepted}"
            )
        kwargs[resolved.keys[key]] = value
    missing = resolved.required - kwargs.keys()
    if missing:
        raise CompressorParameterError(
            f"{name} ({form}) needs {', '.join(sorted(missing))}; "
            f"accepted: {accepted}"
        )
    return resolved.target(**kwargs)


def register_online(
    name: str,
    factory: Callable[..., OnlineCompressor],
    spec_keys: Mapping[str, str],
) -> None:
    """Add an online-only algorithm under a new spec/CLI name.

    Args:
        name: the new row's name; every existing name is refused.
        factory: callable building a configured compressor from keyword
            arguments; its keyword parameters are the spec keys.
        spec_keys: the row's aliases: extra spec keys mapped onto the
            factory's keyword names.

    Raises:
        ValueError: ``name`` is already a row.
    """
    if name in _ROWS:
        raise ValueError(f"online algorithm {name!r} is already registered")
    _ROWS[name] = _Row(online=factory, aliases=spec_keys)


class _BatchClasses(Mapping[str, "type[Compressor]"]):
    def __getitem__(self, name: str) -> type[Compressor]:
        # UnknownCompressorError is a KeyError, as the Mapping protocol needs.
        return resolve(name, "batch").target  # type: ignore[return-value]

    def __iter__(self) -> Iterator[str]:
        return iter(available_compressors())

    def __len__(self) -> int:
        return len(available_compressors())


#: Read-only view of the table: name -> batch class, imported on access.
COMPRESSORS: Mapping[str, type[Compressor]] = _BatchClasses()


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
            UnknownCompressorError: a name with no batch form; the
                message lists the batch names. (Also catchable as
                ``KeyError`` or ``CompressorSpecError``.)
            CompressorParameterError: a parameter the algorithm does not
                take, or a required one missing.
        """
        return _build(self.name, "batch", self.params_dict)

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
            the spec's.

    Raises:
        UnknownCompressorError: for unknown names (listing the valid
            ones; also catchable as ``KeyError``).
        CompressorSpecError: for a malformed spec string, or (as
            :class:`~repro.exceptions.CompressorParameterError`) a bad
            or missing parameter.
    """
    if ":" in name or "=" in name:
        spec = parse_compressor_spec(name)
    else:
        spec = CompressorSpec(name)
    merged = {**spec.params_dict, **params}
    return CompressorSpec(spec.name, tuple(merged.items())).build()


def make_online_compressor(
    name: str, epsilon: float | None = None, **params: object
) -> OnlineCompressor:
    """Construct an online compressor by name or spec string.

    Takes the same spec strings, keys and aliases as
    :func:`make_compressor` — ``"opw-tr:epsilon=30"``,
    ``"operb:epsilon=30"``, ``"opw-sp:epsilon=30,speed=5"`` — or a bare
    name plus keyword parameters; an ``engine=`` entry is ignored.
    Explicit keyword arguments override the spec's.

    Args:
        name: an algorithm name with an online form, optionally with
            ``:key=value,...`` parameters.
        epsilon: distance threshold in metres (unless the spec sets it).
        **params: further algorithm parameters (``max_speed_error``,
            ``max_window``, ``m``, ...); ``None`` values are ignored.

    Raises:
        StreamError: a batch algorithm with no streaming form (e.g.
            ``"td-tr"``); the message lists the streamable names.
        UnknownCompressorError: an unknown name (also catchable as
            ``KeyError``).
        CompressorSpecError: a malformed spec string, or (as
            :class:`~repro.exceptions.CompressorParameterError`) a
            parameter the algorithm does not take or a missing required
            one; the message lists the accepted keys.
    """
    spec = parse_compressor_spec(name)
    explicit = {"epsilon": epsilon, **params}
    merged = {
        **spec.params_dict,
        **{key: value for key, value in explicit.items() if value is not None},
    }
    return _build(spec.name, "online", merged)
