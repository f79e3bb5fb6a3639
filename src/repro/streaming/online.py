"""Incremental (push-based) opening-window compression.

The batch classes in :mod:`repro.core` already *are* online algorithms in
the paper's sense — they never look past the current window — but their
API takes a complete trajectory. This module provides the genuinely
incremental form: a :class:`StreamingOPW` accepts one fix at a time and
emits retained fixes as soon as they are decided, holding only the open
window in memory.

The selected points are **identical** to the corresponding batch
algorithm's (NOPW / OPW-TR / OPW-SP with the ``"violating"`` break
strategy); the test suite pins this equivalence. An optional
``max_window`` bound forces a break when the open window would exceed a
memory budget — the knob a constrained device needs, at a small cost in
compression.
"""

from __future__ import annotations

import math

from repro.core.base import require_positive
from repro.core.kernels import chord_line_distance_py
from repro.exceptions import StreamError
from repro.streaming.registry import register_online
from repro.types import Fix

__all__ = ["StreamingOPW"]

_CRITERIA = ("perpendicular", "synchronized")


def _perpendicular_distance(fix: Fix, anchor: Fix, float_end: Fix) -> float:
    """Distance from ``fix`` to the infinite line anchor–float."""
    return chord_line_distance_py(
        fix.x, fix.y, anchor.x, anchor.y, float_end.x, float_end.y
    )


def _synchronized_distance(fix: Fix, anchor: Fix, float_end: Fix) -> float:
    """Time-ratio distance from ``fix`` to the chord anchor–float.

    The terms of :func:`~repro.core.kernels.sync_distances_py` in its
    order, so a distance on epsilon decides as the batch OPW-TR does.
    """
    ratio = (fix.t - anchor.t) / (float_end.t - anchor.t)
    dx = fix.x - (anchor.x + ratio * (float_end.x - anchor.x))
    dy = fix.y - (anchor.y + ratio * (float_end.y - anchor.y))
    return math.sqrt(dx * dx + dy * dy)


class StreamingOPW:
    """Push-based opening-window compressor.

    Args:
        epsilon: distance threshold in metres.
        criterion: ``"perpendicular"`` (streaming NOPW) or
            ``"synchronized"`` (streaming OPW-TR).
        max_speed_error: optional speed-difference threshold in m/s;
            setting it yields the streaming OPW-SP.
        max_window: optional bound on the open window's point count; when
            the window reaches it, the point before the current float is
            emitted as a forced break (BOPW-style), keeping memory O(1).

    Usage::

        opw = StreamingOPW(epsilon=50.0, criterion="synchronized")
        for fix in stream:
            for kept in opw.push(fix):
                sink(kept)
        for kept in opw.finish():
            sink(kept)
    """

    def __init__(
        self,
        epsilon: float,
        criterion: str = "synchronized",
        max_speed_error: float | None = None,
        max_window: int | None = None,
    ) -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        if criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; use one of {_CRITERIA}")
        self.criterion = criterion
        self._distance = (
            _synchronized_distance
            if criterion == "synchronized"
            else _perpendicular_distance
        )
        self.max_speed_error = (
            None
            if max_speed_error is None
            else require_positive("max_speed_error", max_speed_error)
        )
        if max_window is not None and max_window < 3:
            raise ValueError(f"max_window must be >= 3, got {max_window}")
        self.max_window = max_window
        self._window: list[Fix] = []
        self._emitted_any = False
        self._finished = False
        self.n_pushed = 0
        self.n_emitted = 0

    @property
    def algorithm(self) -> str:
        """Registry name of the configured variant."""
        if self.criterion == "perpendicular":
            return "nopw"
        return "opw-sp" if self.max_speed_error is not None else "opw-tr"

    @property
    def closed(self) -> bool:
        """True once :meth:`finish` has been called."""
        return self._finished

    @property
    def window_size(self) -> int:
        """Current number of buffered fixes (the open window)."""
        return len(self._window)

    @property
    def state_size(self) -> int:
        """Current working state in floats (three per buffered fix).

        Grows with the open window — bounded only when ``max_window``
        is set, unlike the one-pass compressors' built-in O(1) state.
        """
        return 3 * len(self._window)

    def sync_error_bound(self) -> float | None:
        """Guaranteed bound on the output's max synchronized error.

        With the synchronized criterion every emitted segment was fully
        validated against its own chord (including forced ``max_window``
        cuts, which break at the last fully validated float), so epsilon
        bounds the deviation; the perpendicular criterion promises
        nothing about synchronized error.
        """
        return self.epsilon if self.criterion == "synchronized" else None

    def _check_protocol(self, fix: Fix) -> None:
        if self._finished:
            raise StreamError("push after finish()")
        if self._window and fix.t <= self._window[-1].t:
            raise StreamError(
                f"time went backwards ({self._window[-1].t} -> {fix.t})"
            )

    def _speed_violation(self, j: int) -> bool:
        """Speed-difference criterion at window index ``j`` (interior)."""
        if self.max_speed_error is None:
            return False
        window = self._window
        v_prev = window[j - 1].speed_to(window[j])
        v_next = window[j].speed_to(window[j + 1])
        return abs(v_next - v_prev) > self.max_speed_error

    def _first_violation(self) -> int:
        """First violating interior window index, or -1."""
        window = self._window
        anchor = window[0]
        float_end = window[-1]
        for j in range(1, len(window) - 1):
            if self._distance(window[j], anchor, float_end) > self.epsilon:
                return j
            if self._speed_violation(j):
                return j
        return -1

    def _emit(self, fix: Fix) -> Fix:
        self._emitted_any = True
        self.n_emitted += 1
        return fix

    def push(self, fix: Fix) -> list[Fix]:
        """Feed one fix; returns the fixes decided as retained by it.

        The very first fix is always retained (and emitted immediately).
        A violation emits the break point; a forced ``max_window`` break
        emits the float's predecessor.
        """
        fix = Fix(float(fix[0]), float(fix[1]), float(fix[2]))
        self._check_protocol(fix)
        self.n_pushed += 1
        out: list[Fix] = []
        if not self._window and not self._emitted_any:
            self._window.append(fix)
            out.append(self._emit(fix))
            return out
        # A break restarts the window at the break point; the points that
        # were already buffered after it must then be replayed one at a
        # time so every prefix window is scanned — exactly the order the
        # batch opening-window driver checks chords in. ``pending`` holds
        # the fixes still to be absorbed.
        pending: list[Fix] = [fix]
        while pending:
            self._window.append(pending.pop(0))
            if len(self._window) < 3:
                continue
            violating = self._first_violation()
            if violating < 0:
                if (
                    self.max_window is not None
                    and len(self._window) >= self.max_window
                ):
                    violating = len(self._window) - 2  # forced BOPW-style cut
                else:
                    continue
            out.append(self._emit(self._window[violating]))
            rest = self._window[violating + 1 :]
            self._window = [self._window[violating]]
            pending[:0] = rest
        return out

    def finish(self) -> list[Fix]:
        """Close the stream; returns the final retained fixes.

        Always emits the last seen fix (unless it is the already-emitted
        anchor), so the compressed series covers the full stream — the
        paper's lost-tail counter-measure. Idempotent.
        """
        if self._finished:
            return []
        self._finished = True
        if not self._window:
            return []
        out: list[Fix] = []
        if not self._emitted_any:
            out.append(self._emit(self._window[0]))
        if len(self._window) > 1:
            out.append(self._emit(self._window[-1]))
        self._window = []
        return out


def _window(max_window: object) -> int | None:
    return None if max_window is None else int(max_window)  # type: ignore[call-overload]


def _make_nopw(*, epsilon: float, max_window: int | None = None) -> StreamingOPW:
    return StreamingOPW(float(epsilon), "perpendicular", max_window=_window(max_window))


def _make_opw_tr(*, epsilon: float, max_window: int | None = None) -> StreamingOPW:
    return StreamingOPW(float(epsilon), "synchronized", max_window=_window(max_window))


def _make_opw_sp(
    *, epsilon: float, max_speed_error: float, max_window: int | None = None
) -> StreamingOPW:
    return StreamingOPW(
        float(epsilon),
        "synchronized",
        max_speed_error=float(max_speed_error),
        max_window=_window(max_window),
    )


#: Shared spec keys of the opening-window family, with the CLI's aliases
#: mapped onto factory keyword names.
_OPW_SPEC_KEYS = {
    "epsilon": "epsilon",
    "max_dist_error": "epsilon",
    "max_window": "max_window",
}

register_online("nopw", _make_nopw, _OPW_SPEC_KEYS)
register_online("opw-tr", _make_opw_tr, _OPW_SPEC_KEYS)
register_online(
    "opw-sp",
    _make_opw_sp,
    {
        **_OPW_SPEC_KEYS,
        "speed": "max_speed_error",
        "max_speed_error": "max_speed_error",
    },
)
