"""Incremental (push-based) opening-window compression.

The batch classes in :mod:`repro.core` already *are* online algorithms in
the paper's sense — they never look past the current window — but their
API takes a complete trajectory. This module provides the genuinely
incremental form: a :class:`StreamingOPW` accepts one fix at a time and
emits retained fixes as soon as they are decided, holding only the open
window in memory.

It is a push driver of the batch family's own decision core,
:class:`~repro.core.opening_window.OpeningWindow`: each push appends the
fix to the window's columns and advances the core over them, so the
selected points are **identical** to the corresponding batch
algorithm's (NOPW / OPW-TR / OPW-SP with the ``"violating"`` break
strategy); the test suite pins this equivalence. An optional
``max_window`` bound forces a break when the open window would exceed a
memory budget — the knob a constrained device needs, at a small cost in
compression.
"""

from __future__ import annotations

from repro.core.opening_window import OpeningWindow
from repro.exceptions import StreamError
from repro.types import Fix

__all__ = ["StreamingOPW"]


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
        #: The open window's ``(t, x, y)`` columns, anchor first.
        self._columns: tuple[list[float], list[float], list[float]] = ([], [], [])
        self._core = OpeningWindow(
            self._columns,
            criterion=criterion,
            epsilon=epsilon,
            max_speed_error=max_speed_error,
            max_window=max_window,
        )
        self.epsilon = self._core.epsilon
        self.criterion = criterion
        self.max_speed_error = self._core.max_speed_error
        self.max_window = max_window
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
        return len(self._columns[0])

    @property
    def state_size(self) -> int:
        """Current working state in floats (three per buffered fix).

        Grows with the open window — bounded only when ``max_window``
        is set, unlike the one-pass compressors' built-in O(1) state.
        """
        return 3 * len(self._columns[0])

    def sync_error_bound(self) -> float | None:
        """Guaranteed bound on the output's max synchronized error.

        With the synchronized criterion every emitted segment was fully
        validated against its own chord (including forced ``max_window``
        cuts, which break at the last fully validated float), so epsilon
        bounds the deviation; the perpendicular criterion promises
        nothing about synchronized error.
        """
        return self.epsilon if self.criterion == "synchronized" else None

    def push(self, fix: Fix) -> list[Fix]:
        """Feed one fix; returns the fixes decided as retained by it.

        The very first fix is always retained (and emitted immediately).
        A violation emits the break point; a forced ``max_window`` break
        emits the float's predecessor.
        """
        ft, fx, fy = float(fix[0]), float(fix[1]), float(fix[2])
        if self._finished:
            raise StreamError("push after finish()")
        t, x, y = self._columns
        if t and ft <= t[-1]:
            raise StreamError(f"time went backwards ({t[-1]} -> {ft})")
        self.n_pushed += 1
        t.append(ft)
        x.append(fx)
        y.append(fy)
        if self.n_pushed == 1:
            self.n_emitted += 1
            return [Fix(ft, fx, fy)]
        cuts = self._core.advance()
        if not cuts:
            return []
        self.n_emitted += len(cuts)
        out = [Fix(t[cut], x[cut], y[cut]) for cut in cuts]
        self._core.drop_before_anchor()
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
        t, x, y = self._columns
        out: list[Fix] = []
        if len(t) > 1:
            self.n_emitted += 1
            out.append(Fix(t[-1], x[-1], y[-1]))
        for column in self._columns:
            column.clear()
        return out


def _window(max_window: object) -> int | None:
    return None if max_window is None else int(max_window)  # type: ignore[call-overload]


def _make_nopw(*, epsilon: float, max_window: int | None = None) -> StreamingOPW:
    return StreamingOPW(float(epsilon), "perpendicular", max_window=_window(max_window))


def _make_opw_tr(*, epsilon: float, max_window: int | None = None) -> StreamingOPW:
    return StreamingOPW(float(epsilon), "synchronized", max_window=_window(max_window))


def _make_opw_sp(
    *, max_dist_error: float, max_speed_error: float, max_window: int | None = None
) -> StreamingOPW:
    return StreamingOPW(
        float(max_dist_error),
        "synchronized",
        max_speed_error=float(max_speed_error),
        max_window=_window(max_window),
    )
