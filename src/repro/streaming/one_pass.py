"""Push-based one-pass SED compressors (OPERB- and CISED-style).

The streaming forms of :class:`repro.core.one_pass.OPERB` and
:class:`repro.core.one_pass.CISED`: one velocity-space feasibility
region per open segment, O(1) state, no window re-scan — each push is
constant work, which is what lifts the serving hot path past the
opening-window family's quadratic worst case. The scalar disc
parameters are computed with the exact floating-point expressions of
the batch replay in :mod:`repro.core.one_pass`, so the emitted fixes match
the batch classes' retained points bit for bit; the shared conformance
tests pin this equivalence.
"""

from __future__ import annotations

from repro.core.base import require_positive
from repro.core.one_pass import FeasibleRegion, PolygonRegion, RectangleRegion
from repro.exceptions import StreamError
from repro.streaming.registry import register_online
from repro.types import Fix

__all__ = ["StreamingOPERB", "StreamingCISED"]


class _OnePassStreaming:
    """Shared push/finish state machine of the one-pass compressors.

    State between pushes: the current anchor (already emitted), the
    buffered candidate end, and the feasibility region — a constant
    number of floats. Subclasses set :attr:`algorithm` and implement
    :meth:`_make_region`.

    Usage::

        compressor = StreamingOPERB(epsilon=30.0)
        for fix in stream:
            for kept in compressor.push(fix):
                sink(kept)
        for kept in compressor.finish():
            sink(kept)
    """

    algorithm = "one-pass"

    def __init__(self, epsilon: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        self._anchor: Fix | None = None
        self._last: Fix | None = None
        self._region: FeasibleRegion | None = None
        self._finished = False
        self.n_pushed = 0
        self.n_emitted = 0

    def _make_region(self, cx: float, cy: float, r: float) -> FeasibleRegion:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        """True once :meth:`finish` has been called."""
        return self._finished

    @property
    def state_size(self) -> int:
        """Current working state in floats — O(1) by construction."""
        size = 0
        if self._anchor is not None:
            size += 3
        if self._last is not None:
            size += 3
        if self._region is not None:
            size += self._region.state_size
        return size

    def sync_error_bound(self) -> float:
        """Accepted end velocities stay inside every dropped point's
        velocity disc, so epsilon bounds the max synchronized error."""
        return self.epsilon

    def _check_protocol(self, fix: Fix) -> None:
        if self._finished:
            raise StreamError("push after finish()")
        previous = self._last if self._last is not None else self._anchor
        if previous is not None and fix.t <= previous.t:
            raise StreamError(f"time went backwards ({previous.t} -> {fix.t})")

    def _circle(self, fix: Fix) -> tuple[float, float, float]:
        # Same expressions as the batch replay's disc in
        # repro.core.one_pass, so both select bit-identical points.
        anchor = self._anchor
        dt = fix.t - anchor.t  # type: ignore[union-attr]
        return (
            (fix.x - anchor.x) / dt,  # type: ignore[union-attr]
            (fix.y - anchor.y) / dt,  # type: ignore[union-attr]
            self.epsilon / dt,
        )

    def _emit(self, fix: Fix) -> Fix:
        self.n_emitted += 1
        return fix

    def push(self, fix: Fix) -> list[Fix]:
        """Feed one fix; returns the fixes decided as retained by it.

        The very first fix is always retained (and emitted immediately);
        a fix whose velocity falls outside the feasibility region emits
        the buffered candidate and re-anchors there.
        """
        fix = Fix(float(fix[0]), float(fix[1]), float(fix[2]))
        self._check_protocol(fix)
        self.n_pushed += 1
        if self._anchor is None:
            self._anchor = fix
            return [self._emit(fix)]
        cx, cy, r = self._circle(fix)
        if self._last is None:
            self._region = self._make_region(cx, cy, r)
            self._last = fix
            return []
        if self._region is not None and self._region.contains(cx, cy):
            self._region.clip(cx, cy, r)
            self._last = fix
            return []
        emitted = self._emit(self._last)
        self._anchor = emitted
        cx, cy, r = self._circle(fix)
        self._region = self._make_region(cx, cy, r)
        self._last = fix
        return [emitted]

    def finish(self) -> list[Fix]:
        """Close the stream; returns the final retained fixes.

        Emits the buffered candidate (the last pushed fix), so the
        compressed series covers the full stream. Idempotent.
        """
        if self._finished:
            return []
        self._finished = True
        out: list[Fix] = []
        if self._last is not None:
            out.append(self._emit(self._last))
        self._anchor = None
        self._last = None
        self._region = None
        return out


class StreamingOPERB(_OnePassStreaming):
    """Push-based OPERB adaptation: rectangular feasibility region.

    O(1) state (anchor, candidate, four rectangle bounds) and O(1) work
    per push. Emits exactly the points :class:`repro.core.one_pass
    .OPERB` retains on the same series.

    Args:
        epsilon: synchronized distance threshold in metres.
    """

    algorithm = "operb"

    def _make_region(self, cx: float, cy: float, r: float) -> RectangleRegion:
        return RectangleRegion(cx, cy, r)


class StreamingCISED(_OnePassStreaming):
    """Push-based CISED-style compressor: polygonal feasibility cone.

    O(1) state (the polygon is ``m`` half-plane offsets) and O(m) work
    per push. Emits exactly the points :class:`repro.core.one_pass
    .CISED` retains on the same series.

    Args:
        epsilon: synchronized distance threshold in metres.
        m: polygon edge count per velocity disc (>= 3; default 16).
    """

    algorithm = "cised"

    def __init__(self, epsilon: float, m: int = 16) -> None:
        super().__init__(epsilon)
        self.m = int(m)
        if self.m < 3:
            raise ValueError(f"m must be >= 3, got {m}")

    def _make_region(self, cx: float, cy: float, r: float) -> PolygonRegion:
        return PolygonRegion(cx, cy, r, self.m)


def _make_operb(*, epsilon: float) -> StreamingOPERB:
    return StreamingOPERB(float(epsilon))


def _make_cised(*, epsilon: float, m: int = 16) -> StreamingCISED:
    return StreamingCISED(float(epsilon), m=int(m))


register_online(
    "operb", _make_operb, {"epsilon": "epsilon", "max_dist_error": "epsilon"}
)
register_online(
    "cised",
    _make_cised,
    {"epsilon": "epsilon", "max_dist_error": "epsilon", "m": "m"},
)
