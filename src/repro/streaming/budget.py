"""Budget-constrained online compressors (SQUISH-E, STTrace, dead reckoning).

The paper's algorithms take an error threshold and let output size
float; production streams usually carry the opposite contract — a fixed
point budget per object. The compressors here honour such a budget by
*evicting* previously retained points when a new one arrives: each push
returns a mixed event list of retained :class:`~repro.types.Fix` entries
and :class:`~repro.streaming.base.Eviction` retractions, per the widened
:class:`~repro.streaming.base.OnlineCompressor` contract.

Both buffer-based algorithms share :class:`_BudgetBuffer`, a
deterministic priority-queue eviction core: a doubly-linked buffer of
retained points plus a lazy-invalidation min-heap keyed by
``(priority, insertion order)``, so eviction order is a pure function of
the pushed series — replaying the same fixes always evicts the same
points in the same order, which is what lets the serve tier's WAL
recovery reconstruct sessions bit-identically. Re-scoring leaves the
superseded heap entry behind; once stale entries outnumber live ones
the heap is rebuilt from its live entries, so a compressor holds
O(budget) memory however long its stream runs. Every key is unique, so
the rebuild never changes which entry pops next.

* :class:`StreamingSQUISH` follows SQUISH-E (Muckell et al., "Compression
  of trajectory data: a comprehensive evaluation and new approach"):
  each interior point carries an accumulated lower bound ``pi`` on the
  SED its removal would cost; its priority is ``pi + SED(pred, succ)``.
  On eviction the neighbours inherit ``max(pi, evicted priority)`` and
  their priorities are recomputed as
  ``max(old priority, pi + SED)`` — per-point priorities are therefore
  *monotonically non-decreasing*, and the SED of an evicted point with
  respect to the final output never exceeds the largest priority among
  evictions at or after its own (the pi inheritance is exactly what
  makes later removals account for earlier ones; both properties are
  Hypothesis-pinned in ``tests/streaming/test_budget.py``).
* :class:`StreamingSTTrace` follows STTrace (Potamias et al., "Sampling
  trajectory streams with spatiotemporal criteria"): priority is the
  plain SED with respect to the current buffer neighbours, recomputed
  (not accumulated) when a neighbour disappears.
* :class:`StreamingDeadReckoning` is the push form of
  :func:`repro.core.dead_reckoning.dead_reckoning_indices` — a
  predictor-based threshold compressor (no evictions) that decides
  through the same :class:`~repro.core.dead_reckoning.DeadReckoner`, so
  it emits exactly the points the batch function selects.

Budget compressors additionally support live *renegotiation*:
:meth:`~StreamingSQUISH.renegotiate` shrinks the budget mid-stream and
returns the eviction events that enforces, which is how the serve tier
degrades quality under admission pressure instead of rejecting sessions
(see ``docs/SERVING.md``).

Spec strings: ``squish:budget=200``, ``sttrace:budget=200``,
``dead-reckoning:epsilon=30``.
"""

from __future__ import annotations

import heapq

from repro.core.base import require_positive
from repro.core.dead_reckoning import DeadReckoner
from repro.core.kernels import sync_distance_py as _sed
from repro.exceptions import StreamError
from repro.streaming.base import Eviction, PushEvent
from repro.types import Fix

__all__ = [
    "StreamingDeadReckoning",
    "StreamingSQUISH",
    "StreamingSTTrace",
    "MIN_BUDGET",
]

#: The smallest admissible point budget: head and tail are never evicted.
MIN_BUDGET = 2

#: The lazy heap is rebuilt from its live entries once it holds more
#: than ``2 * buffer size + _HEAP_SLACK`` entries: amortised O(1) per
#: push, and never more than a constant factor of the buffer.
_HEAP_SLACK = 16


class _Node:
    """One buffered point: linked-list neighbours + priority bookkeeping."""

    __slots__ = ("fix", "prev", "next", "order", "pi", "priority", "version", "alive")

    def __init__(self, fix: Fix, order: int) -> None:
        self.fix = fix
        self.prev: _Node | None = None
        self.next: _Node | None = None
        #: Insertion sequence number — the deterministic tie-break.
        self.order = order
        #: Accumulated cost floor (SQUISH-E's pi; unused by STTrace).
        self.pi = 0.0
        #: Current eviction priority; None while the node is an endpoint.
        self.priority: float | None = None
        #: Bumped whenever priority changes; stale heap entries skip.
        self.version = 0
        self.alive = True


class _BudgetBuffer:
    """Deterministic priority-queue eviction core.

    Holds the net retained set as a doubly-linked list (head and tail
    are never evictable) plus a min-heap of
    ``(priority, order, version, node)`` entries with lazy invalidation:
    entries for dead nodes or superseded versions are discarded at pop
    time, or all at once when the heap outgrows the buffer (see
    :data:`_HEAP_SLACK`). Ties on priority break on insertion order, so
    the eviction sequence is a pure function of the pushed fixes.
    """

    def __init__(self) -> None:
        self.head: _Node | None = None
        self.tail: _Node | None = None
        self.size = 0
        self._heap: list[tuple[float, int, int, _Node]] = []
        self._orders = 0

    def append(self, fix: Fix) -> _Node:
        node = _Node(fix, self._orders)
        self._orders += 1
        if self.tail is None:
            self.head = self.tail = node
        else:
            node.prev = self.tail
            self.tail.next = node
            self.tail = node
        self.size += 1
        return node

    def reprioritize(self, node: _Node, priority: float) -> None:
        """Set a node's priority and (re-)enter it in the heap."""
        node.priority = priority
        node.version += 1
        heapq.heappush(self._heap, (priority, node.order, node.version, node))
        if len(self._heap) > 2 * self.size + _HEAP_SLACK:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Drop every stale entry: only current versions of live nodes."""
        self._heap = [
            entry
            for entry in self._heap
            if entry[3].alive and entry[2] == entry[3].version
        ]
        heapq.heapify(self._heap)

    def pop_min(self) -> _Node:
        """Remove and return the minimum-priority interior node."""
        while self._heap:
            priority, _, version, node = heapq.heappop(self._heap)
            if not node.alive or version != node.version:
                continue
            if node is self.head or node is self.tail:
                continue  # endpoint entries are stale by construction
            self._unlink(node)
            return node
        raise StreamError("budget buffer has no evictable point")

    def _unlink(self, node: _Node) -> None:
        node.alive = False
        if node.prev is not None:
            node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev
        if self.head is node:
            self.head = node.next
        if self.tail is node:
            self.tail = node.prev
        self.size -= 1

    def interior(self) -> list[_Node]:
        """The evictable nodes, head to tail (test/diagnostic hook)."""
        out: list[_Node] = []
        node = self.head.next if self.head is not None else None
        while node is not None and node is not self.tail:
            out.append(node)
            node = node.next
        return out


class _BudgetStreaming:
    """Shared push/finish state machine of the budget compressors.

    Subclasses set :attr:`algorithm` and implement the two priority
    hooks: :meth:`_enter_priority` (a point just became interior) and
    :meth:`_after_eviction` (its neighbours must be re-scored).

    Usage::

        compressor = StreamingSQUISH(budget=200)
        for fix in stream:
            for event in compressor.push(fix):
                apply(event)   # Fix = retain, Eviction = retract
        compressor.finish()
    """

    algorithm = "budget"

    def __init__(self, budget: int) -> None:
        budget = int(budget)
        if budget < MIN_BUDGET:
            raise ValueError(
                f"budget must be >= {MIN_BUDGET}, got {budget} "
                f"(head and tail are always retained)"
            )
        self.budget = budget
        self._buffer = _BudgetBuffer()
        self._finished = False
        self.n_pushed = 0
        self.n_emitted = 0
        #: Points retracted so far (evictions + renegotiations).
        self.n_evicted = 0

    # -- priority hooks -------------------------------------------------

    def _enter_priority(self, node: _Node) -> float:
        raise NotImplementedError

    def _after_eviction(self, evicted: _Node) -> None:
        raise NotImplementedError

    # -- protocol surface -----------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`finish` has been called."""
        return self._finished

    @property
    def state_size(self) -> int:
        """Working state in floats: the full buffer, 3 per point."""
        return 3 * self._buffer.size

    def sync_error_bound(self) -> None:
        """Budget compressors bound size, not error."""
        return None

    @property
    def buffer_len(self) -> int:
        """Net retained points currently held (never exceeds budget)."""
        return self._buffer.size

    def buffer_snapshot(self) -> list[tuple[Fix, float | None]]:
        """``(fix, priority)`` pairs head to tail; endpoints carry None.

        A test/diagnostic hook — the Hypothesis suite uses it to pin
        priority monotonicity across pushes.
        """
        out: list[tuple[Fix, float | None]] = []
        node = self._buffer.head
        while node is not None:
            endpoint = node is self._buffer.head or node is self._buffer.tail
            out.append((node.fix, None if endpoint else node.priority))
            node = node.next
        return out

    def _check_protocol(self, fix: Fix) -> None:
        if self._finished:
            raise StreamError("push after finish()")
        tail = self._buffer.tail
        if tail is not None and fix.t <= tail.fix.t:
            raise StreamError(f"time went backwards ({tail.fix.t} -> {fix.t})")

    def _evict_one(self) -> Eviction:
        node = self._buffer.pop_min()
        self.n_evicted += 1
        self._after_eviction(node)
        return Eviction(node.fix)

    def push(self, fix: Fix) -> list[PushEvent]:
        """Feed one fix; returns its events (one retain, maybe evictions).

        Every pushed fix is retained immediately; if that overflows the
        budget, the lowest-priority interior point is evicted in the same
        event list (retain first, then the eviction, so consumers can
        apply events in order).
        """
        fix = Fix(float(fix[0]), float(fix[1]), float(fix[2]))
        self._check_protocol(fix)
        self.n_pushed += 1
        previous_tail = self._buffer.tail
        self._buffer.append(fix)
        self.n_emitted += 1
        events: list[PushEvent] = [fix]
        if previous_tail is not None and previous_tail.prev is not None:
            # The old tail just became interior: it gets a priority now.
            self._buffer.reprioritize(
                previous_tail, self._enter_priority(previous_tail)
            )
        while self._buffer.size > self.budget:
            events.append(self._evict_one())
        return events

    def finish(self) -> list[PushEvent]:
        """Close the stream. The buffer was already emitted; idempotent."""
        if self._finished:
            return []
        self._finished = True
        return []

    def renegotiate(self, budget: int) -> list[PushEvent]:
        """Tighten (or relax) the budget mid-stream.

        Returns the :class:`~repro.streaming.base.Eviction` events a
        tighter budget forces, in deterministic priority order. The serve
        tier calls this under admission pressure; the events travel to
        the client exactly like push-time evictions and are WAL-logged so
        recovery replays them bit-identically.

        Raises:
            ValueError: ``budget`` below :data:`MIN_BUDGET`.
            StreamError: the stream is already finished.
        """
        budget = int(budget)
        if budget < MIN_BUDGET:
            raise ValueError(f"budget must be >= {MIN_BUDGET}, got {budget}")
        if self._finished:
            raise StreamError("renegotiate after finish()")
        self.budget = budget
        events: list[PushEvent] = []
        while self._buffer.size > self.budget:
            events.append(self._evict_one())
        return events


class StreamingSQUISH(_BudgetStreaming):
    """SQUISH-E: budget-bounded buffer with accumulated-error priorities.

    Each interior point's priority is ``pi + SED(pred, succ)`` where
    ``pi`` accumulates the priorities of evicted neighbours — a lower
    bound on the SED its own removal would introduce. Priorities only
    ever grow (``max`` on re-score), and the SED of any evicted point
    wrt the final output is bounded by the largest priority among
    evictions at or after its own.

    Args:
        budget: maximum net retained points per object (>= 2).
    """

    algorithm = "squish"

    def _enter_priority(self, node: _Node) -> float:
        assert node.prev is not None and node.next is not None
        return node.pi + _sed(node.prev.fix, node.fix, node.next.fix)

    def _after_eviction(self, evicted: _Node) -> None:
        inherited = float(evicted.priority or 0.0)
        for neighbour in (evicted.prev, evicted.next):
            if neighbour is None:
                continue
            neighbour.pi = max(neighbour.pi, inherited)
            if neighbour.prev is not None and neighbour.next is not None:
                rescored = neighbour.pi + _sed(
                    neighbour.prev.fix, neighbour.fix, neighbour.next.fix
                )
                new_priority = max(float(neighbour.priority or 0.0), rescored)
                self._buffer.reprioritize(neighbour, new_priority)


class StreamingSTTrace(_BudgetStreaming):
    """STTrace: budget-bounded buffer with instantaneous SED priorities.

    Priority is the plain SED wrt the current buffer neighbours and is
    *recomputed* (not accumulated) when a neighbour is evicted, so it
    may shrink as the buffer thins — the classic trade: tighter local
    optimality, no global error bound.

    Args:
        budget: maximum net retained points per object (>= 2).
    """

    algorithm = "sttrace"

    def _enter_priority(self, node: _Node) -> float:
        assert node.prev is not None and node.next is not None
        return _sed(node.prev.fix, node.fix, node.next.fix)

    def _after_eviction(self, evicted: _Node) -> None:
        for neighbour in (evicted.prev, evicted.next):
            if neighbour is None:
                continue
            if neighbour.prev is not None and neighbour.next is not None:
                self._buffer.reprioritize(
                    neighbour,
                    _sed(neighbour.prev.fix, neighbour.fix, neighbour.next.fix),
                )


class StreamingDeadReckoning:
    """Push form of the dead-reckoning update policy.

    Decides through :class:`~repro.core.dead_reckoning.DeadReckoner`,
    as :func:`repro.core.dead_reckoning.dead_reckoning_indices` does, so
    batch replay of a recorded stream selects the same points. The one
    structural difference from the batch loop is causality: the batch
    form knows which point is last (always kept, never threshold-tested),
    so the streaming form holds the newest fix undecided until the next
    push proves it interior, and :meth:`finish` emits it as the tail.

    A threshold compressor: never evicts, no point budget.

    Args:
        epsilon: prediction-error threshold in metres. Bounds the
            transmitter-side prediction error, not the reconstruction's
            synchronized error (see the batch class's docstring).
    """

    algorithm = "dead-reckoning"

    def __init__(self, epsilon: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        self._reckoner: DeadReckoner | None = None
        self._held: Fix | None = None
        self._prev: Fix | None = None  # fix pushed immediately before _held
        self._finished = False
        self.n_pushed = 0
        self.n_emitted = 0

    @property
    def closed(self) -> bool:
        """True once :meth:`finish` has been called."""
        return self._finished

    @property
    def state_size(self) -> int:
        """Anchor + velocity + held candidate + its predecessor."""
        size = 2  # velocity
        if self._reckoner is not None:
            size += 3
        for fix in (self._held, self._prev):
            if fix is not None:
                size += 3
        return size

    def sync_error_bound(self) -> None:
        """The prediction bound does not bound the chord reconstruction."""
        return None

    def _emit(self, fix: Fix) -> Fix:
        self.n_emitted += 1
        return fix

    def push(self, fix: Fix) -> list[Fix]:
        """Feed one fix; returns the fixes decided as retained by it."""
        fix = Fix(float(fix[0]), float(fix[1]), float(fix[2]))
        if self._finished:
            raise StreamError("push after finish()")
        previous = self._held if self._held is not None else self._prev
        if previous is not None and fix.t <= previous.t:
            raise StreamError(f"time went backwards ({previous.t} -> {fix.t})")
        self.n_pushed += 1
        reckoner = self._reckoner
        if reckoner is None:
            self._reckoner = DeadReckoner(self.epsilon, *fix)
            self._prev = fix
            return [self._emit(fix)]
        out: list[Fix] = []
        held, prev = self._held, self._prev
        if held is not None and prev is not None:
            if reckoner.deviates(*held):
                out.append(self._emit(held))
                reckoner.reanchor(*prev, *held)
            self._prev = held
        self._held = fix
        return out

    def finish(self) -> list[Fix]:
        """Close the stream; emits the held tail. Idempotent."""
        if self._finished:
            return []
        self._finished = True
        out: list[Fix] = []
        if self._held is not None:
            out.append(self._emit(self._held))
        self._reckoner = None
        self._held = None
        self._prev = None
        return out

