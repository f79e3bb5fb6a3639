"""Server-side session state: per-object online compression + lifecycle.

A :class:`Session` owns one :class:`~repro.streaming.base
.OnlineCompressor` (any registered online algorithm — the opening-window
family or the one-pass OPERB/CISED compressors) and the retained points
it has decided so far; a :class:`SessionManager`
owns all live sessions and implements the service's resource policy:

* **admission control** — at most ``max_sessions`` live sessions; an
  ``open`` beyond the limit is rejected with a structured error (code
  ``"rejected"``) after one attempt to reclaim capacity from idle
  sessions;
* **idle LRU eviction** — sessions that have not appended for
  ``idle_timeout_s`` are evicted in least-recently-active order. An
  evicted session is *flushed, not dropped*: its compressed trajectory
  lands in the store exactly as a client ``close`` would land it, so a
  tracker that silently disappears loses no data;
* **durable flush** — every flush inserts into the
  :class:`~repro.storage.store.TrajectoryStore` and (when a
  ``store_path`` is configured) persists the store file atomically via
  the PR-2 durability path (tmp + fsync + rename, per-record CRCs).

The manager is synchronous and single-threaded by design: the asyncio
server calls it from one event loop, so no locking is needed. All
observability flows through a shared :class:`~repro.obs.Registry`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import ReproError, ServeError, StorageError, StreamError
from repro.geometry.bbox import BBox
from repro.obs import Registry, span
from repro.serve.protocol import STATS_COUNTERS, STATS_GAUGES, stats_fields
from repro.serve.wal import WalWriter
from repro.storage.store import StoredRecord, TrajectoryStore
from repro.streaming.base import Eviction, OnlineCompressor, partition_events
from repro.streaming.registry import make_online_compressor
from repro.trajectory.builder import TrajectoryBuilder
from repro.trajectory.trajectory import Trajectory
from repro.types import Fix

__all__ = ["AppendOutcome", "Session", "SessionManager"]

#: Bound on the diagnostic failure lists kept for the ``stats`` verb.
MAX_RECORDED_FAILURES = 16


@dataclass
class AppendOutcome:
    """What one (possibly replayed) append batch did.

    ``duplicate`` marks an idempotent re-send: a batch whose sequence
    number the session has already applied. For the most recent batch
    the cached decisions are replayed verbatim (``retained``/``error``
    come from the original application); older duplicates return empty.

    ``evicted`` lists previously retained fixes a budget compressor
    retracted — push-time evictions plus any renegotiation evictions
    that had not yet been reported to the client. Threshold compressors
    never populate it.
    """

    seq: int
    retained: "list[Fix]" = field(default_factory=list)
    evicted: "list[Fix]" = field(default_factory=list)
    accepted: int = 0
    duplicate: bool = False
    error: "StreamError | None" = None


class Session:
    """One object's live ingestion state."""

    __slots__ = (
        "object_id",
        "spec",
        "algorithm",
        "compressor",
        "builder",
        "pending",
        "span",
        "bbox",
        "n_fixes_in",
        "n_retained",
        "n_evicted",
        "budget_renegotiations",
        "unreported_evictions",
        "opened_at",
        "last_active",
        "last_seq",
        "last_outcome",
        "recovered",
    )

    def __init__(
        self, object_id: str, spec: str, compressor: OnlineCompressor, now: float
    ) -> None:
        self.object_id = object_id
        self.spec = spec
        self.algorithm = compressor.algorithm
        self.compressor = compressor
        self.builder = TrajectoryBuilder(object_id)
        #: Acknowledged fixes the compressor has not yet decided on (the
        #: suffix pushed after the last retained fix). Kept so read
        #: queries can see every acked fix (:meth:`snapshot`); its size
        #: tracks the compressor's own working window.
        self.pending: list[Fix] = []
        #: Time span and bbox of every accepted fix (``None`` before the
        #: first), which eviction and renegotiation never shrink: the
        #: span is :meth:`snapshot`'s, the bbox bounds it.
        self.span: tuple[float, float] | None = None
        self.bbox: BBox | None = None
        self.n_fixes_in = 0
        self.n_retained = 0
        #: Previously retained fixes later retracted (budget compressors).
        self.n_evicted = 0
        #: Budget renegotiations applied to this session.
        self.budget_renegotiations = 0
        #: Renegotiation evictions the client has not been told about
        #: yet; drained into the next append outcome's ``evicted``.
        self.unreported_evictions: list[Fix] = []
        self.opened_at = now
        self.last_active = now
        #: Highest applied append sequence number (0 = none yet).
        self.last_seq = 0
        #: Cached :class:`AppendOutcome` of the batch at ``last_seq``,
        #: replayed verbatim when a client idempotently re-sends it.
        self.last_outcome: "AppendOutcome | None" = None
        #: True when this session was rebuilt from the WAL at startup.
        self.recovered = False

    def append(self, fix: Fix, now: float) -> list[Fix]:
        """Push one fix; returns the fixes its arrival decided as retained.

        Raises:
            StreamError: the fix's timestamp does not strictly advance
                the session clock (session state is unchanged).
        """
        kept, _, _, error = self.append_many([fix], now)
        if error is not None:
            raise error
        return kept

    def append_many(
        self, fixes: Sequence[Fix], now: float
    ) -> tuple[list[Fix], list[Fix], int, StreamError | None]:
        """Push a batch of fixes through the compressor in one tight loop.

        Bookkeeping (builder appends, counters, activity timestamp) is
        done once per batch instead of once per fix — the serve hot path.
        Budget compressors may interleave :class:`~repro.streaming.base
        .Eviction` retractions with retained fixes; retractions are
        applied to the builder here and returned separately.

        Returns:
            ``(retained, evicted, accepted, error)``: the fixes the
            batch decided to retain, the previously retained fixes it
            retracted, how many input fixes were accepted, and the
            :class:`StreamError` that stopped the batch mid-way (or
            ``None``). On an error the accepted prefix is already
            applied, mirroring per-fix appends; the session stays
            usable.
        """
        kept: list[Fix] = []
        evicted: list[Fix] = []
        push = self.compressor.push
        accepted = 0
        error: StreamError | None = None
        try:
            for fix in fixes:
                for event in push(fix):
                    if type(event) is Eviction:
                        evicted.append(event.fix)
                    else:
                        kept.append(event)
                accepted += 1
        except StreamError as exc:
            error = exc
        # Retains land first, then the retractions: an evicted fix is
        # always strictly older than the newest retained one, so the
        # appends never collide with a hole a removal just opened.
        for point in kept:
            self.builder.append_fix(point)
        for point in evicted:
            self.builder.remove_time(point.t)
        if accepted:
            batch = fixes[:accepted]
            self.pending.extend(batch)
            box = self.bbox
            lo_x, lo_y, hi_x, hi_y = (batch[0].x, batch[0].y) * 2 if box is None \
                else (box.min_x, box.min_y, box.max_x, box.max_y)
            for _, x, y in batch:  # one pass costs a third of four min/max calls
                if x < lo_x:
                    lo_x = x
                elif x > hi_x:
                    hi_x = x
                if y < lo_y:
                    lo_y = y
                elif y > hi_y:
                    hi_y = y
            self.bbox = BBox(float(lo_x), float(lo_y), float(hi_x), float(hi_y))
            first = float(batch[0].t) if self.span is None else self.span[0]
            self.span = (first, float(batch[-1].t))
        if kept:
            last_kept_t = kept[-1].t
            self.pending = [f for f in self.pending if f.t > last_kept_t]
        self.n_fixes_in += accepted
        self.n_retained += len(kept)
        self.n_evicted += len(evicted)
        self.last_active = now
        return kept, evicted, accepted, error

    def finalize(self) -> tuple[Trajectory | None, list[Fix]]:
        """Close the compressor; returns (trajectory, tail retained fixes).

        The trajectory is ``None`` when the session never appended a fix.
        """
        tail, evicted = partition_events(self.compressor.finish())
        for point in tail:
            self.builder.append_fix(point)
        for point in evicted:
            self.builder.remove_time(point.t)
        self.pending.clear()
        self.n_retained += len(tail)
        self.n_evicted += len(evicted)
        if len(self.builder) == 0:
            return None, tail
        return self.builder.build(), tail

    @property
    def sync_error_bound_m(self) -> float | None:
        """The compressor's bound on the snapshot (nothing is quantized)."""
        return self.compressor.sync_error_bound()

    @property
    def budget(self) -> int | None:
        """The compressor's point budget, or ``None`` (threshold spec)."""
        value = getattr(self.compressor, "budget", None)
        return int(value) if value is not None else None

    def renegotiate(self, budget: int) -> list[Fix]:
        """Tighten the compressor's point budget; returns the evictions.

        Only budget-capable compressors support this
        (:exc:`ServeError` code ``bad-request`` otherwise). The evicted
        fixes are removed from the builder and queued on
        :attr:`unreported_evictions` so the next append outcome carries
        them to the client.
        """
        renegotiate = getattr(self.compressor, "renegotiate", None)
        if renegotiate is None:
            raise ServeError(
                f"session {self.object_id!r} runs {self.spec!r}, which has "
                f"no point budget to renegotiate",
                code="bad-request",
            )
        _, evicted = partition_events(renegotiate(budget))
        for point in evicted:
            self.builder.remove_time(point.t)
        self.n_evicted += len(evicted)
        self.budget_renegotiations += 1
        self.unreported_evictions.extend(evicted)
        return evicted

    def snapshot(self) -> Trajectory | None:
        """Every acknowledged fix as a queryable trajectory (or ``None``).

        Retained fixes plus the still-undecided suffix: the trajectory a
        read query must see for query-after-ack consistency. The suffix
        is raw (exact) data, so the compressor's error bound remains a
        conservative bound for the whole snapshot. Non-destructive — the
        session keeps ingesting afterwards.
        """
        if len(self.builder) == 0:
            return None
        base = self.builder.build()
        if not self.pending:
            return base
        t = np.concatenate([base.t, [fix.t for fix in self.pending]])
        xy = np.vstack([base.xy, [[fix.x, fix.y] for fix in self.pending]])
        return Trajectory(t, xy, self.object_id, _validated=True)


class SessionManager:
    """Live-session registry with admission control and LRU eviction.

    Args:
        store: destination for flushed trajectories.
        max_sessions: admission limit on concurrently live sessions.
        idle_timeout_s: inactivity after which a session is evictable.
        store_path: when set, the store file is re-persisted atomically
            after every flush (close or eviction).
        durable: fsync on persist (the store's ``save`` durability knob).
        replace: allow a flush to overwrite an existing stored id.
        wal: optional :class:`~repro.serve.wal.WalWriter`; when present
            every open, append batch and budget renegotiation is staged
            into it *before* being applied, and a flush stages the
            truncation marker after the store accepted the trajectory.
            Call :meth:`recover` to replay its surviving sessions.
        degrade_budget_floor: enables *degraded admission*: when the
            session limit trips (and idle eviction reclaimed nothing), a
            new session is admitted anyway if at least one live
            budget-capable session could be renegotiated down — budgets
            are multiplied by ``degrade_budget_factor`` (never below
            this floor), trading per-object fidelity for capacity
            instead of rejecting trackers. ``None`` (default) keeps the
            hard-reject behaviour.
        degrade_budget_factor: multiplier applied to live budgets under
            admission pressure (0 < factor < 1; default 0.5).
        metrics: shared observability registry (one is created if absent).
        clock: monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        store: TrajectoryStore,
        *,
        max_sessions: int = 1024,
        idle_timeout_s: float = 300.0,
        store_path: str | Path | None = None,
        durable: bool = True,
        replace: bool = False,
        wal: WalWriter | None = None,
        degrade_budget_floor: int | None = None,
        degrade_budget_factor: float = 0.5,
        metrics: Registry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be positive, got {idle_timeout_s}")
        if degrade_budget_floor is not None and degrade_budget_floor < 2:
            raise ValueError(
                f"degrade_budget_floor must be >= 2, got {degrade_budget_floor}"
            )
        if not 0.0 < degrade_budget_factor < 1.0:
            raise ValueError(
                f"degrade_budget_factor must be in (0, 1), "
                f"got {degrade_budget_factor}"
            )
        self.store = store
        self.max_sessions = int(max_sessions)
        self.idle_timeout_s = float(idle_timeout_s)
        self.store_path = None if store_path is None else Path(store_path)
        self.durable = durable
        self.replace = replace
        self.wal = wal
        self.degrade_budget_floor = (
            None if degrade_budget_floor is None else int(degrade_budget_floor)
        )
        self.degrade_budget_factor = float(degrade_budget_factor)
        self.metrics = metrics if metrics is not None else Registry()
        # Declared up front: the export lists what ``stats`` reports.
        for name in STATS_COUNTERS:
            self.metrics.counter(name)
        for name in STATS_GAUGES:
            self.metrics.gauge(name)
        self._clock = clock
        # Ordered least-recently-active first: append moves to the end,
        # so eviction scans from the front and stops at the first keeper.
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        #: Read-only live view of the sessions by id (the query engine's
        #: live source).
        self.sessions: Mapping[str, Session] = MappingProxyType(self._sessions)
        #: Bounded diagnostics for the ``stats`` verb: most recent
        #: flush failures swallowed by the idle sweep, and sessions the
        #: recovery replay could not rebuild.
        self.last_evict_failures: list[dict] = []
        self.last_recovery_failures: list[dict] = []

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    @property
    def live_session_ids(self) -> list[str]:
        """Ids of live sessions, sorted."""
        return sorted(self._sessions)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def open(self, session_id: object, spec: object) -> Session:
        """Admit one new session compressing under ``spec``.

        Raises:
            ServeError: bad arguments (``bad-request``), an id already
                live (``duplicate-session``), an unusable spec
                (``bad-spec``), or the admission limit (``rejected``).
        """
        if not isinstance(session_id, str) or not session_id:
            raise ServeError(
                f"open needs a non-empty string session id, got {session_id!r}",
                code="bad-request",
            )
        if not isinstance(spec, str) or not spec:
            raise ServeError(
                f"open needs a compressor spec string, got {spec!r}",
                code="bad-request",
            )
        if session_id in self._sessions:
            raise ServeError(
                f"session {session_id!r} is already open", code="duplicate-session"
            )
        if len(self._sessions) >= self.max_sessions:
            # Try to reclaim capacity from idle sessions before refusing.
            self.evict_idle()
        if len(self._sessions) >= self.max_sessions:
            # Degraded admission: shrink live point budgets instead of
            # rejecting, when the policy is enabled and anything shrank.
            if self.degrade_budget_floor is None or not self.degrade_budgets():
                self.metrics.counter("sessions_rejected").inc()
                raise ServeError(
                    f"session limit reached ({self.max_sessions} live); "
                    f"retry later",
                    code="rejected",
                )
            self.metrics.counter("sessions_admitted_degraded").inc()
        try:
            compressor = make_online_compressor(spec)
        except (ReproError, ValueError, KeyError) as exc:
            raise ServeError(str(exc), code="bad-spec") from exc
        if self.wal is not None:
            # Staged before the session exists: recovery must know the
            # spec of every session it may be asked to replay. A failed
            # WAL refuses the open (WalError carries code "wal-failure").
            self.wal.stage_open(session_id, spec)
        session = Session(session_id, spec, compressor, self._clock())
        self._sessions[session_id] = session
        self.metrics.counter("sessions_opened").inc()
        self.metrics.counter(f"sessions_opened.{session.algorithm}").inc()
        return session

    def get(self, session_id: object) -> Session:
        """The live session for ``session_id``.

        Raises:
            ServeError: (``unknown-session``) when it is not live.
        """
        session = (
            self._sessions.get(session_id) if isinstance(session_id, str) else None
        )
        if session is None:
            raise ServeError(
                f"no open session {session_id!r}", code="unknown-session"
            )
        return session

    def renegotiate_session(self, session_id: object, budget: int) -> list[Fix]:
        """Tighten one session's point budget; returns the evictions.

        WAL-logged *before* being applied (log-before-apply, like
        appends), so recovery replays the renegotiation at the same
        point of the session's history and the rebuilt compressor state
        is bit-identical. The evicted fixes are also queued on the
        session and ride the next append acknowledgement to the client.

        Raises:
            ServeError: ``unknown-session``, ``bad-request`` for a
                session without a budget, or ``wal-failure``.
        """
        session = self.get(session_id)
        if self.wal is not None:
            self.wal.stage_renegotiate(session.object_id, int(budget))
        evicted = session.renegotiate(int(budget))
        counter = self.metrics.counter
        counter("budget_renegotiations").inc()
        counter("fixes_evicted").inc(len(evicted))
        counter(f"fixes_evicted.{session.algorithm}").inc(len(evicted))
        return evicted

    def degrade_budgets(self) -> int:
        """Shrink every live budget-capable session's budget one notch.

        The admission-pressure valve: multiplies each live budget by
        :attr:`degrade_budget_factor`, clamped to
        :attr:`degrade_budget_floor`. Sessions already at the floor (or
        without a budget) are left alone.

        Returns:
            How many sessions were renegotiated.
        """
        floor = self.degrade_budget_floor
        if floor is None:
            return 0
        renegotiated = 0
        for session in list(self._sessions.values()):
            budget = session.budget
            if budget is None or budget <= floor:
                continue
            target = max(floor, int(budget * self.degrade_budget_factor))
            if target >= budget:
                target = budget - 1
            self.renegotiate_session(session.object_id, target)
            renegotiated += 1
        if renegotiated:
            self.metrics.counter("sessions_renegotiated").inc(renegotiated)
        return renegotiated

    def append(self, session_id: object, fix: Fix) -> list[Fix]:
        """Push one fix into a session; returns the newly retained fixes.

        Raises:
            ServeError: ``unknown-session`` or ``out-of-order``.
        """
        return self.append_many(session_id, [fix])

    def append_many(self, session_id: object, fixes: Sequence[Fix]) -> list[Fix]:
        """Push a batch of fixes into a session; returns the retained ones.

        Equivalent to appending each fix in order, but with per-batch
        bookkeeping (one clock read, one LRU touch, counters incremented
        by batch totals) — the difference between ~35k and >100k fixes/s
        through the service.

        Raises:
            ServeError: ``unknown-session``, or ``out-of-order`` when a
                fix mid-batch fails to advance the session clock. The
                accepted prefix is already applied (the session stays
                usable) and the fixes it retained are attached to the
                error as ``retained``, so callers can report them.
        """
        outcome = self.append_batch(session_id, fixes)
        if outcome.error is not None:
            raise ServeError(
                str(outcome.error), code="out-of-order", retained=outcome.retained
            ) from outcome.error
        return outcome.retained

    def append_batch(
        self, session_id: object, fixes: Sequence[Fix], *, seq: int | None = None
    ) -> AppendOutcome:
        """Apply one sequenced append batch; the WAL-aware core path.

        ``seq`` is the batch's per-session monotonic sequence number
        (``None`` auto-assigns the next one, which is what sequence-
        unaware clients get). The contract that makes reconnects safe:

        * ``seq == last_seq + 1`` — the next batch: staged into the WAL
          (when one is configured) *before* being applied, so a crash
          after acknowledgement can always replay it;
        * ``seq == last_seq`` — an idempotent re-send of the most recent
          batch (a client that never saw its ack): nothing is re-applied
          and the cached decisions are returned verbatim;
        * ``seq < last_seq`` — an older duplicate: nothing is applied,
          an empty outcome marked ``duplicate`` is returned;
        * ``seq > last_seq + 1`` — a gap: rejected with code
          ``bad-seq`` (the client must RESUME and re-send).

        Raises:
            ServeError: ``unknown-session``, ``bad-seq``, or
                ``wal-failure`` when the configured WAL has failed.
        """
        session = self.get(session_id)
        if seq is None:
            seq = session.last_seq + 1
        if seq <= session.last_seq:
            self.metrics.counter("appends_duplicate").inc()
            if seq == session.last_seq and session.last_outcome is not None:
                cached = session.last_outcome
                return AppendOutcome(
                    seq=seq,
                    retained=list(cached.retained),
                    evicted=list(cached.evicted),
                    accepted=cached.accepted,
                    duplicate=True,
                    error=cached.error,
                )
            return AppendOutcome(seq=seq, duplicate=True)
        if seq > session.last_seq + 1:
            raise ServeError(
                f"append sequence gap for session {session.object_id!r}: "
                f"got seq {seq}, expected {session.last_seq + 1} "
                f"(resume and re-send)",
                code="bad-seq",
            )
        if self.wal is not None:
            # Log-before-apply: once this batch is acknowledged it is in
            # the WAL; replay applies it through the same deterministic
            # code path, mid-batch rejections included.
            self.wal.stage_append(session.object_id, seq, fixes)
        kept, evicted, accepted, error = session.append_many(fixes, self._clock())
        n_push_evicted = len(evicted)
        if session.unreported_evictions:
            # Renegotiation evictions the client has not seen yet ride
            # this acknowledgement (at-least-once: a recovery replay may
            # re-queue ones an unacked response already carried; the
            # client-side removal is idempotent).
            evicted = session.unreported_evictions + evicted
            session.unreported_evictions = []
        self._sessions.move_to_end(session.object_id)
        counter = self.metrics.counter
        counter("fixes_in").inc(accepted)
        counter("fixes_retained").inc(len(kept))
        counter(f"fixes_in.{session.algorithm}").inc(accepted)
        if n_push_evicted:
            # Renegotiation evictions were counted when they happened.
            counter("fixes_evicted").inc(n_push_evicted)
            counter(f"fixes_evicted.{session.algorithm}").inc(n_push_evicted)
        outcome = AppendOutcome(
            seq=seq, retained=kept, evicted=evicted, accepted=accepted, error=error
        )
        session.last_seq = seq
        session.last_outcome = outcome
        return outcome

    def close(self, session_id: object) -> tuple[StoredRecord | None, list[Fix]]:
        """End a session: finish the window and flush it into the store.

        Returns:
            ``(stored_record, tail)`` — the store's catalog entry (None
            for a session that never appended) and the final retained
            fixes the close decided.

        Raises:
            ServeError: ``unknown-session``, or ``storage`` when the
                store refuses the insert (the session is gone either
                way — its window cannot be reopened).
        """
        session = self.get(session_id)
        del self._sessions[session.object_id]
        record, tail = self._flush(session)
        return record, tail

    def evict_idle(self, now: float | None = None) -> list[str]:
        """Evict (flush + end) every session idle for ``idle_timeout_s``.

        Scans in least-recently-active order and stops at the first
        non-idle session. A flush failure during eviction is counted
        (``evict_flush_failures``) and recorded — exception repr plus
        session id land in the bounded :attr:`last_evict_failures` list
        the ``stats`` verb exposes — but does not stop the sweep: the
        session is discarded regardless, because keeping a dead window
        live would pin the capacity the sweep exists to reclaim.

        Returns:
            The evicted session ids, oldest first.
        """
        now = self._clock() if now is None else now
        evicted: list[str] = []
        for session_id, session in list(self._sessions.items()):
            if now - session.last_active < self.idle_timeout_s:
                break
            del self._sessions[session_id]
            self.metrics.counter("sessions_evicted").inc()
            try:
                self._flush(session)
            except ServeError as exc:
                self.metrics.counter("evict_flush_failures").inc()
                self._record_failure(
                    self.last_evict_failures, session_id, exc
                )
            evicted.append(session_id)
        return evicted

    def discard(self, session_id: object) -> None:
        """Drop a live session without flushing it (no store insert).

        Used when the WAL fails mid-commit: the session's in-memory
        state may be ahead of what is durable, so it must not be acked,
        flushed, or resumed — recovery after restart rebuilds the
        durable prefix instead. Unknown ids are ignored.
        """
        if isinstance(session_id, str) and self._sessions.pop(session_id, None):
            self.metrics.counter("sessions_discarded").inc()

    def flush_all(self) -> list[str]:
        """Flush and end every live session (graceful drain).

        Failures are recorded like eviction failures (the drain must
        visit every session, not stop at the first broken one).

        Returns:
            Ids of the sessions that flushed cleanly.
        """
        flushed: list[str] = []
        for session_id, session in list(self._sessions.items()):
            del self._sessions[session_id]
            try:
                self._flush(session)
            except ServeError as exc:
                self.metrics.counter("drain_flush_failures").inc()
                self._record_failure(
                    self.last_evict_failures, session_id, exc
                )
            else:
                flushed.append(session_id)
        return flushed

    def recover(self) -> dict:
        """Replay the WAL's surviving sessions into live state.

        Call once at startup, before serving. Every unflushed session in
        the WAL is rebuilt by replaying its logged append batches
        through a fresh compressor — streaming compression is
        deterministic, so the rebuilt state (retained points included)
        is byte-identical to the pre-crash acknowledged state. Recovered
        sessions are marked ``recovered`` and keep their sequence
        numbers, so a reconnecting client can RESUME and continue.

        A session whose spec no longer parses (or whose replay fails) is
        recorded in :attr:`last_recovery_failures` and skipped; one bad
        session never blocks the rest. The replayed batches are released
        from the WAL's scan afterwards; only its counts stay.

        Returns:
            ``{"sessions": n, "fixes": n, "failed": n, "dropped_lines": n}``.
        """
        if self.wal is None:
            return {"sessions": 0, "fixes": 0, "failed": 0, "dropped_lines": 0}
        recovered_sessions = 0
        recovered_fixes = 0
        failed = 0
        now = self._clock()
        for rec in self.wal.recovered.live_sessions.values():
            try:
                compressor = make_online_compressor(rec.spec)
                session = Session(rec.session_id, rec.spec, compressor, now)
                for op in rec.ops:
                    if op[0] == "r":
                        # Budget renegotiation: replayed at the same
                        # point of the history, so the deterministic
                        # eviction core re-evicts the same points and
                        # the rebuilt state is bit-identical.
                        session.renegotiate(op[1])
                        continue
                    _, seq, fixes = op
                    # Replay applies acknowledged batches through the
                    # exact code path that applied them originally;
                    # mid-batch StreamErrors are re-decided identically
                    # and deliberately not re-raised.
                    kept, evicted, accepted, error = session.append_many(
                        fixes, now
                    )
                    session.last_seq = seq
                    session.last_outcome = AppendOutcome(
                        seq=seq,
                        retained=kept,
                        evicted=evicted,
                        accepted=accepted,
                        error=error,
                    )
                    recovered_fixes += accepted
            except (ReproError, ValueError, KeyError) as exc:
                failed += 1
                self.metrics.counter("sessions_recovery_failed").inc()
                self._record_failure(
                    self.last_recovery_failures, rec.session_id, exc
                )
                continue
            session.recovered = True
            self._sessions[rec.session_id] = session
            recovered_sessions += 1
            self.metrics.counter("sessions_recovered").inc()
        self.wal.release_recovered()
        return {
            "sessions": recovered_sessions,
            "fixes": recovered_fixes,
            "failed": failed,
            "dropped_lines": self.wal.recovered.dropped_lines,
        }

    @staticmethod
    def _record_failure(bucket: list[dict], session_id: str, exc: Exception) -> None:
        """Append a bounded diagnostic record (session id + error repr)."""
        bucket.append({"session": session_id, "error": repr(exc)})
        if len(bucket) > MAX_RECORDED_FAILURES:
            del bucket[: len(bucket) - MAX_RECORDED_FAILURES]

    # ------------------------------------------------------------------ #
    # Flush & stats
    # ------------------------------------------------------------------ #

    def _flush(self, session: Session) -> tuple[StoredRecord | None, list[Fix]]:
        """Finalize a session and land it in the store (+ store file)."""
        trajectory, tail = session.finalize()
        if trajectory is None:
            if self.wal is not None and not self.wal.failed:
                # Even an empty session must leave a truncation marker,
                # or its open record would pin WAL segments forever.
                self.wal.stage_flushed(session.object_id)
            return None, tail
        with span("serve.flush", session=session.object_id), \
                self.metrics.timer("flush_s").time(), \
                self.metrics.timer(f"flush_s.{session.algorithm}").time():
            try:
                record = self.store.insert(
                    trajectory,
                    object_id=session.object_id,
                    compressor=None,  # points were already chosen online
                    # A recovered session may have flushed just before the
                    # crash reached its WAL truncation marker; replay is
                    # deterministic, so overwriting is the safe outcome.
                    replace=self.replace or session.recovered,
                    raw_point_count=session.n_fixes_in,
                    sync_error_bound_m=session.sync_error_bound_m,
                )
            except StorageError as exc:
                raise ServeError(str(exc), code="storage") from exc
            self.metrics.counter("sessions_flushed").inc()
            self.metrics.counter("fixes_flushed").inc(record.n_stored_points)
            self.metrics.counter("flushed_bytes").inc(record.stored_bytes)
            self.persist()
        if self.wal is not None and not self.wal.failed:
            # Truncation marker: only after the store durably holds the
            # trajectory may the WAL forget this session. The marker is
            # staged here and rides the next group commit; a crash in
            # between merely re-flushes on recovery (replace-safe above).
            self.wal.stage_flushed(session.object_id)
        return record, tail

    def persist(self) -> None:
        """Atomically re-persist the store file, when one is configured."""
        if self.store_path is not None:
            self.store.save(self.store_path, durable=self.durable)

    def stats(self) -> dict:
        """JSON-ready counters answering the ``stats`` verb.

        The registry's top-level fields
        (:func:`~repro.serve.protocol.stats_fields`) plus what the
        registry does not hold: live occupancy and limits, stored
        objects, the bounded failure diagnostics and, when a WAL is
        configured, its commit/segment counters.
        """
        stats = {
            "live_sessions": len(self._sessions),
            "max_sessions": self.max_sessions,
            "idle_timeout_s": self.idle_timeout_s,
            "stored_objects": len(self.store),
            **stats_fields(self.metrics.to_dict()),
            "last_evict_failures": list(self.last_evict_failures),
            "last_recovery_failures": list(self.last_recovery_failures),
        }
        if self.wal is not None:
            stats["wal"] = self.wal.stats()
        return stats
