"""The shared instrument registry: counters, gauges, timers, histograms.

The process-wide observability layer every subsystem shares. A
:class:`Registry` owns named instruments with get-or-create semantics;
the batch pipeline, the ingestion service, the storage layer and the
compression kernels all sample into one. Everything is stdlib-only and
exports to plain JSON-ready dicts (the historical ``counters`` /
``timers`` / ``histograms`` schema, extended with ``gauges``) or to
Prometheus text exposition (:mod:`repro.obs.export`).

Two kinds of registry exist in practice:

* **explicit registries** — the pipeline engine and the serve layer each
  own one (always live), so their exports stay scoped to one run or one
  server;
* **the ambient default registry** (:func:`get_registry`) — the
  process-wide sink the kernel and storage layers sample into. It is
  **disabled by default** so library calls carry near-zero overhead;
  opt in with ``REPRO_OBS=1`` or :func:`enable`.

Thread-safety: instrument *creation* and :meth:`Registry.to_dict`
snapshots are serialized by a lock, so get-or-create races from threads
always converge on one instrument and exports never observe a mutating
dict. Individual observations (``inc``/``observe``/``set``) are plain
attribute updates — safe under the single-threaded asyncio serve loop
and GIL-interleaved everywhere else, by design cheap enough for hot
paths.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "Registry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "OBS_ENV_VAR",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
]

#: Environment variable that enables the ambient default registry
#: (``1``/``true``/``yes``/``on``) at first use.
OBS_ENV_VAR = "REPRO_OBS"

#: Default histogram bucket upper bounds: a 1-2-5 geometric ladder wide
#: enough for point counts (1..100k) and metre-scale errors alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)

#: Fixed latency buckets in milliseconds, shared by every latency
#: histogram in the library (serve appends sit well under a millisecond
#: on loopback, WAN round trips in the tens).
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (queue depths, live sessions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` (default 1) from the gauge."""
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Accumulates durations: observation count, total and maximum."""

    __slots__ = ("name", "count", "total_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration in seconds."""
        seconds = float(seconds)
        self.count += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager measuring the wrapped block with a monotonic clock."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)

    @property
    def mean_s(self) -> float:
        """Mean observed duration (0 when nothing was observed)."""
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float | int]:
        """JSON-ready summary of the timer."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
        }

    def __repr__(self) -> str:
        return f"Timer({self.name}: n={self.count}, total={self.total_s:.3f}s)"


class Histogram:
    """A fixed-bucket histogram with min/max/sum tracking.

    Buckets are defined by their upper bounds (inclusive); values above
    the last bound land in an overflow bucket.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "overflow",
                 "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] | None = None) -> None:
        self.name = name
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram buckets must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one value."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        slot = bisect.bisect_left(self.bounds, value)
        if slot >= len(self.bounds):
            self.overflow += 1
        else:
            self.bucket_counts[slot] += 1

    @property
    def mean(self) -> float:
        """Mean observed value (0 when nothing was observed)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-ready summary: stats plus per-bucket counts."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self.bounds, self.bucket_counts)
            ],
            "overflow": self.overflow,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.3g})"


class _NullCounter(Counter):
    """Shared no-op counter handed out by disabled registries."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002 - intentional no-op
        pass


class _NullGauge(Gauge):
    """Shared no-op gauge handed out by disabled registries."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullTimer(Timer):
    """Shared no-op timer handed out by disabled registries."""

    __slots__ = ()

    def observe(self, seconds: float) -> None:
        pass

    @contextmanager
    def time(self) -> Iterator[None]:
        yield


class _NullHistogram(Histogram):
    """Shared no-op histogram handed out by disabled registries."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("disabled")
_NULL_GAUGE = _NullGauge("disabled")
_NULL_TIMER = _NullTimer("disabled")
_NULL_HISTOGRAM = _NullHistogram("disabled")


class Registry:
    """A registry of named counters, gauges, timers and histograms.

    Instruments are created on first use (get-or-create semantics), so
    call sites never need to pre-declare what they observe::

        registry = Registry()
        registry.counter("items_ok").inc()
        registry.gauge("queue_depth").set(3)
        with registry.timer("compress_s").time():
            ...
        registry.histogram("points_in").observe(1810)
        json.dumps(registry.to_dict())

    A registry built with ``enabled=False`` hands out shared no-op
    instruments: every observation is a cheap pass, and
    :meth:`to_dict` exports empty categories. This is what makes
    always-written instrumentation free when observability is off.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        if not self.enabled:
            return _NULL_COUNTER
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        if not self.enabled:
            return _NULL_GAUGE
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    gauge = self._gauges[name] = Gauge(name)
        return gauge

    def timer(self, name: str) -> Timer:
        """Get or create the timer called ``name``."""
        if not self.enabled:
            return _NULL_TIMER
        timer = self._timers.get(name)
        if timer is None:
            with self._lock:
                timer = self._timers.get(name)
                if timer is None:
                    timer = self._timers[name] = Timer(name)
        return timer

    def histogram(self, name: str, buckets: Sequence[float] | None = None) -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` is honoured only on creation; later calls return the
        existing instrument unchanged.
        """
        if not self.enabled:
            return _NULL_HISTOGRAM
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(name, buckets)
        return histogram

    def to_dict(self) -> dict[str, dict[str, object]]:
        """Export every instrument as one JSON-ready dict.

        The historical three-category schema (``counters`` / ``timers``
        / ``histograms``) is preserved verbatim; ``gauges`` extends it.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            timers = sorted(self._timers.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {name: counter.value for name, counter in counters},
            "gauges": {name: gauge.value for name, gauge in gauges},
            "timers": {name: timer.to_dict() for name, timer in timers},
            "histograms": {
                name: histogram.to_dict() for name, histogram in histograms
            },
        }

    def __repr__(self) -> str:
        return (
            f"Registry({len(self._counters)} counters, {len(self._gauges)} gauges, "
            f"{len(self._timers)} timers, {len(self._histograms)} histograms, "
            f"{'enabled' if self.enabled else 'disabled'})"
        )


def _env_truthy(value: str | None) -> bool:
    return value is not None and value.strip().lower() in ("1", "true", "yes", "on")


#: The lazily created ambient registry (``None`` until first use).
_default_registry: Registry | None = None
_default_lock = threading.Lock()


def get_registry() -> Registry:
    """The ambient process-wide registry.

    Created on first use, enabled only when ``REPRO_OBS`` is truthy at
    that moment (flip it later with :func:`enable` / :func:`disable`).
    """
    global _default_registry
    registry = _default_registry
    if registry is None:
        with _default_lock:
            registry = _default_registry
            if registry is None:
                registry = Registry(enabled=_env_truthy(os.environ.get(OBS_ENV_VAR)))
                _default_registry = registry
    return registry


def set_registry(registry: Registry | None) -> None:
    """Replace the ambient registry (``None`` re-derives it from the
    environment on next :func:`get_registry`)."""
    global _default_registry
    with _default_lock:
        _default_registry = registry


def enable() -> Registry:
    """Turn the ambient registry on; returns it."""
    registry = get_registry()
    registry.enabled = True
    return registry


def disable() -> Registry:
    """Turn the ambient registry off (observations become no-ops)."""
    registry = get_registry()
    registry.enabled = False
    return registry
