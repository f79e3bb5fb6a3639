"""Unified observability: metrics registry, tracing spans, profiling.

One stdlib-only layer shared by every subsystem (see
``docs/OBSERVABILITY.md``):

* :class:`Registry` — named counters, gauges, timers and fixed-bucket
  histograms with get-or-create semantics. Explicit registries
  (pipeline runs, serve instances) are always live; the ambient
  :func:`get_registry` that the kernel and storage layers sample into
  is opt-in (``REPRO_OBS=1`` / :func:`enable`) so library calls stay
  near-zero overhead by default.
* :func:`span` — tracing context managers with monotonic timing,
  parent/child nesting and a bounded ring buffer (``REPRO_TRACE=1`` /
  :func:`configure_tracing`).
* :func:`profiled` — opt-in cProfile snapshots of kernel calls and
  pipeline stages (``REPRO_PROFILE=1``), written atomically.
* :func:`render_prometheus` — Prometheus text exposition of any
  registry or its JSON export (``repro obs dump``).
"""

from repro.obs.export import merge_shard_metrics, render_prometheus
from repro.obs.profiling import (
    PROFILE_DIR_ENV_VAR,
    PROFILE_ENV_VAR,
    profile_dir,
    profiled,
    profiling_enabled,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_MS,
    OBS_ENV_VAR,
    Counter,
    Gauge,
    Histogram,
    Registry,
    Timer,
    disable,
    enable,
    get_registry,
    set_registry,
)
from repro.obs.tracing import (
    DEFAULT_RING_SIZE,
    TRACE_ENV_VAR,
    clear_spans,
    configure_tracing,
    current_span,
    recent_spans,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Timer",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "DEFAULT_RING_SIZE",
    "OBS_ENV_VAR",
    "TRACE_ENV_VAR",
    "PROFILE_ENV_VAR",
    "PROFILE_DIR_ENV_VAR",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "span",
    "tracing_enabled",
    "configure_tracing",
    "current_span",
    "recent_spans",
    "clear_spans",
    "profiled",
    "profiling_enabled",
    "profile_dir",
    "merge_shard_metrics",
    "render_prometheus",
]
