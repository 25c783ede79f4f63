"""Observability for the provenance pipeline: metrics, spans, exporters.

The paper's whole evaluation (§5, Figs. 6–11) is about *overhead* — where
checksumming spends time and space.  This package makes every run an
experiment: hot paths (hashing, signing, Merkle rehashing, provenance
appends, chain verification) report counters/histograms into a process-
wide :class:`~repro.obs.metrics.MetricsRegistry` and open
:class:`~repro.obs.tracing.Span`\\ s, but **only when enabled**.

Design contract — one instrumentation primitive, near-zero cost when off:

- The singleton :data:`OBS` is the only global.  Sites call
  ``obs.phase(name, **attrs)``; the phase→span/histogram table lives in
  ``repro/obs/profile.py`` (:data:`~repro.obs.profile.PHASE_SINKS`).
  With observability disabled (the default) the call returns a shared
  stateless no-op, and the *entire* cost of a site is that call —
  guarded at ≤ ~2% of hot-loop time by
  ``benchmarks/bench_obs_overhead.py``.  Counters and event emission
  stay plain ``if OBS.enabled:`` / ``OBS.events`` slot checks.

Typical use::

    from repro import obs

    obs.enable()
    ... run a workload ...
    print(obs.export.render_text(obs.OBS.registry.snapshot()))
    for root in obs.OBS.tracer.traces:
        print(obs.tracing.render_trace(root))
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from repro.obs import events as events_module  # noqa: F401 (re-exported)
from repro.obs import export, tracing  # re-exported submodules
from repro.obs import profile as profile_module  # noqa: F401 (re-exported)
# NOTE: repro.obs.plane is intentionally NOT imported here — it depends
# on tracing only and is imported lazily by the service layer, keeping
# `import repro.obs` light for the hot paths that only check OBS slots.
from repro.obs.events import EventLog, FileSink, RingBufferSink
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import PHASE_SINKS, CostModel, PhaseProfiler, PhaseSinks
from repro.obs.tracing import Span, TraceContext, Tracer, render_trace

__all__ = [
    "OBS",
    "enable",
    "disable",
    "phase",
    "span",
    "span_remote",
    "snapshot",
    "emit",
    "enable_events",
    "disable_events",
    "enable_profile",
    "disable_profile",
    "PhaseProfiler",
    "CostModel",
    "worker_config",
    "apply_worker_config",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "EventLog",
    "RingBufferSink",
    "FileSink",
    "render_trace",
    "DEFAULT_BUCKETS",
    "export",
    "tracing",
]


class ObsState:
    """The process-wide observability switchboard.

    ``enabled`` gates metrics, ``tracing`` gates spans, ``events`` (an
    :class:`~repro.obs.events.EventLog` or None) gates structured events,
    ``profiler`` (a :class:`~repro.obs.profile.PhaseProfiler` or None)
    gates phase-attributed timing; all default to off.  Slots keep the
    hot-path attribute check a plain slot load — event sites are written
    ``x = OBS.events`` / ``if x is not None:``.  ``timing`` is derived on
    every write: true while any switch :func:`phase` serves is on, so a
    disabled site reads one slot.
    """

    __slots__ = ("enabled", "tracing", "registry", "tracer", "events",
                 "profiler", "timing")

    def __init__(self) -> None:
        self.enabled = False
        self.tracing = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.events: Optional[EventLog] = None
        self.profiler: Optional[PhaseProfiler] = None

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in ("enabled", "tracing", "profiler"):
            object.__setattr__(self, "timing", bool(
                getattr(self, "enabled", False)
                or getattr(self, "tracing", False)
                or getattr(self, "profiler", None) is not None
            ))


#: The module-level default state every instrumented site checks.
OBS = ObsState()


class _NoopSpan:
    """Reusable, stateless no-op scope for disabled spans and phases.

    Static methods, so ``with`` calls them without building a bound
    method: every disabled site pays for this scope.
    """

    __slots__ = ()
    __enter__ = staticmethod(lambda: None)
    __exit__ = staticmethod(lambda exc_type, exc, tb: False)


_NOOP_SPAN = _NoopSpan()


def enable(metrics: bool = True, tracing: bool = True, reset: bool = False) -> None:
    """Turn observability on (both metrics and tracing by default).

    ``reset=True`` additionally clears the registry and finished traces,
    giving a clean measurement window.
    """
    if reset:
        OBS.registry.reset()
        OBS.tracer.reset()
    OBS.enabled = metrics
    OBS.tracing = tracing


def disable(reset: bool = False) -> None:
    """Turn observability off (back to the near-zero-cost default)."""
    OBS.enabled = False
    OBS.tracing = False
    if reset:
        OBS.registry.reset()
        OBS.tracer.reset()


class _Phase:
    """One ``obs.phase`` scope: profiler phase, span and histogram."""

    __slots__ = ("_sinks", "_attrs", "_prof", "_tracer", "_metrics",
                 "_span", "_start")

    def __init__(self, sinks: PhaseSinks, attrs, prof, tracer, metrics: bool):
        self._sinks = sinks
        self._attrs = attrs
        self._prof = prof
        self._tracer = tracer
        self._metrics = metrics
        self._span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        if self._tracer is not None:
            self._span = self._tracer.start(self._sinks.span, self._attrs)
        if self._prof is not None:
            self._prof._enter(self._sinks.profile)
        if self._metrics:
            self._start = perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        sinks, span = self._sinks, self._span
        if self._metrics and exc_type is None:
            OBS.registry.histogram(sinks.histogram, **dict(sinks.labels)).observe(
                perf_counter() - self._start,
                exemplar=span.trace_id if span is not None else None,
            )
        if self._prof is not None:
            self._prof._exit()
        if span is not None:
            if exc_type is not None:
                span.attrs.setdefault("error", exc_type.__name__)
            self._tracer.finish(span)
        return False


def phase(name: str, **attrs: object):
    """Instrument one site: ``with obs.phase("verify.chain", records=n):``.

    Enters the profiler phase, opens the tracer span (``attrs`` become
    its attributes) and observes the histogram that
    :data:`~repro.obs.profile.PHASE_SINKS` declares for ``name`` — each
    only while its switch is on.  A span-declaring phase yields the open
    :class:`Span` (None otherwise).  With every switch off, or none of
    the declared sinks live, it is the shared no-op.
    """
    if not OBS.timing:
        return _NOOP_SPAN
    sinks = PHASE_SINKS.get(name) or PhaseSinks(name)
    prof = OBS.profiler if sinks.profile is not None else None
    tracer = OBS.tracer if OBS.tracing and sinks.span is not None else None
    metrics = OBS.enabled and sinks.histogram is not None
    if prof is None and tracer is None and not metrics:
        return _NOOP_SPAN
    return _Phase(sinks, attrs, prof, tracer, metrics)


def span(name: str, **attrs: object):
    """A tracing span when tracing is on, a shared no-op otherwise."""
    if OBS.tracing:
        return OBS.tracer.span(name, **attrs)
    return _NOOP_SPAN


def span_remote(name: str, context: Optional[TraceContext], **attrs: object):
    """A span parented on an explicit remote trace context.

    Used by the service's HTTP handler to join a client's trace (from a
    ``traceparent`` header) without touching the tracer's process-global
    remote context — safe with one span per concurrent request thread.
    ``context=None`` degrades to a plain local span; tracing off is the
    shared no-op.
    """
    if OBS.tracing:
        return OBS.tracer.span_remote(name, context, **attrs)
    return _NOOP_SPAN


def snapshot() -> Dict[str, Dict[str, object]]:
    """Plain-data snapshot of the default registry."""
    return OBS.registry.snapshot()


# ---------------------------------------------------------------------------
# structured events
# ---------------------------------------------------------------------------


def enable_events(
    ring: int = 1024,
    path: Optional[str] = None,
    max_bytes: Optional[int] = None,
    keep: int = 3,
) -> EventLog:
    """Attach an event log (ring buffer of ``ring`` events, optional JSONL file).

    ``ring=0`` skips the ring-buffer sink; ``path`` adds an append-only
    :class:`~repro.obs.events.FileSink`, size-capped at ``max_bytes``
    with ``keep`` rotated segments when set.  Returns the installed log.
    Orthogonal to :func:`enable`/:func:`disable` — events can run with
    metrics and tracing off (they still get correlation ids, just no
    trace ids).
    """
    log = EventLog()
    if ring:
        log.add_sink(RingBufferSink(ring))
    if path is not None:
        log.add_sink(FileSink(path, max_bytes=max_bytes, keep=keep))
    OBS.events = log
    return log


def disable_events() -> None:
    """Detach and close the event log (back to zero-cost slot checks)."""
    log, OBS.events = OBS.events, None
    if log is not None:
        log.close()


def emit(kind: str, **fields: object) -> None:
    """Emit one structured event if an event log is attached (else no-op)."""
    log = OBS.events
    if log is not None:
        log.emit(kind, **fields)


# ---------------------------------------------------------------------------
# phase profiling
# ---------------------------------------------------------------------------


def enable_profile(sample_every: int = 1, reset: bool = False) -> PhaseProfiler:
    """Attach a phase profiler (returns it; orthogonal to :func:`enable`).

    ``sample_every=N`` turns on deterministic sampling (time every Nth
    entry per phase, scale by N).  ``reset=True`` discards a previously
    attached profiler's data instead of reusing it.
    """
    prof = OBS.profiler
    if prof is None or reset or prof.sample_every != sample_every:
        prof = OBS.profiler = PhaseProfiler(sample_every=sample_every)
    return prof


def disable_profile() -> Optional[PhaseProfiler]:
    """Detach the phase profiler; returns it so callers can keep the data."""
    prof, OBS.profiler = OBS.profiler, None
    return prof


# ---------------------------------------------------------------------------
# cross-process propagation (ParallelVerifier workers)
# ---------------------------------------------------------------------------


def worker_config() -> Optional[Dict[str, object]]:
    """What a pool worker needs to continue this process's observability.

    Returns None when observability is fully disabled, so workers skip
    setup entirely.
    """
    if not (OBS.enabled or OBS.tracing or OBS.profiler is not None):
        return None
    return {
        "metrics": OBS.enabled,
        "tracing": OBS.tracing,
        "trace_context": OBS.tracer.context() if OBS.tracing else None,
        "profile": (
            {"sample_every": OBS.profiler.sample_every}
            if OBS.profiler is not None
            else None
        ),
    }


def apply_worker_config(config: Optional[Dict[str, object]]) -> None:
    """Install a parent's :func:`worker_config` in a worker process.

    Fork-started workers inherit the parent's registry contents and the
    tracer's open span stack; both are replaced with fresh instances so a
    worker only ever reports its own deltas.  The event log is dropped
    outright: events are single-writer (the parent), so worker-side sites
    stay silent and the stream keeps one deterministic ordering.
    """
    OBS.registry = MetricsRegistry()
    OBS.tracer = Tracer()
    OBS.events = None
    OBS.profiler = None
    if config is None:
        disable()
        return
    OBS.enabled = bool(config.get("metrics"))
    OBS.tracing = bool(config.get("tracing"))
    OBS.tracer.install_remote_context(config.get("trace_context"))
    profile_cfg = config.get("profile")
    if profile_cfg:
        OBS.profiler = PhaseProfiler(
            sample_every=int(profile_cfg.get("sample_every", 1))
        )
