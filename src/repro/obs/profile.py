"""Phase-attributed wall-time profiling and cost attribution.

The paper's evaluation (§5) decomposes tamper-evidence overhead into a
handful of cost components: hashing compound objects, signing checksums,
building/checking Merkle audit paths, and writing provenance records.
This module makes that decomposition measurable on every run: a
:class:`PhaseProfiler` attributes wall time to a small closed taxonomy
of named phases, and a :class:`CostModel` rolls a profile into
per-record / per-batch cost attribution that flows through the existing
exporters (:mod:`repro.obs.export`).

Design contract — one instrumentation primitive:

- Sites call ``obs.phase(name, **attrs)``; the phase→span/histogram
  table (:data:`PHASE_SINKS`, below) lives in this module, so no site
  decides which observers it feeds.  With everything off the call
  returns a shared no-op (guarded ≤ 2% by
  ``benchmarks/bench_obs_overhead.py``).
- The profiler is a timer *stack* layered over the same thread-local
  discipline as :class:`~repro.obs.tracing.Tracer`: nested phases pause
  their parent's self-time, so ``self_s`` across phases partitions the
  profiled wall time without double counting (``total_s`` stays
  inclusive).
- ``dump()`` / ``merge()`` are picklable plain data, mirroring
  :meth:`~repro.obs.metrics.MetricsRegistry.dump`, so per-worker
  profiles from the ``ParallelVerifier`` merge back into the parent and
  serial vs. parallel runs agree on per-phase call counts.
- Deterministic sampling: ``sample_every=N`` times every Nth entry of a
  phase (a per-phase modulo counter — no randomness, so repeated runs
  sample identically) and scales recorded durations by N.  Calls are
  always counted exactly.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["PHASES", "PHASE_SINKS", "PhaseSinks", "PhaseProfiler", "CostModel"]

#: The closed phase taxonomy (DESIGN.md §11 maps each to a paper §5 cost
#: component).  Sites may only use names from this tuple; the profiler
#: itself accepts any name so tests can probe with synthetic phases.
PHASES = (
    "hash",
    "merkle.leaf",
    "merkle.root",
    "merkle.path",
    "rsa.sign",
    "rsa.verify",
    "proof.build",
    "proof.check",
    "store.io",
    "journal",
    "verify.chain",
    "collector.flush",
)


class PhaseSinks(NamedTuple):
    """The observers one ``obs.phase(name, **attrs)`` site feeds."""

    #: Profiler phase charged (a :data:`PHASES` name), or None.
    profile: Optional[str]
    #: Tracer span opened, carrying the site's attrs.
    span: Optional[str] = None
    #: ``*.seconds`` histogram observed (exemplar: the span's trace id).
    histogram: Optional[str] = None
    #: The histogram's ``(label, value)`` pairs.
    labels: Tuple[Tuple[str, str], ...] = ()


#: The RSA scheme's registry name; only it enters the ``rsa.*`` phases.
_RSA = (("scheme", "rsa-pkcs1v15"),)

#: Site name -> sinks: the one place that decides which span and which
#: histogram each instrumented site feeds.  Every :data:`PHASES` name is
#: a plain profiler phase unless overridden here; the remaining entries
#: are sites that charge another phase (the stores) or none (spans that
#: are not a §5 cost component).
PHASE_SINKS: Dict[str, PhaseSinks] = {
    **{name: PhaseSinks(name) for name in PHASES},
    "rsa.sign": PhaseSinks("rsa.sign", histogram="crypto.sign.seconds", labels=_RSA),
    "rsa.verify": PhaseSinks(
        "rsa.verify", histogram="crypto.verify.seconds", labels=_RSA
    ),
    "proof.build": PhaseSinks("proof.build", histogram="crypto.batch_seal.seconds"),
    "collector.flush": PhaseSinks("collector.flush", span="collector.flush"),
    "verify.chain": PhaseSinks(
        "verify.chain", span="verify.chain", histogram="verify.chain.seconds"
    ),
    # In-memory store batch / SQLite single append / SQLite batch.
    "store.batch": PhaseSinks("store.io", span="store.batch"),
    "store.txn": PhaseSinks("store.io", histogram="store.txn.seconds"),
    "store.txn.batch": PhaseSinks(
        "store.io", span="store.batch", histogram="store.txn.seconds"
    ),
    "verify.worker": PhaseSinks(None, span="verify.worker"),
    "client.request": PhaseSinks(None, span="client.request"),
}


class _PhaseStat:
    """Accumulated timings for one phase name."""

    __slots__ = ("calls", "timed_calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.timed_calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _Frame:
    """One open phase on a thread's timer stack."""

    __slots__ = ("name", "start", "child_s", "timed")

    def __init__(self, name: str, start: float, timed: bool) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0  # actual (unscaled) seconds of timed children
        self.timed = timed


class _PhaseSpan:
    """Context manager returned by :meth:`PhaseProfiler.phase`."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_PhaseSpan":
        self._profiler._enter(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler._exit()
        return False


class PhaseProfiler:
    """Thread-safe phase timer stack with picklable dump/merge.

    Per-thread stacks live in a ``threading.local``; the per-phase
    accumulators are shared and guarded by one lock (taken only while
    profiling is *enabled* — disabled sites never reach the profiler).
    """

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self._stats: Dict[str, _PhaseStat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def phase(self, name: str) -> _PhaseSpan:
        """Open a phase directly on this profiler (sites use ``obs.phase``)."""
        return _PhaseSpan(self, name)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> None:
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = _PhaseStat()
            stat.calls += 1
            timed = (stat.calls - 1) % self.sample_every == 0
        self._stack().append(_Frame(name, perf_counter() if timed else 0.0, timed))

    def _exit(self) -> None:
        now = perf_counter()
        stack = self._stack()
        frame = stack.pop()
        if not frame.timed:
            return
        elapsed = now - frame.start
        scale = float(self.sample_every)
        with self._lock:
            stat = self._stats[frame.name]
            stat.timed_calls += 1
            stat.total_s += elapsed * scale
            # Self time excludes timed children; untimed (sampled-out)
            # children are approximated as zero-cost, an accepted bias of
            # sampling mode (exact when sample_every == 1).
            stat.self_s += max(elapsed - frame.child_s, 0.0) * scale
        if stack and stack[-1].timed:
            stack[-1].child_s += elapsed

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-data view: ``{phase: {calls, timed_calls, total_s, self_s}}``."""
        with self._lock:
            return {
                name: {
                    "calls": stat.calls,
                    "timed_calls": stat.timed_calls,
                    "total_s": stat.total_s,
                    "self_s": stat.self_s,
                }
                for name, stat in sorted(self._stats.items())
            }

    def total_self_seconds(self) -> float:
        """Sum of self time over all phases (the profiled wall time)."""
        with self._lock:
            return sum(stat.self_s for stat in self._stats.values())

    def total_calls(self) -> int:
        """Total phase entries — the number of times a site fired."""
        with self._lock:
            return sum(stat.calls for stat in self._stats.values())

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()

    # -- cross-process plumbing (mirrors MetricsRegistry.dump/merge) -------

    def dump(self) -> Dict[str, object]:
        """Picklable plain-data dump for cross-process merging."""
        with self._lock:
            return {
                "sample_every": self.sample_every,
                "phases": [
                    (name, stat.calls, stat.timed_calls, stat.total_s, stat.self_s)
                    for name, stat in sorted(self._stats.items())
                ],
            }

    def merge(self, dump: Optional[Dict[str, object]]) -> None:
        """Fold a :meth:`dump` from another profiler into this one.

        Counts and times add, so merging every worker's per-chunk delta
        reproduces the serial run's per-phase call counts exactly.
        """
        if not dump:
            return
        phases: Sequence[Tuple] = dump.get("phases", ())  # type: ignore[assignment]
        with self._lock:
            for name, calls, timed_calls, total_s, self_s in phases:
                stat = self._stats.get(name)
                if stat is None:
                    stat = self._stats[name] = _PhaseStat()
                stat.calls += int(calls)
                stat.timed_calls += int(timed_calls)
                stat.total_s += float(total_s)
                stat.self_s += float(self_s)

    def render(self) -> str:
        """Aligned table of per-phase attribution (largest self time first)."""
        from repro.bench.reporting import format_table

        snap = self.snapshot()
        if not snap:
            return "(no phases recorded)"
        total_self = sum(s["self_s"] for s in snap.values()) or 1.0
        rows = []
        for name, s in sorted(snap.items(), key=lambda kv: -kv[1]["self_s"]):
            rows.append((
                name,
                s["calls"],
                f"{s['total_s']:.6f}",
                f"{s['self_s']:.6f}",
                f"{100.0 * s['self_s'] / total_self:5.1f}%",
            ))
        return format_table(("phase", "calls", "total_s", "self_s", "share"), rows)


class CostModel:
    """Per-record / per-batch cost attribution derived from a profile.

    ``snapshot()`` returns the same ``{"counters": ..., "gauges": ...}``
    shape as :meth:`MetricsRegistry.snapshot`, so the existing exporters
    (:func:`~repro.obs.export.to_prometheus`,
    :func:`~repro.obs.export.to_json`,
    :func:`~repro.obs.export.render_text`) work unchanged.
    """

    def __init__(
        self,
        profile: Dict[str, Dict[str, float]],
        records: int = 0,
        batches: int = 0,
    ) -> None:
        self.profile = profile
        self.records = records
        self.batches = batches

    @classmethod
    def from_profiler(
        cls, profiler: PhaseProfiler, records: int = 0, batches: int = 0
    ) -> "CostModel":
        return cls(profiler.snapshot(), records=records, batches=batches)

    # -- attribution -------------------------------------------------------

    def per_call(self) -> Dict[str, float]:
        """Mean seconds per phase entry (inclusive time)."""
        return {
            name: s["total_s"] / s["calls"]
            for name, s in self.profile.items()
            if s["calls"]
        }

    def per_record(self) -> Dict[str, float]:
        """Self seconds per phase attributed to each record."""
        if not self.records:
            return {}
        return {
            name: s["self_s"] / self.records for name, s in self.profile.items()
        }

    def per_batch(self) -> Dict[str, float]:
        """Self seconds per phase attributed to each batch/flush."""
        if not self.batches:
            return {}
        return {
            name: s["self_s"] / self.batches for name, s in self.profile.items()
        }

    def total_self_seconds(self) -> float:
        return sum(s["self_s"] for s in self.profile.values())

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Registry-shaped snapshot consumable by ``repro.obs.export``."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        for name, s in self.profile.items():
            label = "{phase=%s}" % name
            counters["profile.phase.calls" + label] = s["calls"]
            gauges["profile.phase.seconds" + label] = s["self_s"]
        for name, value in self.per_record().items():
            gauges["cost.per_record.seconds{phase=%s}" % name] = value
        for name, value in self.per_batch().items():
            gauges["cost.per_batch.seconds{phase=%s}" % name] = value
        if self.records:
            gauges["cost.records"] = self.records
        if self.batches:
            gauges["cost.batches"] = self.batches
        return {"counters": counters, "gauges": gauges, "histograms": {}}

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly attribution (used by bench history / monitor)."""
        return {
            "records": self.records,
            "batches": self.batches,
            "phases": self.profile,
            "per_record_s": self.per_record(),
            "per_batch_s": self.per_batch(),
            "total_self_s": self.total_self_seconds(),
        }
