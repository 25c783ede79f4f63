"""Metric definitions: end to end from an untraced run, per layer from spans."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.harness import Phase
from perfbench.proxies import LAYER_OF
from perfbench.spans import Span, attribute, self_times
from perfbench.stats import tail

#: A metric: value, unit, and the samples it was computed from (None
#: where it is not a statistic over samples).
Metric = Tuple[float, str, Optional[int]]

MONITOR_MODES = ("cold", "incremental", "idle", "full")


def _ms(values: Sequence[float], q: float, what: str) -> Metric:
    """The ``q``-quantile in ms; a run whose samples cannot support it
    is an error, not a missing metric."""
    value = tail(values, q)
    if value is None:
        raise ValueError(f"{len(values)} {what} samples cannot support a p{round(q * 100)}")
    return value * 1e3, "ms", len(values)


def end_to_end(setups: Sequence[float], reps: Sequence[Tuple[Phase, float]]) -> Dict[str, Metric]:
    """The untraced run's gated metrics.  ``reps`` holds each
    repetition's load and the service's peak RSS in MB; every metric but
    ``setup_s`` is the median of its per-repetition values."""
    def median(figures) -> float:
        return statistics.median(list(figures))

    completed = [[s for s in phase.samples if s.error is None] for phase, _ in reps]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_rps": (
            median(len(done) / phase.wall for done, (phase, _) in zip(completed, reps)),
            "req/s", sum(map(len, completed))),
        "records_per_s": (
            median(sum(s.records for s in done) / phase.wall
                   for done, (phase, _) in zip(completed, reps)),
            "rec/s", sum(s.records for done in completed for s in done)),
        "latency_p50_ms": (
            median(_ms(phase.latencies(), 0.5, "request")[0] for phase, _ in reps),
            "ms", sum(map(len, completed))),
        "server_rss_mb": (median(rss for _, rss in reps), "MB", len(reps)),
    }


def tail_ms(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile in ms where at least ten samples lie beyond it."""
    value = tail(values, q)
    return None if value is None else value * 1e3


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _under(span: Span, ancestor: str, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == ancestor:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


def per_layer(
    spans: Sequence[Span], traced_rps: float, untraced_rps: float
) -> Tuple[Dict[str, Metric], Dict[str, float]]:
    """Per-layer metrics of a traced run, and the mean self time per
    request of each layer (the reconciliation against request wall)."""
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def durations(name: str) -> List[float]:
        return [s.duration for s in by_name.get(name, ())]

    def total(name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in by_name.get(name, ()))

    requests = by_name.get("request", [])
    n = len(requests) or 1
    signs = by_name.get("crypto.signatures.sign", [])
    seals = by_name.get("crypto.signatures.seal_batch", [])
    appends = by_name.get("provenance.store.append", [])
    scans = by_name.get("provenance.store.scan", [])
    verifies = by_name.get("core.verifier.verify", [])
    ticks = by_name.get("monitor.monitor.tick", [])
    checked = total("core.verifier.verify", "records")
    shipped_scan = sum(
        s.attrs.get("records", 0) for s in scans
        if _under(s, "core.shipment.build", by_id)
    )
    metrics: Dict[str, Metric] = {
        "service.http.overhead_ms": (
            statistics.median(own[r.id] for r in requests) * 1e3 if requests else 0.0,
            "ms", len(requests)),
        "service.auth.validate_us": (_mean(durations("service.auth.validate")) * 1e6, "us",
                                     len(durations("service.auth.validate"))),
        "service.auth.calls": (len(durations("service.auth.validate")) / n, "calls/req", None),
        "service.core.lock_wait_ms": (_mean(durations("service.core.lock_wait")) * 1e3, "ms",
                                      len(durations("service.core.lock_wait"))),
        "service.core.lock_hold_ms": (_mean(durations("service.core.lock_hold")) * 1e3, "ms",
                                      len(durations("service.core.lock_hold"))),
        "backend.engine.apply_us": (_mean(durations("backend.engine.apply")) * 1e6, "us",
                                    len(durations("backend.engine.apply"))),
        "backend.engine.calls": (len(durations("backend.engine.apply")) / n, "calls/req", None),
        "core.merkle.hash_us": (_mean(durations("core.merkle.hash")) * 1e6, "us",
                                len(durations("core.merkle.hash"))),
        "core.merkle.calls": (len(durations("core.merkle.hash")) / n, "calls/req", None),
        "crypto.signatures.sign_us": (_mean([s.duration for s in signs]) * 1e6, "us", len(signs)),
        "crypto.signatures.sign_calls": (len(signs) / n, "calls/req", None),
        "crypto.signatures.us_per_record": (
            (sum(s.duration for s in signs) + sum(s.duration for s in seals))
            / max(1, len(signs)) * 1e6, "us", len(signs)),
        "crypto.signatures.rsa_ops_per_record": (
            (total("crypto.signatures.sign", "rsa") + total("crypto.signatures.seal_batch", "rsa"))
            / max(1, len(signs)), "ratio", len(signs)),
        "provenance.store.append_us": (_mean([s.duration for s in appends]) * 1e6, "us", len(appends)),
        "provenance.store.records_per_append": (
            total("provenance.store.append", "records") / max(1, len(appends)), "ratio", len(appends)),
        "provenance.store.scan_records": (
            total("provenance.store.scan", "records") / n, "records/req", len(scans)),
        "core.shipment.build_ms": (_mean(durations("core.shipment.build")) * 1e3, "ms",
                                   len(durations("core.shipment.build"))),
        "core.shipment.records_scanned_per_checked": (
            shipped_scan / max(1, checked), "ratio", len(verifies)),
        "core.verifier.us_per_record": (
            sum(s.duration for s in verifies) / max(1, checked) * 1e6, "us", int(checked)),
        "core.verifier.records_checked": (checked / max(1, len(verifies)), "records", len(verifies)),
        "monitor.monitor.tick_ms": (
            statistics.median(s.duration for s in ticks) * 1e3 if ticks else 0.0, "ms", len(ticks)),
        "monitor.monitor.verified_ratio": (
            total("monitor.monitor.tick", "verified")
            / max(1, total("monitor.monitor.tick", "total")), "ratio", len(ticks)),
    }
    for mode in MONITOR_MODES:
        metrics[f"monitor.monitor.ticks_{mode}"] = (
            float(sum(1 for s in ticks if s.attrs.get("mode") == mode)), "count", None)
    rows = attribute(spans, LAYER_OF)
    metrics["trace.unattributed_ms"] = (
        _mean([r["unattributed"] for r in rows]) * 1e3, "ms", len(rows))
    metrics["trace.overhead_ratio"] = (traced_rps / untraced_rps, "ratio", None)
    layers = sorted({layer for layer in LAYER_OF.values() if layer})
    reconciliation = {"wall": _mean([r["wall"] for r in rows]) * 1e3}
    for layer in layers + ["unattributed"]:
        reconciliation[layer] = _mean([r.get(layer, 0.0) for r in rows]) * 1e3
    if seals:
        metrics["crypto.signatures.seal_batch_us"] = (
            _mean([s.duration for s in seals]) * 1e6, "us", len(seals))
    return metrics, reconciliation


def recovery_ticks(spans: Sequence[Span]) -> Dict[str, Metric]:
    """The monitor's share of crash recovery, from the spans recorded
    while the restarted service recovered and answered the full
    ``/healthz``: total tick time, and records those ticks verified."""
    ticks = [s for s in spans if s.name == "monitor.monitor.tick"]
    return {
        "recovery.monitor.tick_ms": (sum(s.duration for s in ticks) * 1e3, "ms", len(ticks)),
        "recovery.monitor.verified": (
            float(sum(s.attrs.get("verified", 0) for s in ticks)), "records", len(ticks)),
    }
