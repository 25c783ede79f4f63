"""Delegating timing proxies around each layer's public objects.

:func:`instrument` swaps the objects a served request passes through for
proxies that open a span around each call and forward it unchanged, in
the manner of ``repro.bench.history._SlowdownScheme``.  Every check the
wrapped code makes still runs; nothing under ``src/`` is modified.

Span names map to the layer (module) they time in :data:`LAYER_OF`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from perfbench.spans import Recorder

#: Span name -> layer.  ``service.core.lock_hold`` maps to no layer: its
#: self time is in-lock work no proxy covers (the collector building and
#: chaining records), reported as ``trace.unattributed_ms``.
LAYER_OF: Dict[str, Optional[str]] = {
    "request": "service.http",
    "service.auth.validate": "service.auth",
    "service.core.call": "service.core",
    "service.core.lock_wait": "service.core",
    "service.core.lock_hold": None,
    "backend.engine.apply": "backend.engine",
    "core.merkle.hash": "core.merkle",
    "crypto.signatures.sign": "crypto.signatures",
    "crypto.signatures.seal_batch": "crypto.signatures",
    "provenance.store.append": "provenance.store",
    "provenance.store.read": "provenance.store",
    "provenance.store.scan": "provenance.store",
    "core.shipment.build": "core.shipment",
    "core.verifier.verify": "core.verifier",
    "monitor.monitor.tick": "monitor.monitor",
}


def timed(rec: Recorder, name: str, call: Callable) -> Callable:
    def run(*args, **kwargs):
        with rec.span(name):
            return call(*args, **kwargs)

    return run


class _Proxy:
    """Forwards every attribute; methods named in ``TIMED`` run in a span."""

    TIMED: Dict[str, str] = {}

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        span = self.TIMED.get(name)
        if span is None or not callable(value):
            return value
        return timed(self._rec, span, value)


class AuthProxy(_Proxy):
    TIMED = {
        "validate": "service.auth.validate",
        "require_admin": "service.auth.validate",
    }


class EngineProxy(_Proxy):
    TIMED = {
        name: "backend.engine.apply"
        for name in ("insert", "update", "delete", "aggregate")
    }


_HASH_CALLS = (
    "begin", "forget", "current_digest", "current_size", "ensure_tree",
    "commit", "before_digest", "before_size", "after_digest", "after_size",
)


class HashingProxy(_Proxy):
    """The hashing strategy and the per-operation contexts it begins."""

    TIMED = {name: "core.merkle.hash" for name in _HASH_CALLS}

    def begin(self, store):
        with self._rec.span("core.merkle.hash"):
            return HashingProxy(self._inner.begin(store), self._rec)


class SchemeProxy(_Proxy):
    """A participant's signature scheme.  A per-record scheme spends one
    RSA operation per ``sign``; a batch scheme one per ``seal_batch``."""

    def sign(self, message: bytes) -> bytes:
        per_record = not hasattr(self._inner, "seal_batch")
        with self._rec.span("crypto.signatures.sign", rsa=int(per_record)):
            return self._inner.sign(message)

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name != "seal_batch":
            return value

        def seal_batch():
            with self._rec.span("crypto.signatures.seal_batch", rsa=1) as span:
                proofs = value()
                if span is not None:
                    span.attrs["records"] = len(proofs)
                return proofs

        return seal_batch


class StoreProxy(_Proxy):
    """The tenant's provenance store.  ``all_records`` is drained inside
    its span so the scan is timed, and its record count kept."""

    READS = (
        "records_for", "latest", "get", "object_ids", "watermarks",
        "get_watermark", "set_watermark", "clear_watermark", "journal",
    )
    TIMED = {name: "provenance.store.read" for name in READS}

    def append(self, record) -> None:
        with self._rec.span("provenance.store.append", records=1):
            self._inner.append(record)

    def append_many(self, records) -> None:
        batch = list(records)
        with self._rec.span("provenance.store.append", records=len(batch)):
            self._inner.append_many(batch)

    def all_records(self):
        with self._rec.span("provenance.store.scan") as span:
            records = tuple(self._inner.all_records())
            if span is not None:
                span.attrs["records"] = len(records)
        return iter(records)

    def __len__(self) -> int:
        return len(self._inner)


class ShipmentProxy(_Proxy):
    def verify(self, keystore, workers=None, faults=None):
        with self._rec.span("core.verifier.verify") as span:
            report = self._inner.verify(keystore, workers=workers, faults=faults)
            if span is not None:
                span.attrs["records"] = report.records_checked
            return report

    def __len__(self) -> int:
        return len(self._inner)


class MonitorProxy(_Proxy):
    def tick(self, full: bool = False):
        with self._rec.span("monitor.monitor.tick") as span:
            result = self._inner.tick(full=full)
            if span is not None:
                span.attrs.update(
                    mode=result.mode,
                    verified=result.records_verified,
                    total=result.records_total,
                )
            return result


class LockProxy:
    """A tenant's ``RLock``: the outermost acquire is timed as a wait
    span, and the hold as a span that parents everything done under it."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec
        self._local = threading.local()

    def __enter__(self):
        depth = getattr(self._local, "depth", 0)
        if depth == 0:
            with self._rec.span("service.core.lock_wait"):
                self._inner.acquire()
            self._local.hold = self._rec.open("service.core.lock_hold")
        else:
            self._inner.acquire()
        self._local.depth = depth + 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._local.depth -= 1
        if self._local.depth == 0:
            self._rec.close(self._local.hold)
            self._local.hold = None
        self._inner.release()


SERVICE_CALLS = (
    "record", "batch", "verify", "lineage", "provenance", "objects",
    "healthz", "recover",
)


def instrument(service, rec: Recorder) -> None:
    """Wrap ``service`` and every tenant world it has open (call it
    after setup has created the worlds)."""
    service.authority = AuthProxy(service.authority, rec)
    for name in SERVICE_CALLS:
        setattr(service, name, timed(rec, "service.core.call", getattr(service, name)))
    for tenant in service.tenant_ids():
        _instrument_world(service.world(tenant), rec)


def _instrument_world(world, rec: Recorder) -> None:
    db = world.db
    store = StoreProxy(db.provenance_store, rec)
    db.provenance_store = db.collector.provenance_store = store
    hashing = HashingProxy(db.hashing, rec)
    db.hashing = db.collector.hashing = hashing
    db.engine = EngineProxy(db.engine, rec)
    world.participant.scheme = SchemeProxy(world.participant.scheme, rec)
    world.lock = LockProxy(world.lock, rec)

    ship = db.ship

    def traced_ship(object_id):
        with rec.span("core.shipment.build"):
            shipment = ship(object_id)
        return ShipmentProxy(shipment, rec)

    db.ship = traced_ship

    monitor = world.monitor()
    monitor.store = store
    traced_monitor = MonitorProxy(monitor, rec)
    world.monitor = lambda: traced_monitor
