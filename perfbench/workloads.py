"""Seeded request streams for the two served workloads.

Every request a run sends is generated here from ``(seed, workload,
connection)``; the service receives only these inputs.  Each connection
owns its objects, so the generator can predict every answer without
seeing the other connection's traffic: a write must acknowledge exactly
the ``(object_id, seq_id)`` pairs in :attr:`Op.writes`, and a verify
or provenance read must report :attr:`Op.chain` records.

Op mixes are fixed proportions within seeded-shuffled blocks, so a
different seed changes which objects and values are used, but not how
much of each kind of work a run does.  Health probes
are not part of a stream: they go out on a clock (:data:`PROBE_INTERVAL_S`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Iterator, List, Optional, Tuple

#: Connections per run: one per CPU of the 2-CPU reference host.
CONNECTIONS = 2


@dataclass(frozen=True)
class Op:
    """One request and what its answer must say."""

    kind: str
    method: str
    path: str
    #: Tenant whose API key authenticates the request; None sends none.
    tenant: Optional[str] = None
    body: Optional[dict] = None
    #: ``(object_id, seq_id)`` pairs a write must acknowledge.
    writes: Tuple[Tuple[str, int], ...] = ()
    #: Records a verify or provenance answer must report.
    chain: int = 0
    #: Checksums a provenance read must return, oldest first (readback).
    checksums: Tuple[str, ...] = ()


def check(op: Op, status: int, payload: dict) -> Optional[str]:
    """Why ``payload`` is not the answer ``op`` expects, or None."""
    if status != 200:
        return f"{op.kind} {op.path}: HTTP {status} {payload.get('error', '')}"
    if op.kind == "probe":
        if payload.get("health") != "ok":
            return f"probe: health {payload.get('health')!r}"
        return None
    if op.writes:
        got = sorted(
            (str(r.get("object_id")), r.get("seq_id"))
            for r in payload.get("records", ())
        )
        if got != sorted(op.writes):
            return f"{op.kind}: acknowledged {got[:4]}..., expected {sorted(op.writes)[:4]}..."
    if op.kind == "verify":
        if payload.get("ok") is not True or payload.get("records_checked") != op.chain:
            return (
                f"verify {op.body['object_id']}: ok={payload.get('ok')} "
                f"records_checked={payload.get('records_checked')}, expected {op.chain}"
            )
    elif op.kind == "provenance":
        seqs = [r.get("seq_id") for r in payload.get("records", ())]
        if seqs != list(range(op.chain)):
            return f"provenance {op.path}: seq ids {seqs}, expected 0..{op.chain - 1}"
        sums = tuple(r.get("checksum") for r in payload.get("records", ()))
        if op.checksums and sums != op.checksums:
            return f"provenance {op.path}: checksums differ from the acknowledged ones"
    return None


@dataclass
class Ledger:
    """Every record the service acknowledged: ``(tenant, object) -> {seq: checksum}``."""

    acked: Dict[Tuple[str, str], Dict[int, str]] = field(default_factory=dict)

    def acknowledge(self, op: Op, payload: dict) -> int:
        """Note the records of a checked write answer; returns their count."""
        records = payload.get("records", ()) if op.writes else ()
        for record in records:
            chain = self.acked.setdefault((op.tenant, record["object_id"]), {})
            chain[record["seq_id"]] = record["checksum"]
        return len(records)

    def merge(self, other: "Ledger") -> None:
        for key, chain in other.acked.items():
            self.acked.setdefault(key, {}).update(chain)

    def records(self) -> int:
        return sum(len(chain) for chain in self.acked.values())


# ----------------------------------------------------------------------
# request builders
# ----------------------------------------------------------------------


def _record(tenant: str, op: str, object_id: str, value, seq: int) -> Op:
    return Op(
        kind=op, method="POST", path="/v1/record", tenant=tenant,
        body={"op": op, "object_id": object_id, "value": value},
        writes=((object_id, seq),),
    )


def _verify(tenant: str, object_id: str, chain: int) -> Op:
    return Op(
        kind="verify", method="POST", path="/v1/verify", tenant=tenant,
        body={"object_id": object_id}, chain=chain,
    )


PROBE = Op(kind="probe", method="GET", path="/healthz?quick=1")

#: Seconds between the unauthenticated quick health probes (one
#: incremental monitor tick each) that connection 0 sends during a timed
#: load.  The service is assumed to sit behind a load balancer that
#: checks it on a clock: 2 s is HAProxy's default check interval
#: (``inter``, "defaults to 2000 ms" in its configuration manual).  The
#: probe rate is then the same whatever the request rate.
PROBE_INTERVAL_S = 2.0


def _blocks(rng: random.Random, pattern: List[str]) -> Iterator[str]:
    """Endless op kinds: ``pattern`` reshuffled for every block."""
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield from block


def _value(rng: random.Random) -> str:
    return f"v{rng.getrandbits(40):010x}"


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A traffic mix and the service configuration it runs against."""

    name: str
    tenants: Tuple[str, ...]
    scheme: str
    #: SQLite shards under a store root (True) or in-memory stores.
    durable: bool
    #: Answers of a repetition's load after which the service's peak RSS
    #: is read, so ``server_rss_mb`` measures a fixed amount of work.
    rss_after: int

    def service_config(self, store_root: Optional[str]) -> dict:
        """Keyword arguments for ``ServiceConfig``.  The key seed is
        fixed, so key generation costs the same on every benchmark seed."""
        return {
            "seed": 0,
            "key_bits": 1024,
            "signature_scheme": self.scheme,
            "store_root": store_root if self.durable else None,
        }

    def ops(self, seed: int, conn: int) -> Iterator[Op]:
        """Connection ``conn``'s endless request stream."""
        raise NotImplementedError


class Ingest(Workload):
    """Per-record RSA inserts and updates, 1 verify in 20."""

    #: Objects each connection inserts per tenant before it only updates.
    OBJECTS = 32
    PATTERN = ["write"] * 19 + ["verify"]

    def ops(self, seed: int, conn: int) -> Iterator[Op]:
        rng = random.Random(f"{seed}|{self.name}|{conn}")
        chains: Dict[str, List[int]] = {t: [] for t in self.tenants}
        kinds = _blocks(rng, self.PATTERN)
        for index in count():
            tenant = self.tenants[index % len(self.tenants)]
            own = chains[tenant]
            # The first round inserts into every tenant, so that any
            # verify after it has an object to pick.
            kind = next(kinds) if index >= len(self.tenants) else "write"
            if kind == "verify":
                k = rng.randrange(len(own))
                yield _verify(tenant, f"c{conn}-o{k}", own[k])
            elif len(own) < self.OBJECTS:
                own.append(1)
                yield _record(tenant, "insert", f"c{conn}-o{len(own) - 1}", _value(rng), 0)
            else:
                k = rng.randrange(len(own))
                own[k] += 1
                yield _record(tenant, "update", f"c{conn}-o{k}", _value(rng), own[k] - 1)


class DurableBatch(Workload):
    """``/v1/batch`` calls of 16 inserts and updates on SQLite shards."""

    BATCH = 16
    INSERTS = 2

    def ops(self, seed: int, conn: int) -> Iterator[Op]:
        rng = random.Random(f"{seed}|{self.name}|{conn}")
        chains: Dict[str, List[int]] = {t: [] for t in self.tenants}
        for index in count():
            tenant = self.tenants[index % len(self.tenants)]
            own = chains[tenant]
            updates = self.BATCH - self.INSERTS if len(own) >= self.BATCH else 0
            picked = rng.sample(range(len(own)), updates)
            ops, writes = [], []
            for k in picked:
                ops.append({"op": "update", "object_id": f"c{conn}-o{k}", "value": _value(rng)})
                writes.append((f"c{conn}-o{k}", own[k]))
                own[k] += 1
            for _ in range(self.BATCH - updates):
                object_id = f"c{conn}-o{len(own)}"
                own.append(1)
                ops.append({"op": "insert", "object_id": object_id, "value": _value(rng)})
                writes.append((object_id, 0))
            rng.shuffle(ops)
            yield Op(
                kind="batch", method="POST", path="/v1/batch", tenant=tenant,
                body={"ops": ops}, writes=tuple(writes),
            )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Ingest("ingest", ("t0", "t1", "t2", "t3"), "rsa", durable=False, rss_after=1200),
        DurableBatch("durable-batch", ("d0", "d1"), "merkle-batch", durable=True, rss_after=400),
    )
}


def verify_sample(ledger: Ledger, seed: int, size: int) -> List[Op]:
    """Seeded verifies of acknowledged objects."""
    keys = sorted(ledger.acked)
    rng = random.Random(f"{seed}|verify-sample")
    picked = rng.sample(keys, min(size, len(keys)))
    return [_verify(tenant, obj, len(ledger.acked[(tenant, obj)])) for tenant, obj in picked]


def readback(ledger: Ledger) -> List[Op]:
    """One provenance read per acknowledged object, expecting exactly the
    acknowledged checksums."""
    return [
        Op(
            kind="provenance", method="GET", path=f"/v1/provenance/{obj}",
            tenant=tenant, chain=len(chain),
            checksums=tuple(chain[seq] for seq in range(len(chain))),
        )
        for (tenant, obj), chain in sorted(ledger.acked.items())
    ]
