"""Witness anchoring: an append-only, hash-linked log of chain tails.

The witness is a notary outside every custodian's control that
countersigns chain tails — every object's in a periodic
:meth:`Witness.tick`, or one object's on demand — into an append-only
log whose entries hash-link to their predecessors.  Under the
Merkle-batch scheme the tail checksum is exactly the leaf bound into the
participant's published batch root, so anchoring it pins the published
root too.  Each signature covers the previous entry's digest, so the
log itself is tamper-evident: an insider cannot edit, reorder or drop
anchors without breaking either a hash link or a witness signature —
except the newest entry, whose removal leaves a shorter log that is still
well formed.

This closes the documented full-coalition gap: a coalition owning an
entire chain suffix can re-sign it into an internally consistent forgery
(:func:`repro.trust.coalition.coalition_rewrite`), but it cannot forge
the witness's signature over the *original* tail checksum.  Once an
anchor covers a region, :func:`check_anchors` (and the monitor's
``witness-mismatch`` alert rule) flags any store state contradicting it,
and :func:`verify_with_witness` flags any shipment contradicting it —
the recipient-side close of the tail-truncation boundary (SECURITY.md).

The witness sees only ``(object_id, seq_id, checksum)`` — opaque
signature bytes, no data values — so the availability/privacy cost of
the third party is as small as it can be.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.verifier import VerificationFailure, VerificationReport
from repro.crypto.hashing import hash_bytes
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import (
    RSASignatureScheme,
    SignatureScheme,
    SignatureVerifier,
)
from repro.exceptions import VerificationError

__all__ = [
    "WitnessAnchor",
    "AnchorLog",
    "Witness",
    "check_anchors",
    "verify_with_witness",
]

_LINK_HASH = "sha256"


def _anchor_payload(
    index: int, object_id: str, seq_id: int, checksum: bytes, prev_digest: bytes
) -> bytes:
    body = json.dumps(
        {
            "witness": "v1",
            "index": index,
            "object_id": object_id,
            "seq_id": seq_id,
            "checksum": checksum.hex(),
            "prev": prev_digest.hex(),
        },
        sort_keys=True,
    )
    return body.encode("utf-8")


@dataclass(frozen=True)
class WitnessAnchor:
    """One countersigned chain tail in the witness's log."""

    index: int  # position in the log (the witness's monotonic clock)
    object_id: str
    seq_id: int
    checksum: bytes
    prev_digest: bytes  # digest of the preceding log entry (b"" at genesis)
    signature: bytes

    def payload(self) -> bytes:
        """The bytes the witness signed (includes the hash link)."""
        return _anchor_payload(
            self.index, self.object_id, self.seq_id, self.checksum, self.prev_digest
        )

    def entry_digest(self) -> bytes:
        """Digest the *next* entry links to (covers payload + signature)."""
        return hash_bytes(self.payload() + self.signature, _LINK_HASH)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "index": self.index,
            "object_id": self.object_id,
            "seq_id": self.seq_id,
            "checksum": self.checksum.hex(),
            "prev_digest": self.prev_digest.hex(),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WitnessAnchor":
        """Inverse of :meth:`to_dict`.

        Raises:
            VerificationError: On malformed input.
        """
        try:
            return cls(
                index=int(data["index"]),
                object_id=str(data["object_id"]),
                seq_id=int(data["seq_id"]),
                checksum=bytes.fromhex(data["checksum"]),
                prev_digest=bytes.fromhex(data["prev_digest"]),
                signature=bytes.fromhex(data["signature"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise VerificationError(f"malformed witness anchor: {exc}") from exc


@dataclass
class AnchorLog:
    """Append-only, hash-linked sequence of :class:`WitnessAnchor`.

    The log enforces its own invariants on append (dense indices, correct
    hash links); :meth:`audit` re-checks them plus the signatures, for
    logs loaded from untrusted storage.
    """

    entries: List[WitnessAnchor] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WitnessAnchor]:
        return iter(self.entries)

    def head_digest(self) -> bytes:
        """Digest the next appended entry must link to."""
        return self.entries[-1].entry_digest() if self.entries else b""

    def append(self, anchor: WitnessAnchor) -> None:
        """Append one anchor.

        Raises:
            VerificationError: If the anchor's index or hash link does
                not continue the log (append-only means no gaps, no
                rewrites).
        """
        if anchor.index != len(self.entries):
            raise VerificationError(
                f"anchor index {anchor.index} does not continue the log "
                f"(expected {len(self.entries)})"
            )
        if anchor.prev_digest != self.head_digest():
            raise VerificationError(
                f"anchor {anchor.index} does not hash-link to the log head"
            )
        self.entries.append(anchor)

    def latest_for(self, object_id: str) -> Optional[WitnessAnchor]:
        """The most recent anchor covering ``object_id``, if any."""
        for anchor in reversed(self.entries):
            if anchor.object_id == object_id:
                return anchor
        return None

    def audit(self, verifier: SignatureVerifier) -> Tuple[Tuple[int, str], ...]:
        """Integrity problems in the log itself, as ``(index, reason)``.

        Checks dense indexing, hash-link continuity, and every witness
        signature.  An empty result means the log is exactly what the
        witness wrote, in order, with nothing dropped.
        """
        problems: List[Tuple[int, str]] = []
        prev_digest = b""
        for position, anchor in enumerate(self.entries):
            if anchor.index != position:
                problems.append(
                    (position, f"entry carries index {anchor.index}; log is not dense")
                )
            if anchor.prev_digest != prev_digest:
                problems.append(
                    (position, "hash link to the previous entry is broken")
                )
            if not verifier.verify(anchor.payload(), anchor.signature):
                problems.append(
                    (position, "witness signature does not verify")
                )
            prev_digest = anchor.entry_digest()
        return tuple(problems)

    def save(self, path: str) -> None:
        """Persist as JSONL (atomic via temp-file rename)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for anchor in self.entries:
                handle.write(json.dumps(anchor.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "AnchorLog":
        """Load a log saved by :meth:`save`; missing file means empty log.

        Raises:
            VerificationError: On malformed lines.
        """
        log = cls()
        if not os.path.exists(path):
            return log
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise VerificationError(
                        f"malformed anchor log line: {exc}"
                    ) from exc
                log.entries.append(WitnessAnchor.from_dict(data))
        return log


class Witness:
    """A notary countersigning chain tails into an :class:`AnchorLog`.

    Args:
        scheme: The witness's own signature scheme — its key is NOT any
            participant's; being outside the custodian set is the point.
        log: Existing log to continue (default: fresh empty log).
    """

    def __init__(self, scheme: SignatureScheme, log: Optional[AnchorLog] = None):
        self._scheme = scheme
        self.log = log if log is not None else AnchorLog()

    @classmethod
    def generate(
        cls,
        key_bits: int = 512,
        seed: object = 0x517,
        log: Optional[AnchorLog] = None,
    ) -> "Witness":
        """Deterministic witness for simulations and tests."""
        keypair = generate_keypair(key_bits, rng=random.Random(f"witness|{seed}"))
        return cls(RSASignatureScheme(keypair.private), log=log)

    def verifier(self) -> SignatureVerifier:
        """Public-material-only counterpart for auditors and monitors."""
        return self._scheme.verifier()

    def anchor_tail(self, object_id: str, seq_id: int, checksum: bytes) -> WitnessAnchor:
        """Countersign one chain tail and append it to the log."""
        index = len(self.log)
        prev_digest = self.log.head_digest()
        anchor = WitnessAnchor(
            index=index,
            object_id=object_id,
            seq_id=seq_id,
            checksum=checksum,
            prev_digest=prev_digest,
            signature=self._scheme.sign(
                _anchor_payload(index, object_id, seq_id, checksum, prev_digest)
            ),
        )
        self.log.append(anchor)
        return anchor

    def anchor_latest(self, store, object_id: str) -> WitnessAnchor:
        """Countersign one object's current chain tail.

        Raises:
            VerificationError: If the object has no records.
        """
        tail = store.latest(object_id)
        if tail is None:
            raise VerificationError(f"no records for {object_id!r} to anchor")
        return self.anchor_tail(object_id, tail.seq_id, tail.checksum)

    def tick(self, store) -> Tuple[WitnessAnchor, ...]:
        """Anchor every object's current chain tail (one witness round).

        Objects whose tail is already covered by their latest anchor are
        skipped, so an idle store produces no new entries.  Iteration is
        over sorted object ids — the log contents depend only on the
        sequence of store states, never on iteration order.
        """
        fresh: List[WitnessAnchor] = []
        for object_id in sorted(store.object_ids()):
            tail = store.latest(object_id)
            if tail is None:
                continue
            covered = self.log.latest_for(object_id)
            if (
                covered is not None
                and covered.seq_id == tail.seq_id
                and covered.checksum == tail.checksum
            ):
                continue
            fresh.append(self.anchor_tail(object_id, tail.seq_id, tail.checksum))
        return tuple(fresh)


def _contradictions(
    lookup: Callable[[str, int], object], log: AnchorLog, verifier: SignatureVerifier
) -> Iterator[Tuple[str, str, int, str]]:
    """Every way the records behind ``lookup(object_id, seq_id)``
    contradict the witness, as ``(code, object_id, seq_id, reason)`` in
    log order: ``ANCHOR`` for damage to the log itself, ``R7`` for an
    anchored record that is missing or carries a different checksum."""
    for position, reason in log.audit(verifier):
        anchor = log.entries[position]
        yield (
            "ANCHOR",
            anchor.object_id,
            anchor.seq_id,
            f"anchor log entry {position}: {reason}",
        )
    for anchor in log:
        record = lookup(anchor.object_id, anchor.seq_id)
        if record is None:
            yield (
                "R7",
                anchor.object_id,
                anchor.seq_id,
                f"anchored record #{anchor.seq_id} is missing "
                "(history truncated past the anchor)",
            )
        elif record.checksum != anchor.checksum:
            yield (
                "R7",
                anchor.object_id,
                anchor.seq_id,
                f"record #{anchor.seq_id} contradicts its witness anchor "
                "(history rewritten past the anchor)",
            )


def check_anchors(
    store, log: AnchorLog, verifier: SignatureVerifier
) -> Tuple[Tuple[str, int, str], ...]:
    """Every way the store contradicts the witness, as
    ``(object_id, seq_id, reason)`` in deterministic (log) order.

    Three classes of mismatch:

    - the log itself is damaged (broken link / bad witness signature) —
      an insider tampered with the *anchors*;
    - an anchored record is missing from the store — history truncated
      past an anchor;
    - an anchored record exists with a different checksum — history
      rewritten past an anchor (the full-coalition attack).

    Reads the store directly (no shipment needed) so the monitor can
    evaluate it every tick, even on the idle fast path.
    """
    return tuple(
        (object_id, seq_id, reason)
        for _, object_id, seq_id, reason in _contradictions(store.get, log, verifier)
    )


def verify_with_witness(
    shipment, keystore, log: AnchorLog, verifier: SignatureVerifier
) -> VerificationReport:
    """Shipment verification extended with the witness's anchors.

    On top of the normal R1–R8 verification, every anchor for one of the
    shipment's objects must match the shipped chain (the
    :func:`check_anchors` comparison): a missing or different anchored
    record is reported as ``R7``; anchors for objects outside the
    shipment are ignored.  Damage anywhere in the log is reported as
    ``ANCHOR`` whatever object the damaged entry names: a broken link is
    only seen at the entry *after* the damage, and a log that has been
    tampered with cannot vouch for any object.
    """
    report = shipment.verify(keystore)
    by_key = {record.key: record for record in shipment.records}
    shipped = {object_id for object_id, _ in by_key}
    failures = list(report.failures)
    for code, object_id, seq_id, reason in _contradictions(
        lambda object_id, seq_id: by_key.get((object_id, seq_id)), log, verifier
    ):
        if code == "ANCHOR" or object_id in shipped:
            failures.append(VerificationFailure(code, object_id, reason, seq_id))
    return VerificationReport(
        ok=not failures,
        failures=tuple(failures),
        records_checked=report.records_checked
        + sum(1 for anchor in log if anchor.object_id in shipped),
        objects_checked=report.objects_checked,
        target_id=report.target_id,
    )
