"""Incremental verification for repeat data recipients.

A recipient who obtains the same object repeatedly (nightly data drops,
subscription feeds) should not re-verify the entire history every time.
Because each checksum signs its predecessor, a verified prefix can be
summarised by a *checkpoint* — the last verified record's coordinates,
output digest, and checksum — and later deliveries verified from there:

    verifier = Verifier(keystore)
    first = verifier.verify(snapshot, records)          # full pass
    checkpoint = Checkpoint.from_records(object_id, records)
    ...
    report = verify_extension(verifier, checkpoint, new_snapshot, new_records)

Trust argument: the checkpoint's checksum is covered by the signature of
every subsequent record, so accepting the checkpoint is exactly as strong
as having re-verified the prefix — provided the checkpoint itself came
from a full verification the recipient performed earlier.

Limitation (documented): extensions must be *linear* — aggregation
records reach back into other chains, so a delivery introducing a new
aggregation triggers a full verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.verifier import VerificationReport, Verifier, _Failures
from repro.exceptions import VerificationError
from repro.provenance.records import ObjectState, Operation, ProvenanceRecord
from repro.provenance.snapshot import SubtreeSnapshot

__all__ = ["Checkpoint", "verify_extension"]


@dataclass(frozen=True)
class Checkpoint:
    """Summary of a fully verified chain prefix."""

    object_id: str
    seq_id: int
    output_digest: bytes
    checksum: bytes
    hash_algorithm: str

    # The checkpoint seeds the verifier's chain walk in place of the last
    # verified record, so it answers the attributes the walk reads from
    # that record.  It summarises state, not authorship: with no author
    # the walk skips the outgoing-custodian match for a TRANSFER record
    # right after it, but still checks the countersignature, which binds
    # the checkpointed checksum — a hand-off at the seam cannot be
    # re-linked, only re-attributed.
    participant_id = None

    @property
    def output(self) -> ObjectState:
        """The verified terminal state."""
        return ObjectState(self.object_id, self.output_digest)

    @classmethod
    def from_records(
        cls, object_id: str, records: Sequence[ProvenanceRecord]
    ) -> "Checkpoint":
        """Checkpoint at the most recent record for ``object_id``.

        The caller must have *verified* ``records`` first; this only
        extracts the summary.

        Raises:
            VerificationError: If there is no record for the object.
        """
        chain = sorted(
            (r for r in records if r.object_id == object_id),
            key=lambda r: r.seq_id,
        )
        if not chain:
            raise VerificationError(f"no records for {object_id!r} to checkpoint")
        terminal = chain[-1]
        return cls(
            object_id=object_id,
            seq_id=terminal.seq_id,
            output_digest=terminal.output.digest,
            checksum=terminal.checksum,
            hash_algorithm=terminal.hash_algorithm,
        )

    def to_json(self) -> str:
        """Serialize (recipients persist checkpoints between deliveries)."""
        return json.dumps(
            {
                "object_id": self.object_id,
                "seq_id": self.seq_id,
                "output_digest": self.output_digest.hex(),
                "checksum": self.checksum.hex(),
                "hash_algorithm": self.hash_algorithm,
            }
        )

    @classmethod
    def from_json(cls, blob: str) -> "Checkpoint":
        """Inverse of :meth:`to_json`.

        Raises:
            VerificationError: On malformed input.
        """
        try:
            data: Dict[str, object] = json.loads(blob)
            return cls(
                object_id=str(data["object_id"]),
                seq_id=int(data["seq_id"]),
                output_digest=bytes.fromhex(data["output_digest"]),
                checksum=bytes.fromhex(data["checksum"]),
                hash_algorithm=str(data["hash_algorithm"]),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise VerificationError(f"malformed checkpoint: {exc}") from exc


def verify_extension(
    verifier: Verifier,
    checkpoint: Checkpoint,
    snapshot: SubtreeSnapshot,
    new_records: Sequence[ProvenanceRecord],
) -> VerificationReport:
    """Verify a delivery given a previously verified checkpoint.

    ``new_records`` are the records with ``seq_id > checkpoint.seq_id``
    for the checkpointed object; records at or below the checkpoint are
    ignored (senders may re-ship the full chain).  The walk is the full
    verifier's own :meth:`Verifier._check_chain` seeded with the
    checkpoint, so every record past it gets exactly the checks a full
    verification would give it.  A delivery containing an aggregation
    record is rejected with a failure instructing a full verification
    (aggregations reach into other chains, which the checkpoint does not
    summarise).
    """
    object_id = checkpoint.object_id
    relevant = sorted(
        (
            r
            for r in new_records
            if r.object_id == object_id and r.seq_id > checkpoint.seq_id
        ),
        key=lambda r: r.seq_id,
    )
    failures = _Failures()
    checked = 0
    if any(r.operation is Operation.AGGREGATE for r in relevant):
        failures.add(
            "STRUCT",
            object_id,
            "extension contains an aggregation record; incremental "
            "verification only covers linear extensions — run a full "
            "verification",
        )
    else:
        checked = verifier._check_chain(
            relevant, {object_id: relevant}, failures, seed=checkpoint
        )
        verifier._check_data_matches_terminal(
            snapshot, object_id, {object_id: relevant or [checkpoint]}, failures
        )
    return VerificationReport(
        ok=not failures.items,
        failures=tuple(failures.items),
        records_checked=checked,
        objects_checked=1,
        target_id=object_id,
    )
