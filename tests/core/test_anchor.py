"""Anchoring tests: the tail-truncation boundary, closed.

Without anchors, colluders owning a chain's tail can truncate history
undetectably (pinned in ``test_collusion.py``).  With one witness anchor
past the victim record, the same attack must be detected by
:func:`repro.trust.witness.verify_with_witness`.
"""

import dataclasses

import pytest

from repro.attacks import collusion
from repro.attacks.scenarios import build_world
from repro.exceptions import VerificationError
from repro.trust.witness import AnchorLog, Witness, WitnessAnchor, verify_with_witness


@pytest.fixture(scope="module")
def anchored_world():
    world = build_world()
    witness = Witness.generate(seed=0xA11C)
    # The recipient (e.g. a regulator) had the terminal state anchored
    # while the history was still honest.
    witness.anchor_latest(world.db.provenance_store, "x")
    return world, witness


def verify(world, witness, shipment=None, log=None):
    return verify_with_witness(
        shipment if shipment is not None else world.shipment,
        world.db.keystore(),
        log if log is not None else witness.log,
        witness.verifier(),
    )


def anchors_for(witness, object_id):
    return [a for a in witness.log if a.object_id == object_id]


class TestWitnessAnchors:
    def test_receipts_accumulate(self, anchored_world):
        _, witness = anchored_world
        anchors = anchors_for(witness, "x")
        assert len(anchors) >= 1
        assert anchors[0].seq_id == 4  # the honest terminal record
        assert anchors[0].index == 0

    def test_receipt_roundtrip(self, anchored_world):
        _, witness = anchored_world
        anchor = anchors_for(witness, "x")[0]
        assert WitnessAnchor.from_dict(anchor.to_dict()) == anchor

    def test_malformed_receipt_rejected(self):
        with pytest.raises(VerificationError):
            WitnessAnchor.from_dict({"object_id": "x"})

    def test_anchor_unknown_object_rejected(self, anchored_world):
        world, witness = anchored_world
        with pytest.raises(VerificationError):
            witness.anchor_latest(world.db.provenance_store, "ghost")


class TestAnchoredVerification:
    def test_honest_shipment_passes(self, anchored_world):
        world, witness = anchored_world
        report = verify(world, witness)
        assert report.ok, report.summary()

    def test_tail_rewrite_now_detected(self, anchored_world):
        """The documented boundary case, closed by one anchor."""
        world, witness = anchored_world
        forged = collusion.tail_rewrite(world.shipment, "x", 3, world.eve)
        # Plain verification still cannot see it...
        assert forged.verify(world.db.keystore()).ok
        # ...but the anchored terminal record is gone from the chain.
        report = verify(world, witness, shipment=forged)
        assert not report.ok
        assert "R7" in report.requirement_codes()

    def test_rewrite_at_anchored_seq_detected(self, anchored_world):
        """Forging a *different* record at the anchored seq is caught by
        the checksum mismatch."""
        world, witness = anchored_world
        anchor = anchors_for(witness, "x")[0]
        victim = next(
            r for r in world.shipment.records if r.key == ("x", anchor.seq_id)
        )
        forged_record = victim.with_checksum(b"\x01" * len(victim.checksum))
        records = tuple(
            forged_record if r.key == victim.key else r
            for r in world.shipment.records
        )
        forged = dataclasses.replace(world.shipment, records=records)
        report = verify(world, witness, shipment=forged)
        assert not report.ok
        assert "R7" in report.requirement_codes()

    def test_fabricated_receipt_rejected(self, anchored_world):
        """An attacker cannot edit anchors: the witness signature fails."""
        world, witness = anchored_world
        genuine = anchors_for(witness, "x")[0]
        log = AnchorLog(
            [
                dataclasses.replace(a, seq_id=99) if a == genuine else a
                for a in witness.log
            ]
        )
        report = verify(world, witness, log=log)
        assert not report.ok
        assert any(f.requirement == "ANCHOR" for f in report.failures)

    def test_dropped_log_entry_detected(self, anchored_world, tmp_path):
        """The log is hash-linked: an insider deleting an anchor from the
        saved file breaks the log, which is reported as ``ANCHOR``."""
        world, witness = anchored_world
        log = AnchorLog(list(witness.log))
        same_witness = Witness.generate(seed=0xA11C, log=log)
        same_witness.anchor_latest(world.db.provenance_store, "x")
        path = tmp_path / "witness-anchors.jsonl"
        log.save(str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[1:]))
        report = verify(world, witness, log=AnchorLog.load(str(path)))
        assert not report.ok
        assert "ANCHOR" in report.requirement_codes()

    def test_dropped_anchor_detected_when_next_entry_is_another_object(
        self, anchored_world, tmp_path
    ):
        """The broken link shows at the entry after the dropped one; it
        is reported even when that entry anchors an unshipped object."""
        world, _ = anchored_world
        witness = Witness.generate(seed=0xA11C)
        witness.anchor_latest(world.db.provenance_store, "x")
        witness.anchor_latest(world.db.provenance_store, "y")
        path = tmp_path / "witness-anchors.jsonl"
        witness.log.save(str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[1:]))
        report = verify(world, witness, log=AnchorLog.load(str(path)))
        assert not report.ok
        assert "ANCHOR" in report.requirement_codes()

    def test_receipts_for_other_objects_ignored(self, anchored_world):
        world, witness = anchored_world
        witness.anchor_latest(world.db.provenance_store, "y")
        # y is not in x's shipment: its anchor has no shipped record, and
        # must not count as truncated history.
        report = verify(world, witness)
        assert report.ok, report.summary()

    def test_underlying_tampering_still_reported(self, anchored_world):
        from repro.attacks import tampering

        world, witness = anchored_world
        forged = tampering.remove_record(world.shipment, "x", 2)
        report = verify(world, witness, shipment=forged)
        assert not report.ok
        assert "R2" in report.requirement_codes()
