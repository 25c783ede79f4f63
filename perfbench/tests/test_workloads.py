import random
from itertools import islice

import pytest

from perfbench.workloads import (
    CONNECTIONS,
    PROBE,
    WORKLOADS,
    _blocks,
    Ledger,
    Op,
    check,
    readback,
    verify_sample,
)


def _ops(name, seed, conn, n=600):
    return list(islice(WORKLOADS[name].ops(seed, conn), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_sequence(name):
    for conn in range(CONNECTIONS):
        assert _ops(name, 7, conn) == _ops(name, 7, conn)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_sequence(name):
    assert _ops(name, 7, 0) != _ops(name, 8, 0)


def test_every_block_holds_the_pattern():
    pattern = ["verify"] * 18 + ["update", "read"]
    kinds = list(islice(_blocks(random.Random(4), pattern), 10 * len(pattern)))
    for start in range(0, len(kinds), len(pattern)):
        assert sorted(kinds[start:start + len(pattern)]) == sorted(pattern)
    assert kinds != sorted(kinds)


def test_connections_own_disjoint_objects():
    for name in WORKLOADS:
        touched = []
        for conn in range(CONNECTIONS):
            ids = set()
            for op in _ops(name, 3, conn):
                ids.update(object_id for object_id, _ in op.writes)
                if op.body and "object_id" in op.body:
                    ids.add(op.body["object_id"])
            touched.append(ids)
        assert not touched[0] & touched[1], name


def test_streams_hold_no_probes():
    for name in WORKLOADS:
        for conn in range(CONNECTIONS):
            assert PROBE not in _ops(name, 1, conn)


def test_expected_sequence_numbers_follow_the_chain():
    chains = {}
    for op in _ops("ingest", 5, 0, 2000):
        for object_id, seq in op.writes:
            assert seq == chains.get((op.tenant, object_id), 0)
            chains[(op.tenant, object_id)] = seq + 1
        if op.kind == "verify":
            assert op.chain == chains[(op.tenant, op.body["object_id"])]


def test_check_and_readback():
    op = Op("update", "POST", "/v1/record", tenant="t", writes=(("a", 1),))
    good = {"records": [{"object_id": "a", "seq_id": 1, "checksum": "c1"}]}
    assert check(op, 200, good) is None
    assert check(op, 200, {"records": [{"object_id": "a", "seq_id": 2}]})
    assert check(op, 500, {"error": "boom"})
    ledger = Ledger()
    ledger.acknowledge(Op("insert", "POST", "/v1/record", tenant="t", writes=(("a", 0),)),
                       {"records": [{"object_id": "a", "seq_id": 0, "checksum": "c0"}]})
    ledger.acknowledge(op, good)
    (read,) = readback(ledger)
    assert read.checksums == ("c0", "c1")
    payload = {"records": [{"seq_id": 0, "checksum": "c0"}, {"seq_id": 1, "checksum": "c1"}]}
    assert check(read, 200, payload) is None
    payload["records"][1]["checksum"] = "forged"
    assert check(read, 200, payload)
    (verify,) = verify_sample(ledger, 1, 10)
    assert verify.chain == 2
    assert check(verify, 200, {"ok": True, "records_checked": 2}) is None
    assert check(verify, 200, {"ok": False, "records_checked": 2})
