"""Per-tenant store layout: one store per tenant, confined to the root."""

import os

import pytest

from repro.exceptions import ProvenanceError
from repro.provenance.records import Operation
from repro.provenance.registry import open_tenant_store, tenant_dir
from repro.provenance.store import (
    Checkpoint,
    InMemoryProvenanceStore,
    SQLiteProvenanceStore,
)

from tests.provenance.test_store import record_for


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    root = None if request.param == "memory" else str(tmp_path)
    s = open_tenant_store(root, "t1")
    yield s
    if isinstance(s, SQLiteProvenanceStore):
        s.close()


class TestTenantStore:
    def test_purge_and_space(self, store):
        store.append(record_for("A", 0, operation=Operation.INSERT))
        assert store.space_bytes() > 0
        assert store.purge_object("A") == 1
        assert store.object_ids() == ()

    def test_watermark_surface(self, store, tmp_path):
        objects = ["w0", "w1", "w2", "w3"]
        written = {}
        for i, oid in reversed(list(enumerate(objects))):
            store.append(record_for(oid, 0, operation=Operation.INSERT))
            written[oid] = Checkpoint(
                object_id=oid, index=3 + i, seq_id=7 + i,
                participant_id=f"author-{i}", output_digest=bytes([i]) * 32,
                checksum=bytes([0xC0 + i]) * 64, hash_algorithm="sha256",
            )
            store.set_watermark(written[oid])
        if isinstance(store, SQLiteProvenanceStore):
            store.close()
            store = open_tenant_store(str(tmp_path), "t1")
        try:
            assert store.watermarks() == tuple(written[oid] for oid in objects)
            assert store.get_watermark("w1") == written["w1"]
            assert store.clear_watermark("w0")
            assert store.get_watermark("w0") is None
        finally:
            if isinstance(store, SQLiteProvenanceStore):
                store.close()


def test_old_watermark_layout_refused(tmp_path):
    """A store written before watermarks carried the full checkpoint is
    refused, not migrated: dropping its rows would discard sticky
    regression evidence."""
    import sqlite3

    path = str(tmp_path / "provenance.sqlite")
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE watermarks (object_id TEXT PRIMARY KEY,"
        " idx INTEGER NOT NULL, seq_id INTEGER NOT NULL,"
        " checksum BLOB NOT NULL)"
    )
    conn.execute("INSERT INTO watermarks VALUES ('A', 1, 0, x'cd')")
    conn.commit()
    conn.close()
    with pytest.raises(ProvenanceError, match="watermarks table"):
        SQLiteProvenanceStore(path)
    conn = sqlite3.connect(path)
    assert conn.execute("SELECT COUNT(*) FROM watermarks").fetchone() == (1,)
    conn.close()


class TestTenantLayout:
    def test_paths_are_percent_escaped(self, tmp_path):
        path = tenant_dir(str(tmp_path), "../evil/../../t")
        assert os.path.realpath(path).startswith(str(tmp_path))
        assert "/evil/" not in path

    @pytest.mark.parametrize("hostile", [".", "..", "...", "./..", "a/../.."])
    def test_dot_tenant_ids_cannot_escape_the_root(self, tmp_path, hostile):
        """Regression: '.' used to be in the safe set, so tenant '..'
        resolved its files into the PARENT of the store root."""
        root = tmp_path / "store"
        root.mkdir()
        directory = os.path.realpath(tenant_dir(str(root), hostile))
        real_root = os.path.realpath(str(root))
        assert directory.startswith(real_root + os.sep)
        assert directory != real_root  # never dumps files into the root

    def test_dot_tenant_ids_get_distinct_directories(self, tmp_path):
        dirs = {tenant_dir(str(tmp_path), t) for t in (".", "..", "...", "%2e")}
        assert len(dirs) == 4

    def test_open_tenant_store_dot_tenant_stays_inside_root(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        store = open_tenant_store(str(root), "..")
        try:
            store.append(record_for("A", 0, operation=Operation.INSERT))
        finally:
            store.close()
        # Nothing was created outside (or directly inside) the root.
        assert sorted(os.listdir(tmp_path)) == ["store"]
        assert os.listdir(root) == ["%2e%2e"]

    def test_open_tenant_store_memory_vs_sqlite(self, tmp_path):
        assert isinstance(open_tenant_store(None, "t1"), InMemoryProvenanceStore)

        on_disk = open_tenant_store(str(tmp_path), "t1")
        try:
            on_disk.append(record_for("A", 0, operation=Operation.INSERT))
        finally:
            on_disk.close()
        assert os.listdir(tmp_path / "t1") == ["provenance.sqlite"]

        reopened = open_tenant_store(str(tmp_path), "t1")
        try:
            assert reopened.latest("A").seq_id == 0
        finally:
            reopened.close()

    def test_distinct_tenants_distinct_directories(self, tmp_path):
        a = open_tenant_store(str(tmp_path), "alice")
        b = open_tenant_store(str(tmp_path), "bob")
        try:
            a.append(record_for("A", 0, operation=Operation.INSERT))
            assert b.latest("A") is None
        finally:
            a.close()
            b.close()

    def test_refuses_a_tenant_directory_in_the_sharded_layout(self, tmp_path):
        """A root written when tenants were split over shard-K.sqlite
        files must not open as an empty store that hides those chains."""
        legacy = tmp_path / "t1"
        legacy.mkdir()
        for name in ("shard-0.sqlite", "shard-3.sqlite"):
            SQLiteProvenanceStore(str(legacy / name)).close()
        with pytest.raises(ProvenanceError) as excinfo:
            open_tenant_store(str(tmp_path), "t1")
        message = str(excinfo.value)
        assert "shard-0.sqlite" in message and "shard-3.sqlite" in message
        assert "predates single-store tenants" in message
        assert sorted(os.listdir(legacy)) == ["shard-0.sqlite", "shard-3.sqlite"]
