"""HTTP endpoint smoke tests: routing, status mapping, observability."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro import obs
from repro.service import ServiceClient
from repro.service.http import MAX_BODY_BYTES


class TestRouting:
    def test_full_crud_cycle(self, tenant_client):
        c = tenant_client("acme")
        c.insert("a", 1)
        c.insert("b", 2, parent=None)
        c.update("a", 3)
        c.aggregate(["a", "b"], "agg")
        assert sorted(c.objects()["objects"]) == ["a", "agg", "b"]
        assert c.verify("agg")["ok"] is True
        assert c.lineage("agg")["aggregations"] == 1
        chain = c.provenance("a")["records"]
        assert [r["seq_id"] for r in chain] == [0, 1]
        c.delete("b")

    def test_batch_endpoint(self, tenant_client):
        c = tenant_client("acme")
        out = c.batch([
            {"op": "insert", "object_id": "x", "value": 1},
            {"op": "insert", "object_id": "y", "value": 2},
        ], note="load")
        assert out["ops"] == 2
        assert {r["object_id"] for r in out["records"]} == {"x", "y"}

    def test_malformed_batch_ops_is_400_not_a_dropped_connection(
        self, tenant_client
    ):
        """Regression: non-dict ops used to raise AttributeError past the
        handled set, killing the connection with no HTTP response."""
        c = tenant_client("acme")
        for ops in (["nope"], [42], [None], "nope", {"op": "insert"}, 7):
            response = c.request(
                "POST", "/v1/batch", {"ops": ops}, raise_for_status=False
            )
            assert response.status == 400
            assert "error" in response.json

    def test_unknown_object_is_404(self, tenant_client):
        c = tenant_client("acme")
        for call in (
            lambda: c.verify("ghost"),
            lambda: c.provenance("ghost"),
            lambda: c.lineage("ghost"),
        ):
            response = None
            try:
                call()
            except Exception as exc:  # noqa: BLE001
                response = exc
            assert getattr(response, "status", None) == 404

    def test_unknown_route_is_400(self, tenant_client):
        c = tenant_client("acme")
        response = c.request("GET", "/v1/nope", raise_for_status=False)
        assert response.status == 400

    def test_malformed_json_body_is_400(self, server, tenant_client):
        c = tenant_client("acme")
        import urllib.request

        request = urllib.request.Request(
            server.base_url + "/v1/record",
            data=b"{not json",
            headers={
                "Authorization": f"Bearer {c.token}",
                "Content-Type": "application/json",
            },
            method="POST",
        )
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_missing_body_is_400(self, tenant_client):
        c = tenant_client("acme")
        response = c.request("POST", "/v1/record", raise_for_status=False)
        assert response.status == 400

    def test_conflicting_op_is_a_client_error(self, tenant_client):
        c = tenant_client("acme")
        c.insert("doc", 1)
        response = c.request(
            "POST", "/v1/record",
            {"op": "insert", "object_id": "doc", "value": 2},
            raise_for_status=False,
        )
        assert response.status == 400

    def test_responses_are_canonical_json(self, tenant_client):
        c = tenant_client("acme")
        c.insert("doc", 1)
        raw = c.verify_response("doc").raw
        parsed = json.loads(raw)
        recoded = json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ).encode()
        assert raw == recoded


class TestRequestBodyBounds:
    """Hostile ``Content-Length`` values are refused before any body read."""

    @staticmethod
    def raw_post(server, content_length: str) -> bytes:
        """Send headers only; read the reply until the server closes."""
        host, port = server.server_address[:2]
        head = (
            "POST /v1/admin/keys HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Authorization: Bearer {server.service.admin_token}\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(head.encode("ascii"))
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    return reply
                reply += chunk

    @pytest.mark.parametrize("content_length, status", [
        ("-1", 400),
        ("abc", 400),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_bad_length_answered_promptly_without_reading(
        self, server, admin, content_length, status
    ):
        began = time.monotonic()
        reply = self.raw_post(server, content_length)
        assert time.monotonic() - began < 2.0
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == str(status).encode()
        assert b"Connection: close" in rest
        # The server is still answering.
        assert admin.issue_key("acme")["tenant"] == "acme"

    def test_cap_sized_body_is_read(self, admin):
        padded = {"tenant": "acme", "note": "x" * (MAX_BODY_BYTES // 2)}
        response = admin.request("POST", "/v1/admin/keys", padded)
        assert response.status == 200


class TestHealthz:
    def test_clean_service_is_200(self, tenant_client, server, admin):
        tenant_client("acme").insert("doc", 1)
        anon = ServiceClient(server.base_url)
        response = anon.healthz()
        assert response.status == 200
        # Unauthenticated: the aggregate verdict and nothing else — the
        # tenant list is itself sensitive in this threat model.
        assert response.json == {"health": "ok"}
        detail = admin.healthz()
        assert detail.json["tenants"]["acme"]["health"] == "ok"

    def test_tenant_key_sees_only_its_own_breakdown(self, tenant_client, admin):
        tenant_client("acme").insert("doc", 1)
        tenant_client("other").insert("doc", 1)
        payload = tenant_client("acme").healthz().json
        assert set(payload["tenants"]) == {"acme"}
        assert set(admin.healthz().json["tenants"]) == {"acme", "other"}

    def test_quick_mode_ticks_incrementally(self, tenant_client, server):
        c = tenant_client("acme")
        c.insert("doc", 1)
        anon = ServiceClient(server.base_url)
        assert anon.healthz().status == 200       # quick pass (cold first)
        assert anon.healthz(quick=True).status == 200

    def test_tampered_tenant_turns_healthz_503(self, tenant_client, server):
        import dataclasses

        c = tenant_client("acme")
        c.insert("doc", 1)
        world = server.service.world("acme")
        victim = world.store.latest("doc")
        world.store._shard_for("doc")._chains["doc"][-1] = dataclasses.replace(
            victim, checksum=b"\x00" * len(victim.checksum)
        )
        response = ServiceClient(server.base_url).healthz()
        assert response.status == 503
        assert response.json == {"health": "tampered"}
        # The authenticated owner sees the diagnosis.
        assert c.healthz().json["tenants"]["acme"]["health"] == "tampered"


class TestObservability:
    def test_correlation_id_flows_request_to_store_batch(self, server_factory):
        """One id threads HTTP request -> collector flush -> store batch."""
        from repro.obs.events import RingBufferSink

        obs.enable(reset=True)
        log = obs.enable_events(ring=0)
        ring = RingBufferSink(4096)
        log.add_sink(ring)
        try:
            server = server_factory()
            admin = ServiceClient(server.base_url, token=server.service.admin_token)
            token = admin.issue_key("acme")["token"]
            client = ServiceClient(server.base_url, token=token)
            response = client.request(
                "POST", "/v1/record",
                {"op": "insert", "object_id": "doc", "value": 1},
            )
            corr = response.headers.get("X-Correlation-Id")
            assert corr
            kinds = {
                e.kind for e in ring.events() if e.corr == corr
            }
            assert "http.request" in kinds
            assert "collector.flush" in kinds
            assert "store.batch" in kinds
        finally:
            obs.disable_events()
            obs.disable()

    def test_per_endpoint_metrics(self, server_factory):
        obs.enable(reset=True)
        try:
            server = server_factory()
            admin = ServiceClient(server.base_url, token=server.service.admin_token)
            token = admin.issue_key("acme")["token"]
            client = ServiceClient(server.base_url, token=token)
            client.insert("doc", 1)
            client.verify("doc")
            snap = obs.snapshot()
            counters = snap["counters"]
            assert counters[
                "service.http.requests{endpoint=POST record,status=200}"
            ] == 1
            assert counters[
                "service.http.requests{endpoint=POST verify,status=200}"
            ] == 1
            assert any(
                name.startswith("service.http.seconds")
                for name in snap["histograms"]
            )
        finally:
            obs.disable()
