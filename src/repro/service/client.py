"""A stdlib HTTP client for the provenance service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.http` with bounded, ``Retry-After``-honouring
retries: a 503 (transient store trouble at the service) is retried up to
``retries`` times, sleeping the server-suggested delay (capped), which is
exactly the client half of the chaos contract — transient faults are
invisible to callers as long as they are actually transient.

Only 503 is retried.  4xx responses are caller errors and a 500 is a
(simulated) crash whose repair is recovery at restart, not a retry loop.

Observability crosses the wire in both directions.  When this process
has tracing on and a span open, every request carries a ``traceparent``
header (so the server's ``http.request`` span joins the caller's trace)
and the active correlation id as ``X-Correlation-Id`` (so client- and
server-side events share one id).  With observability off neither header
is computed or sent — request bytes are unchanged, which the
byte-identity equivalence suite depends on.  Failures keep the join
handle too: a :class:`ServiceHTTPError` carries the server-echoed
``correlation_id`` so the failing request can be grepped out of the
server's event log.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.exceptions import ServiceError
from repro.obs import OBS

__all__ = ["ServiceHTTPError", "ServiceResponse", "ServiceClient"]


class ServiceHTTPError(ServiceError):
    """A non-2xx response (after any retries were exhausted)."""

    def __init__(
        self,
        status: int,
        payload: Dict[str, object],
        method: str,
        path: str,
        correlation_id: Optional[str] = None,
    ):
        self.status = status
        self.payload = payload
        #: The server's ``X-Correlation-Id`` echo, if it sent one — joins
        #: this failure to the server-side events of the same request.
        self.correlation_id = correlation_id
        corr = f" [corr {correlation_id}]" if correlation_id else ""
        super().__init__(
            f"{method} {path} -> {status}: {payload.get('error', payload)}{corr}"
        )


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP exchange: status, raw body bytes, selected headers."""

    status: int
    raw: bytes
    headers: Dict[str, str] = field(default_factory=dict)
    #: 503 retries performed before this response came back.
    retries: int = 0

    @property
    def json(self) -> Dict[str, object]:
        return json.loads(self.raw.decode("utf-8"))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ServiceClient:
    """Typed access to one service, as one API key.

    Args:
        base_url: ``http://host:port`` of a running service.
        token: Bearer token for every request (None = unauthenticated —
            only ``/healthz`` will answer).
        retries: 503 retry budget per request.
        retry_cap: Upper bound on one ``Retry-After`` sleep, seconds.
        timeout: Socket timeout per request, seconds.
    """

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        retries: int = 3,
        retry_cap: float = 0.5,
        timeout: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.retries = max(0, int(retries))
        self.retry_cap = retry_cap
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        raise_for_status: bool = True,
    ) -> ServiceResponse:
        """One request with the 503 retry loop; returns the raw exchange."""
        # The client-side half of the distributed trace: _once() sees this
        # span as the innermost open one and encodes its context into the
        # traceparent header, so the server's http.request span becomes
        # this span's (remote) child.
        with obs.phase("client.request", method=method, path=path) as span:
            attempts = 0
            while True:
                response = self._once(method, path, body)
                if response.status == 503 and attempts < self.retries:
                    attempts += 1
                    time.sleep(self._retry_delay(response, attempts))
                    continue
                response = ServiceResponse(
                    status=response.status, raw=response.raw,
                    headers=response.headers, retries=attempts,
                )
                if raise_for_status and not response.ok:
                    try:
                        payload = response.json
                    except ValueError:  # non-JSON error body (proxy, raw text)
                        payload = {"error": response.raw.decode("utf-8", "replace")}
                    raise ServiceHTTPError(
                        response.status, payload, method, path,
                        correlation_id=response.headers.get("X-Correlation-Id"),
                    )
                if span is not None:
                    span.attrs["status"] = response.status
                return response

    def _once(self, method: str, path: str, body) -> ServiceResponse:
        data = None
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if OBS.tracing or OBS.events is not None:
            # Propagate the trace context / correlation id only when this
            # process is actually observing: with obs off (the default)
            # no header is computed, keeping the disabled-mode cost at
            # two slot reads and the request bytes identical.
            from repro.obs.events import current_correlation
            from repro.obs.plane import encode_traceparent

            if OBS.tracing:
                traceparent = encode_traceparent(OBS.tracer.context())
                if traceparent is not None:
                    headers["traceparent"] = traceparent
            corr = current_correlation()
            if corr is not None:
                headers["X-Correlation-Id"] = corr
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return ServiceResponse(
                    status=reply.status,
                    raw=reply.read(),
                    headers={k: v for k, v in reply.headers.items()},
                )
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            return ServiceResponse(
                status=exc.code,
                raw=raw,
                headers={k: v for k, v in exc.headers.items()},
            )

    def _retry_delay(self, response: ServiceResponse, attempt: int) -> float:
        header = response.headers.get("Retry-After")
        try:
            suggested = float(header) if header is not None else 0.0
        except ValueError:
            suggested = 0.0
        # Server suggestion first, a tiny linear backoff as the floor.
        return min(max(suggested, 0.01 * attempt), self.retry_cap)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def record(
        self,
        op: str,
        object_id: str,
        value=None,
        parent: Optional[str] = None,
        inputs: Optional[Sequence[str]] = None,
        note: str = "",
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"op": op, "object_id": object_id}
        if value is not None:
            body["value"] = value
        if parent is not None:
            body["parent"] = parent
        if inputs is not None:
            body["inputs"] = list(inputs)
        if note:
            body["note"] = note
        return self.request("POST", "/v1/record", body).json

    def insert(self, object_id: str, value=None, **kw) -> Dict[str, object]:
        return self.record("insert", object_id, value=value, **kw)

    def update(self, object_id: str, value, **kw) -> Dict[str, object]:
        return self.record("update", object_id, value=value, **kw)

    def delete(self, object_id: str, **kw) -> Dict[str, object]:
        return self.record("delete", object_id, **kw)

    def aggregate(self, inputs: Sequence[str], object_id: str, **kw) -> Dict[str, object]:
        return self.record("aggregate", object_id, inputs=inputs, **kw)

    def batch(self, ops: Sequence[Dict[str, object]], note: str = "") -> Dict[str, object]:
        return self.request("POST", "/v1/batch", {"ops": list(ops), "note": note}).json

    def verify(self, object_id: str, workers: Optional[int] = None) -> Dict[str, object]:
        return self.verify_response(object_id, workers=workers).json

    def verify_response(
        self, object_id: str, workers: Optional[int] = None
    ) -> ServiceResponse:
        """The raw verify exchange (byte-identity tests compare ``.raw``)."""
        body: Dict[str, object] = {"object_id": object_id}
        if workers is not None:
            body["workers"] = workers
        return self.request("POST", "/v1/verify", body)

    def objects(self) -> Dict[str, object]:
        return self.request("GET", "/v1/objects").json

    def provenance(self, object_id: str) -> Dict[str, object]:
        return self.request("GET", f"/v1/provenance/{object_id}").json

    def lineage(self, object_id: str) -> Dict[str, object]:
        return self.request("GET", f"/v1/lineage/{object_id}").json

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------

    def healthz(self, quick: bool = False) -> ServiceResponse:
        path = "/healthz?quick=1" if quick else "/healthz"
        return self.request("GET", path, raise_for_status=False)

    # ------------------------------------------------------------------
    # observability plane (admin)
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the server's registry."""
        return self.request("GET", "/v1/metrics").raw.decode("utf-8")

    def metrics_json(self) -> Dict[str, object]:
        """The server's metrics registry as a JSON snapshot."""
        return self.request("GET", "/v1/metrics?format=json").json

    def profile(self) -> Dict[str, object]:
        """The server's cost-model snapshot (phase-attributed timings)."""
        return self.request("GET", "/v1/profile").json

    def alerts(
        self, since: int = -1, wait: float = 0.0
    ) -> Dict[str, object]:
        """One page of the alert stream after cursor ``since``.

        ``wait`` long-polls: the server holds the request up to that many
        seconds for a fresh event before answering empty.  The response's
        ``cursor`` is the next ``since``.
        """
        path = f"/v1/alerts?since={int(since)}"
        if wait:
            path += f"&wait={wait:g}"
        return self.request("GET", path).json

    def issue_key(
        self,
        tenant: str,
        ttl: Optional[float] = None,
        scopes: Sequence[str] = (),
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"tenant": tenant, "scopes": list(scopes)}
        if ttl is not None:
            body["ttl"] = ttl
        return self.request("POST", "/v1/admin/keys", body).json

    def revoke_key(self, key_id: str) -> Dict[str, object]:
        return self.request("DELETE", f"/v1/admin/keys/{key_id}").json

    def recover(self) -> Dict[str, object]:
        return self.request("POST", "/v1/admin/recover", {}).json

    def with_token(self, token: Optional[str]) -> "ServiceClient":
        """A sibling client for the same service as a different key."""
        return ServiceClient(
            self.base_url, token=token, retries=self.retries,
            retry_cap=self.retry_cap, timeout=self.timeout,
        )

    def __repr__(self) -> str:
        return f"ServiceClient({self.base_url!r}, authed={self.token is not None})"
