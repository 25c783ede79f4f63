"""HTTP requests to the service, with a 503 retry budget.

Speaks the JSON protocol of ``repro.service.http`` the way the bundled
``repro.service.client.ServiceClient`` does: one TCP connection per
request, and only a 503 retried, after the server's ``Retry-After``
(capped).  Unlike ``ServiceClient`` it can send extra headers (the span
header of a traced run).

Connections are not kept alive on purpose: the service's handler writes
a response's headers and body in two sends, so on a reused connection
Nagle's algorithm holds the body back until the client's delayed ACK,
about 40 ms per request on Linux.  A fresh connection starts in quick-ACK
mode and does not stall.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Optional, Tuple

#: 503 retries per request before it counts as failed.
RETRIES = 3
RETRY_CAP = 0.5


class TransportError(Exception):
    """The exchange broke off (connection reset, timeout, bad response)."""


class Client:
    """One client of the service: a closed loop sends through one of these."""

    def __init__(self, url: str, timeout: float = 120.0):
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self._address = (host, int(port))
        self._timeout = timeout

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        token: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, dict]:
        """``(status, payload)`` of one exchange, after 503 retries."""
        raw = None if body is None else json.dumps(body).encode("utf-8")
        sent = {"Connection": "close"}
        if raw is not None:
            sent["Content-Type"] = "application/json"
        if token is not None:
            sent["Authorization"] = f"Bearer {token}"
        if headers:
            sent.update(headers)
        retries = 0
        while True:
            status, payload, retry_after = self._once(method, path, raw, sent)
            if status != 503 or retries == RETRIES:
                return status, payload
            retries += 1
            time.sleep(min(retry_after, RETRY_CAP))

    def _once(self, method, path, raw, headers) -> Tuple[int, dict, float]:
        conn = http.client.HTTPConnection(*self._address, timeout=self._timeout)
        try:
            conn.request(method, path, body=raw, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"{method} {path}: {exc!r}") from exc
        finally:
            conn.close()
        try:
            payload = json.loads(data.decode("utf-8")) if data else {}
        except ValueError as exc:
            raise TransportError(f"{method} {path}: body is not JSON") from exc
        try:
            retry_after = float(response.getheader("Retry-After") or 0)
        except ValueError:
            retry_after = 0.0
        return response.status, payload, retry_after
