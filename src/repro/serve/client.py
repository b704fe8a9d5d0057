"""Thin stdlib client for the capacity-planning service.

Examples and scripts talk to a running ``repro serve`` through this
module; when no server is reachable they fall back to the library path
(importing :class:`~repro.harness.runner.Session` directly), so every
example works standalone *and* against a shared warm service.

The client deliberately knows nothing about tiers or breakers — it
ships a :class:`~repro.serve.queries.PlacementQuery` as JSON and hands
back the typed :class:`~repro.serve.queries.QueryResponse`.  Transport
failures raise :class:`ServeUnavailable` (connection refused, timeout,
non-JSON body); *typed degraded answers are not errors* — a response
with ``status="timeout"`` is the service working as designed.

Each :class:`ServeClient` keeps one persistent HTTP/1.1 connection, so
an exact-tier answer costs one round trip rather than a TCP handshake
and a fresh server thread.  A client is not thread-safe: give each
thread its own.
"""

from __future__ import annotations

import http.client
import json
import os
from typing import Optional, Tuple
from urllib.parse import urlsplit

from repro.serve.queries import PlacementQuery, QueryResponse

#: Environment variable naming the server examples should query.
SERVE_URL_ENV = "REPRO_SERVE_URL"

#: Default socket timeout — generous slack over the server-side query
#: deadline so the typed timeout response beats the transport timeout.
DEFAULT_TIMEOUT_S = 120.0


class ServeUnavailable(RuntimeError):
    """The service could not be reached or spoke garbage."""


def server_url(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the server URL: explicit flag beats the environment."""
    url = explicit or os.environ.get(SERVE_URL_ENV) or ""
    url = url.strip().rstrip("/")
    return url or None


class ServeClient:
    """HTTP client bound to one server base URL (``http://host:port``).

    Requests share one kept-alive connection, opened on first use and
    reopened after the server closes it.  One client per thread; use it
    as a context manager, or call :meth:`close`, to release the
    connection.
    """

    def __init__(self, base_url: str,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"not an http://host[:port] URL: {base_url!r}")
        self._prefix = parts.path
        # Connects lazily on the first request, and again on the next
        # one after close() or a ``Connection: close`` reply.
        self._conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=timeout_s)

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _exchange(self, method: str, path: str, data: Optional[bytes],
                  headers: dict) -> Tuple[int, bytes]:
        self._conn.request(method, self._prefix + path, body=data,
                           headers=headers)
        reply = self._conn.getresponse()
        return reply.status, reply.read()

    def _request(self, path: str, body: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        method = "GET" if body is None else "POST"
        reused = self._conn.sock is not None
        try:
            try:
                status, blob = self._exchange(method, path, data, headers)
            except ConnectionError:
                if not reused:
                    raise
                # The server dropped the idle connection.  Resending is
                # safe: a query is idempotent by its key, so the resend
                # coalesces or hits.
                self.close()
                status, blob = self._exchange(method, path, data, headers)
        except (OSError, http.client.HTTPException) as exc:
            self.close()  # the connection's state is unknown
            raise ServeUnavailable(f"{url} unreachable: {exc}")
        if not 200 <= status < 300:
            try:
                detail = json.loads(blob).get("error", "")
            except ValueError:
                detail = ""
            raise ServeUnavailable(
                f"{url} -> HTTP {status}" + (f": {detail}" if detail else ""))
        try:
            return json.loads(blob)
        except ValueError as exc:
            raise ServeUnavailable(f"{url} returned non-JSON: {exc}")

    # ------------------------------------------------------------------
    def query(self, query: PlacementQuery) -> QueryResponse:
        reply = self._request("/query", body=query.to_dict())
        try:
            return QueryResponse.from_dict(reply)
        except (KeyError, ValueError, TypeError) as exc:
            raise ServeUnavailable(f"malformed response: {exc}")

    def health(self) -> dict:
        return self._request("/healthz")

    def ready(self) -> bool:
        try:
            return bool(self._request("/readyz").get("ready", False))
        except ServeUnavailable:
            return False
