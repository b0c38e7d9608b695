"""Stdlib HTTP client for the compile server.

``python -m repro client …`` and the test suite talk to a running
server through this module; it depends only on ``urllib`` so the CLI
can submit work without any third-party HTTP stack.

Every call returns a :class:`ClientResponse` — error statuses (429,
504, …) are *data*, not exceptions, because shed load and expired
deadlines are expected operating conditions a caller must branch on.
Only transport-level failures raise (connection refused, DNS, the
server closing the socket mid-exchange — see ``TRANSPORT_ERRORS``),
and with a :class:`RetryPolicy` configured, only after the retry
budget is spent.

Retries use capped exponential backoff with *full jitter*: the wait
before attempt *n* is uniform on ``[0, min(cap, base·2ⁿ))``, drawn
from a seeded RNG so tests replay the exact schedule.  A ``429`` with
a ``Retry-After`` header (or ``retry_after_seconds`` detail in the
envelope) overrides the computed delay — the server knows its queue
better than the client's guess.

Request bodies are the typed :mod:`repro.api` requests' ``to_wire()``;
:meth:`ServerClient.post_json` sends a raw body, for probing the
server with input no typed request produces.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api import BatchRequest, CompileRequest

#: transport-level failures worth retrying: connection refused/reset,
#: DNS trouble (``URLError`` is an ``OSError``), and the server
#: closing the socket mid-exchange (``RemoteDisconnected`` et al. are
#: ``HTTPException``, *not* ``URLError``).
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: statuses worth retrying: shed load, transient server trouble,
#: expired deadlines.  Hard client errors (4xx) are not on the list —
#: the same request will fail the same way.
RETRY_STATUSES = (429, 500, 502, 503, 504)


@dataclass(slots=True)
class ClientResponse:
    status: int
    payload: dict = field(default_factory=dict)
    text: str = ""
    headers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.payload.get("ok", True)

    def envelope(self):
        """The typed error envelope for a non-2xx response."""
        from repro.api import ErrorEnvelope

        return ErrorEnvelope.from_wire(self.payload, self.status)

    def retry_after(self) -> float | None:
        """The server-advised wait, if the response carries one."""
        for key, value in self.headers.items():
            if key.lower() == "retry-after":
                try:
                    return max(0.0, float(value))
                except (TypeError, ValueError):
                    break
        detail = self.payload.get("detail")
        if isinstance(detail, dict):
            try:
                return max(0.0, float(detail["retry_after_seconds"]))
            except (KeyError, TypeError, ValueError):
                pass
        return None


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How many times to retry and how long to wait in between."""

    #: extra attempts after the first (0 = no retries at all).
    retries: int = 0
    #: base for the exponential schedule (attempt n caps at base·2ⁿ).
    backoff_seconds: float = 0.1
    #: ceiling on any single wait, server-advised or computed.
    max_backoff_seconds: float = 5.0
    #: seeds the jitter RNG; same seed → same wait schedule.
    seed: int = 0

    def delay(
        self,
        attempt: int,
        rng: random.Random,
        server_advice: float | None = None,
    ) -> float:
        """Wait before retry number ``attempt`` (0-based)."""
        if server_advice is not None:
            return min(server_advice, self.max_backoff_seconds)
        cap = min(
            self.max_backoff_seconds,
            self.backoff_seconds * (2.0 ** attempt),
        )
        return rng.uniform(0.0, cap)


class ServerClient:
    def __init__(
        self,
        base_url: str,
        timeout: float = 120.0,
        retry: RetryPolicy | None = None,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        #: per-attempt timeout — each retry gets the full budget.
        self.timeout = timeout
        self.retry = retry
        self.sleep = sleep

    # -- endpoints -------------------------------------------------------

    def compile(self, request: CompileRequest) -> ClientResponse:
        return self.post_json("/v1/compile", request.to_wire())

    def batch(self, request: BatchRequest) -> ClientResponse:
        return self.post_json("/v1/batch", request.to_wire())

    def health(self) -> ClientResponse:
        return self.get("/healthz")

    def ready(self) -> ClientResponse:
        return self.get("/readyz")

    def metrics_text(self) -> str:
        return self.get("/metrics").text

    # -- transport -------------------------------------------------------

    def post_json(self, path: str, payload: dict) -> ClientResponse:
        request = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._send(request)

    def get(self, path: str) -> ClientResponse:
        request = urllib.request.Request(
            self.base_url + path, method="GET"
        )
        return self._send(request)

    def _send(self, request: urllib.request.Request) -> ClientResponse:
        """Run the retry loop around single attempts.

        Retryable outcomes: a transport error (``URLError``) or a
        status on the policy's retry list.  Compiles are pure, so
        resubmitting a POST is safe.
        """
        policy = self.retry or RetryPolicy()
        rng = random.Random(f"{policy.seed}:{request.full_url}")
        attempts = max(1, policy.retries + 1)
        last_error: Exception | None = None
        response: ClientResponse | None = None
        for attempt in range(attempts):
            last_error = None
            try:
                response = self._attempt(request)
            except TRANSPORT_ERRORS as exc:
                last_error = exc
                response = None
            else:
                if response.status not in RETRY_STATUSES:
                    return response
            if attempt + 1 >= attempts:
                break
            advice = response.retry_after() if response else None
            delay = policy.delay(attempt, rng, server_advice=advice)
            if delay > 0:
                self.sleep(delay)
        if response is not None:
            return response
        assert last_error is not None
        raise last_error

    def _attempt(self, request: urllib.request.Request) -> ClientResponse:
        """One HTTP exchange; overridable seam for the retry tests."""
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return self._wrap(
                    response.status,
                    response.read(),
                    dict(response.headers),
                )
        except urllib.error.HTTPError as exc:
            # 4xx/5xx carry a JSON body describing the refusal.
            body = exc.read()
            return self._wrap(exc.code, body, dict(exc.headers or {}))

    @staticmethod
    def _wrap(status: int, body: bytes, headers: dict) -> ClientResponse:
        text = body.decode("utf-8", errors="replace")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = {}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return ClientResponse(
            status=status, payload=payload, text=text, headers=headers
        )
