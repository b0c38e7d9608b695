"""The long-lived compile server.

``repro.server`` turns the one-shot service layer (:mod:`repro.service`)
into a resident daemon: a stdlib-only asyncio JSON-over-HTTP front end
(:mod:`repro.server.httpd`, :mod:`repro.server.app`) over a worker pool
with a bounded admission queue (:mod:`repro.server.pool`) whose workers
survive any job, instrumented with Prometheus-style live metrics
(:mod:`repro.server.metrics`).

Endpoints::

    POST /v1/compile   one compilation (answered from the artifact
                       cache on repeat submissions)
    POST /v1/batch     a batch, compiled item by item like /v1/compile
    GET  /healthz      liveness
    GET  /readyz       readiness (503 while starting/draining)
    GET  /metrics      Prometheus text format

Start one with ``python -m repro serve``; submit from the CLI with
``python -m repro client compile …`` (:mod:`repro.server.client`), or
embed a server in-process with :class:`repro.server.runner.ServerThread`.
"""

from repro.server.app import CompileServer, serve
from repro.server.client import ClientResponse, ServerClient
from repro.server.config import ServerConfig
from repro.server.metrics import MetricsRegistry
from repro.server.runner import ServerThread

__all__ = [
    "ClientResponse",
    "CompileServer",
    "MetricsRegistry",
    "ServerClient",
    "ServerConfig",
    "ServerThread",
    "serve",
]
