"""Server configuration.

One frozen-ish dataclass shared by the daemon entry point, the
embedded test runner, and the CLI.  Every tunable has a conservative
default sized for a laptop; production deployments override via
``python -m repro serve`` flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.faults import (
    ENABLE_FAULTS_ENV,
    FaultPlan,
    faults_enabled,
    load_fault_plan,
)
from repro.service.cache import DEFAULT_CACHE_ROOT

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
#: Ceiling on any request's ``deadline_seconds``.
MAX_DEADLINE = 600.0
#: Largest accepted request body, in bytes (413 beyond).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds suggested to shed clients via ``Retry-After``.
RETRY_AFTER = 1.0


def default_workers() -> int:
    """Compiles are CPU-bound; more threads than cores only adds churn."""
    return max(1, min(4, os.cpu_count() or 1))


@dataclass(slots=True)
class ServerConfig:
    host: str = DEFAULT_HOST
    #: TCP port; 0 binds an ephemeral port (the bound port is reported
    #: on :attr:`repro.server.app.CompileServer.port`).
    port: int = DEFAULT_PORT
    #: Worker threads executing compile/batch jobs.
    workers: int = field(default_factory=default_workers)
    #: Bounded admission queue: jobs waiting for a worker beyond this
    #: are shed with ``429 Retry-After``.
    queue_limit: int = 64
    #: Default per-request deadline (seconds); a request can lower or
    #: raise it via ``deadline_seconds`` up to :data:`MAX_DEADLINE`.
    default_deadline: float = 60.0
    #: Artifact cache root; empty string disables caching.
    cache_root: str = DEFAULT_CACHE_ROOT
    #: How long graceful shutdown waits for queued + in-flight jobs.
    drain_seconds: float = 10.0
    #: Path to a fault-plan JSON (see :mod:`repro.faults`).  Refused
    #: by :meth:`validate` unless ``REPRO_ENABLE_FAULTS=1`` — chaos
    #: must be an explicit, two-key decision.
    fault_plan_path: str = ""
    #: the plan :meth:`validate` loaded, so validating again (the CLI,
    #: then the server it starts) reads the file once
    _fault_plan: FaultPlan | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def validate(self) -> FaultPlan:
        """Raise ``ValueError`` on a bad setting; return the fault plan.

        The plan is empty unless ``fault_plan_path`` is set; a set path
        is loaded only past the ``REPRO_ENABLE_FAULTS`` gate, so a
        copied config cannot silently put chaos in production.  A
        malformed plan raises :class:`~repro.faults.FaultPlanError`,
        itself a ``ValueError``.
        """
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.default_deadline <= 0:
            raise ValueError("default_deadline must be > 0")
        if not self.fault_plan_path:
            return FaultPlan()
        if not faults_enabled():
            raise ValueError(
                "a fault plan injects failures on purpose; set "
                f"{ENABLE_FAULTS_ENV}=1 in the environment to confirm "
                "this server is allowed to misbehave"
            )
        if self._fault_plan is None:
            self._fault_plan = load_fault_plan(self.fault_plan_path)
        return self._fault_plan
