"""Seeded fault schedules: what goes wrong, where, and how often.

A :class:`FaultPlan` is a pure-data description of a chaos experiment:
a seed plus a list of :class:`FaultRule`\\ s, each binding one
*injection site* (a dotted name a production module consults, e.g.
``cache.write``) to one *fault kind* (what happens there) with a
firing rate and an optional cap.  The plan is deliberately inert — it
does nothing until a :class:`~repro.faults.injector.FaultInjector`
interprets it — and fully serializable, so a chaos run is reproducible
from a JSON file plus the seed inside it.

Determinism contract: whether the *n*-th consultation of a site fires
a rule depends only on ``(seed, site, n, rule)`` — never on wall-clock
time, thread identity, or Python's global RNG — so two runs that
consult the sites in the same per-site order inject exactly the same
faults.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

# -- fault kinds -----------------------------------------------------------

#: write only a prefix of the payload (a crash mid-write / torn page).
TORN_WRITE = "torn_write"
#: flip bytes somewhere in the payload (bit rot, bad RAM, bad disk).
CORRUPT_BYTES = "corrupt_bytes"
#: raise ``OSError(ENOSPC)`` — the disk is full.
ENOSPC = "enospc"
#: raise :class:`~repro.faults.injector.FaultInjected` (component crash).
CRASH = "crash"
#: sleep ``delay_seconds`` at the site (hang / pathological slowness).
HANG = "hang"
#: kill the worker thread servicing the request (BaseException-grade).
WORKER_DEATH = "worker_death"
#: close the connection without writing the HTTP response.
DROP_CONNECTION = "drop_connection"
#: delay the HTTP response by ``delay_seconds`` before writing it.
DELAY = "delay"

ALL_KINDS = (
    TORN_WRITE,
    CORRUPT_BYTES,
    ENOSPC,
    CRASH,
    HANG,
    WORKER_DEATH,
    DROP_CONNECTION,
    DELAY,
)

# -- injection sites -------------------------------------------------------

#: artifact-cache entry writes (the plan and meta.json files).
SITE_CACHE_WRITE = "cache.write"
#: C-backend invocation (:func:`repro.backend.cc.compile_and_run`).
SITE_CC_COMPILE = "cc.compile"
#: worker-pool job pickup (:class:`repro.server.pool.WorkerPool`).
SITE_POOL_WORKER = "pool.worker"
#: HTTP response write (:mod:`repro.server.app` connection loop).
SITE_HTTP_RESPONSE = "http.response"
#: the GCTD pass inside :func:`repro.compiler.pipeline.compile_program`.
SITE_GCTD = "gctd.run"

ALL_SITES = (
    SITE_CACHE_WRITE,
    SITE_CC_COMPILE,
    SITE_POOL_WORKER,
    SITE_HTTP_RESPONSE,
    SITE_GCTD,
)

#: environment variable gating fault plans in real server processes.
ENABLE_FAULTS_ENV = "REPRO_ENABLE_FAULTS"


class FaultPlanError(ValueError):
    """A fault-plan document failed validation."""


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One scheduled failure mode at one site."""

    site: str
    kind: str
    #: probability each consultation of ``site`` fires this rule.
    rate: float = 1.0
    #: stop firing after this many injections (0 = unlimited).
    max_fires: int = 0
    #: sleep length for HANG/DELAY kinds.
    delay_seconds: float = 0.05

    def validate(self) -> None:
        if self.kind not in ALL_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {ALL_KINDS})"
            )
        if not self.site:
            raise FaultPlanError("rule needs a nonempty site")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(
                f"rate must be in [0, 1], got {self.rate}"
            )
        if self.max_fires < 0:
            raise FaultPlanError("max_fires must be >= 0")
        if self.delay_seconds < 0:
            raise FaultPlanError("delay_seconds must be >= 0")

    def to_dict(self) -> dict:
        out: dict = {"site": self.site, "kind": self.kind}
        if self.rate != 1.0:
            out["rate"] = self.rate
        if self.max_fires:
            out["max_fires"] = self.max_fires
        if self.kind in (HANG, DELAY):
            out["delay_seconds"] = self.delay_seconds
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        if not isinstance(payload, dict):
            raise FaultPlanError("each rule must be an object")
        unknown = set(payload) - {
            "site", "kind", "rate", "max_fires", "delay_seconds"
        }
        if unknown:
            raise FaultPlanError(f"unknown rule keys: {sorted(unknown)}")
        rule = cls(
            site=str(payload.get("site", "")),
            kind=str(payload.get("kind", "")),
            rate=float(payload.get("rate", 1.0)),
            max_fires=int(payload.get("max_fires", 0)),
            delay_seconds=float(payload.get("delay_seconds", 0.05)),
        )
        rule.validate()
        return rule


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seed plus the rules it drives.  Pure data; see the injector."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    name: str = ""

    def validate(self) -> None:
        for rule in self.rules:
            rule.validate()

    def for_site(self, site: str) -> tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.site == site)

    def to_dict(self) -> dict:
        out: dict = {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }
        if self.name:
            out["name"] = self.name
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        unknown = set(payload) - {"seed", "rules", "name"}
        if unknown:
            raise FaultPlanError(f"unknown plan keys: {sorted(unknown)}")
        raw_rules = payload.get("rules", [])
        if not isinstance(raw_rules, list):
            raise FaultPlanError("'rules' must be a list")
        plan = cls(
            seed=int(payload.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in raw_rules),
            name=str(payload.get("name", "")),
        )
        plan.validate()
        return plan


def faults_enabled() -> bool:
    """Whether the environment opts in to fault injection."""
    return os.environ.get(ENABLE_FAULTS_ENV, "") == "1"


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read and validate a fault-plan JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FaultPlanError(f"cannot read fault plan {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"fault plan {path} is not JSON: {exc}")
    return FaultPlan.from_dict(payload)


def chaos_plan(seed: int, rate: float = 0.2) -> FaultPlan:
    """A ready-made plan covering every site with mixed fault kinds.

    The default schedule for chaos tests: every production injection
    site misbehaves at ``rate``, with short hangs so deadline paths
    are exercised without slowing the suite down.
    """
    return FaultPlan(
        seed=seed,
        name=f"chaos-{seed}",
        rules=(
            FaultRule(SITE_CACHE_WRITE, TORN_WRITE, rate=rate),
            FaultRule(SITE_CACHE_WRITE, CORRUPT_BYTES, rate=rate),
            FaultRule(SITE_CACHE_WRITE, ENOSPC, rate=rate / 2),
            FaultRule(SITE_GCTD, CRASH, rate=rate),
            FaultRule(
                SITE_GCTD, HANG, rate=rate / 2, delay_seconds=0.02
            ),
            FaultRule(SITE_POOL_WORKER, WORKER_DEATH, rate=rate / 2),
            FaultRule(
                SITE_POOL_WORKER, HANG, rate=rate / 2,
                delay_seconds=0.02,
            ),
            FaultRule(SITE_HTTP_RESPONSE, DROP_CONNECTION, rate=rate / 2),
            FaultRule(
                SITE_HTTP_RESPONSE, DELAY, rate=rate / 2,
                delay_seconds=0.02,
            ),
        ),
    )
