"""Typed request/response/error types — the `/v1` wire format's home.

Before this module existed the CLI and the server each hand-rolled the
same dicts; a field rename in one place silently broke the other.
These dataclasses are now the single source of truth: everything that
crosses a process boundary goes through a ``to_wire``/``from_wire``
pair defined here, and the wire shapes are frozen into
``api-schema.json`` (see :mod:`repro.api.schema`) with a drift test.

Compatibility contract: ``to_wire`` reproduces the pre-facade `/v1`
payloads byte-for-byte (same keys, same order, optional keys omitted
when unset); new fields are only ever *added*.  Error responses carry
the ``{code, message, detail}`` envelope on top of the legacy
``{ok, error}`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.pipeline import CompilerOptions
from repro.core.gctd import GCTDOptions


class ApiValidationError(ValueError):
    """A wire payload failed facade validation (maps to HTTP 400)."""


# --------------------------------------------------------------------------
# Compiler options on the wire
# --------------------------------------------------------------------------

#: `/v1` spells options with short switch names; this is the one place
#: that mapping lives.  ``gctd`` is a plain on/off bool on the wire.
WIRE_OPTION_KEYS = ("gctd", "cse", "constfold", "shapefold")


def _wire_bool(payload: dict, key: str, default: bool) -> bool:
    """A JSON boolean; anything else (``"false"``, ``0``) is a 400."""
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ApiValidationError(f"'{key}' must be true or false")
    return value


def _wire_str(payload: dict, key: str) -> str | None:
    """A JSON string, absent or null; anything else (``true``) is a 400."""
    value = payload.get(key)
    if value is not None and not isinstance(value, str):
        raise ApiValidationError(f"'{key}' must be a string")
    return value


def _wire_deadline(payload: dict) -> float | None:
    """``deadline_seconds``: absent/null, or a JSON number > 0."""
    value = payload.get("deadline_seconds")
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not value > 0
    ):
        raise ApiValidationError("'deadline_seconds' must be a number > 0")
    return value


def options_from_wire(payload: dict | None) -> CompilerOptions:
    """Parse the `/v1` options object into :class:`CompilerOptions`."""
    payload = payload or {}
    if not isinstance(payload, dict):
        raise ApiValidationError("'options' must be an object")
    unknown = set(payload) - set(WIRE_OPTION_KEYS)
    if unknown:
        raise ApiValidationError(f"unknown options: {sorted(unknown)}")
    return CompilerOptions(
        gctd=GCTDOptions(enabled=_wire_bool(payload, "gctd", True)),
        enable_cse=_wire_bool(payload, "cse", True),
        enable_constfold=_wire_bool(payload, "constfold", True),
        enable_shapefold=_wire_bool(payload, "shapefold", True),
    )


def options_to_wire(options: CompilerOptions | None) -> dict:
    """Minimal wire options dict (defaults omitted, like the CLI sends)."""
    if options is None:
        return {}
    out: dict = {}
    if not options.gctd.enabled:
        out["gctd"] = False
    if not options.enable_cse:
        out["cse"] = False
    if not options.enable_constfold:
        out["constfold"] = False
    if not options.enable_shapefold:
        out["shapefold"] = False
    return out


def validated_sources(payload: dict) -> dict[str, str]:
    """The `/v1` ``sources`` object: nonempty str→str map."""
    sources = payload.get("sources")
    if not isinstance(sources, dict) or not sources:
        raise ApiValidationError("missing 'sources' (filename -> M text)")
    for name, text in sources.items():
        if not isinstance(name, str) or not isinstance(text, str):
            raise ApiValidationError("'sources' must map str -> str")
    return sources


# --------------------------------------------------------------------------
# Requests
# --------------------------------------------------------------------------


@dataclass(slots=True)
class CompileRequest:
    """One compilation: a set of M-files plus options.

    Shared by the CLI, the server's `/v1/compile` body, and each item
    of a `/v1/batch` body.
    """

    sources: dict[str, str]
    entry: str | None = None
    options: CompilerOptions | None = None
    name: str = ""
    emit_c: bool = False
    verify_plan: bool = False
    deadline_seconds: float | None = None

    def to_wire(self) -> dict:
        payload: dict = {"sources": self.sources}
        if self.entry is not None:
            payload["entry"] = self.entry
        wire_options = options_to_wire(self.options)
        if wire_options:
            payload["options"] = wire_options
        if self.name:
            payload["name"] = self.name
        if self.emit_c:
            payload["emit_c"] = True
        if self.verify_plan:
            payload["verify_plan"] = True
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "CompileRequest":
        if not isinstance(payload, dict):
            raise ApiValidationError("request body must be a JSON object")
        return cls(
            sources=validated_sources(payload),
            entry=_wire_str(payload, "entry"),
            options=options_from_wire(payload.get("options")),
            name=_wire_str(payload, "name") or "",
            emit_c=_wire_bool(payload, "emit_c", False),
            verify_plan=_wire_bool(payload, "verify_plan", False),
            deadline_seconds=_wire_deadline(payload),
        )


@dataclass(slots=True)
class BatchRequest:
    """The `/v1/batch` body: an ordered list of compile requests.

    The server compiles a batch's items one after another.  A legacy
    ``"jobs"`` key is ignored like any other unknown key.
    """

    items: list[CompileRequest] = field(default_factory=list)
    deadline_seconds: float | None = None

    def to_wire(self) -> dict:
        payload: dict = {
            "requests": [item.to_wire() for item in self.items]
        }
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "BatchRequest":
        raw_items = payload.get("requests")
        if not isinstance(raw_items, list) or not raw_items:
            raise ApiValidationError(
                "missing 'requests' (list of compiles)"
            )
        items: list[CompileRequest] = []
        for index, raw in enumerate(raw_items):
            if not isinstance(raw, dict):
                raise ApiValidationError(
                    f"requests[{index}] must be an object"
                )
            request = CompileRequest.from_wire(raw)
            if not request.name:
                request.name = f"request-{index}"
            items.append(request)
        return cls(items=items, deadline_seconds=_wire_deadline(payload))


# --------------------------------------------------------------------------
# Responses
# --------------------------------------------------------------------------


@dataclass(slots=True)
class CompileStats:
    """The Table-2 numbers every surface reports."""

    variables: int = 0
    static_subsumed: int = 0
    dynamic_subsumed: int = 0
    storage_reduction_kb: float = 0.0
    colors: int = 0
    groups: int = 0
    stack_frame_bytes: int = 0
    #: True when the plan is the mcc all-heap fallback (GCTD failed).
    degraded: bool = False

    @classmethod
    def from_result(cls, result) -> "CompileStats":
        stats = result.report
        return cls(
            variables=stats.original_variable_count,
            static_subsumed=stats.static_subsumed,
            dynamic_subsumed=stats.dynamic_subsumed,
            storage_reduction_kb=stats.storage_reduction_kb,
            colors=stats.color_count,
            groups=stats.group_count,
            stack_frame_bytes=result.plan.stack_frame_bytes(),
            degraded=result.degraded,
        )

    def to_wire(self) -> dict:
        out = {
            "variables": self.variables,
            "static_subsumed": self.static_subsumed,
            "dynamic_subsumed": self.dynamic_subsumed,
            "storage_reduction_kb": self.storage_reduction_kb,
            "colors": self.colors,
            "groups": self.groups,
            "stack_frame_bytes": self.stack_frame_bytes,
        }
        if self.degraded:
            out["degraded"] = True
        return out

    @classmethod
    def from_wire(cls, payload: dict) -> "CompileStats":
        return cls(
            variables=int(payload.get("variables", 0)),
            static_subsumed=int(payload.get("static_subsumed", 0)),
            dynamic_subsumed=int(payload.get("dynamic_subsumed", 0)),
            storage_reduction_kb=float(
                payload.get("storage_reduction_kb", 0.0)
            ),
            colors=int(payload.get("colors", 0)),
            groups=int(payload.get("groups", 0)),
            stack_frame_bytes=int(payload.get("stack_frame_bytes", 0)),
            degraded=bool(payload.get("degraded", False)),
        )


@dataclass(slots=True)
class CompileResponse:
    """The `/v1/compile` success body."""

    ok: bool = True
    name: str = ""
    fingerprint: str = ""
    cache_hit: bool = False
    entry: str = ""
    wall_seconds: float = 0.0
    stats: CompileStats = field(default_factory=CompileStats)
    report: str = ""
    verification: dict | None = None
    c_source: str | None = None
    #: True when the result carries the mcc fallback plan; mirrored on
    #: ``stats.degraded`` so both summary and full consumers see it.
    degraded: bool = False

    @classmethod
    def from_result(
        cls,
        result,
        *,
        name: str = "",
        fingerprint: str = "",
        cache_hit: bool = False,
        wall_seconds: float = 0.0,
        report: str = "",
        emit_c: bool = False,
    ) -> "CompileResponse":
        return cls(
            ok=True,
            name=name,
            fingerprint=fingerprint,
            cache_hit=cache_hit,
            entry=result.program.entry,
            wall_seconds=wall_seconds,
            stats=CompileStats.from_result(result),
            report=report,
            verification=(
                result.verification.to_dict()
                if result.verification is not None
                else None
            ),
            c_source=result.generate_c() if emit_c else None,
            degraded=result.degraded,
        )

    def to_wire(self) -> dict:
        # Key order matches the pre-facade server response exactly;
        # the new `verification`, `c_source`, and `degraded` keys are
        # additive and only present when set, so undegraded responses
        # stay byte-identical to pre-envelope output.
        payload: dict = {
            "ok": self.ok,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "entry": self.entry,
            "wall_seconds": self.wall_seconds,
            "stats": self.stats.to_wire(),
            "report": self.report,
        }
        if self.verification is not None:
            payload["verification"] = self.verification
        if self.c_source is not None:
            payload["c_source"] = self.c_source
        if self.degraded:
            payload["degraded"] = True
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "CompileResponse":
        return cls(
            ok=bool(payload.get("ok")),
            name=str(payload.get("name", "")),
            fingerprint=str(payload.get("fingerprint", "")),
            cache_hit=bool(payload.get("cache_hit")),
            entry=str(payload.get("entry", "")),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            stats=CompileStats.from_wire(payload.get("stats") or {}),
            report=str(payload.get("report", "")),
            verification=payload.get("verification"),
            c_source=payload.get("c_source"),
            degraded=bool(payload.get("degraded", False)),
        )


# --------------------------------------------------------------------------
# Error envelope
# --------------------------------------------------------------------------

#: default machine-readable code per HTTP status — every non-2xx the
#: server can produce has a stable code clients may branch on.
CODE_FOR_STATUS = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    413: "payload_too_large",
    422: "compile_error",
    429: "queue_full",
    500: "internal_error",
    503: "unavailable",
    504: "deadline_exceeded",
}


def code_for_status(status: int) -> str:
    return CODE_FOR_STATUS.get(status, f"http_{status}")


@dataclass(slots=True)
class ErrorEnvelope:
    """Uniform non-2xx body: ``{code, message, detail}``.

    ``to_wire`` keeps the legacy ``{ok: false, error: ...}`` keys so
    pre-envelope clients keep working; ``from_wire`` accepts both the
    new envelope and bare legacy bodies (``code`` inferred from the
    HTTP status).
    """

    code: str = "internal_error"
    message: str = ""
    detail: dict = field(default_factory=dict)
    status: int = 0  # transport-level; not serialized

    def to_wire(self) -> dict:
        return {
            "ok": False,
            "error": self.message,
            "code": self.code,
            "message": self.message,
            "detail": self.detail,
        }

    @classmethod
    def from_wire(
        cls, payload: dict | None, status: int = 0
    ) -> "ErrorEnvelope":
        payload = payload if isinstance(payload, dict) else {}
        message = (
            payload.get("message")
            or payload.get("error")
            or (f"HTTP {status}" if status else "unknown error")
        )
        detail = payload.get("detail")
        return cls(
            code=str(payload.get("code") or code_for_status(status)),
            message=str(message),
            detail=detail if isinstance(detail, dict) else {},
            status=status,
        )

    def summary(self) -> str:
        """One line for CLI stderr: status, code, message, retry hint."""
        parts = [f"server returned {self.status or '?'}"]
        parts.append(f"[{self.code}]")
        out = " ".join(parts) + f": {self.message}"
        retry = self.detail.get("retry_after_seconds")
        if retry is not None:
            out += f" (retry after {retry}s)"
        return out


__all__ = [
    "ApiValidationError",
    "BatchRequest",
    "CODE_FOR_STATUS",
    "CompileRequest",
    "CompileResponse",
    "CompileStats",
    "ErrorEnvelope",
    "WIRE_OPTION_KEYS",
    "code_for_status",
    "options_from_wire",
    "options_to_wire",
    "validated_sources",
]
