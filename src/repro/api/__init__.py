"""`repro.api` — the typed facade over every process boundary.

One import surface for the request/response/error shapes shared by the
CLI (:mod:`repro.__main__`) and the compile server
(:mod:`repro.server.app`); plus the machine-readable schema the drift
test pins (:mod:`repro.api.schema`).
"""

from repro.api.schema import (
    SCHEMA_VERSION,
    api_schema,
    schema_compatibility_problems,
    schema_text,
)
from repro.api.types import (
    ApiValidationError,
    BatchRequest,
    CODE_FOR_STATUS,
    CompileRequest,
    CompileResponse,
    CompileStats,
    ErrorEnvelope,
    WIRE_OPTION_KEYS,
    code_for_status,
    options_from_wire,
    options_to_wire,
    validated_sources,
)

__all__ = [
    "ApiValidationError",
    "BatchRequest",
    "CODE_FOR_STATUS",
    "CompileRequest",
    "CompileResponse",
    "CompileStats",
    "ErrorEnvelope",
    "SCHEMA_VERSION",
    "WIRE_OPTION_KEYS",
    "api_schema",
    "code_for_status",
    "options_from_wire",
    "options_to_wire",
    "schema_compatibility_problems",
    "schema_text",
    "validated_sources",
]
