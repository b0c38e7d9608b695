"""Machine-readable description of the `/v1` wire format.

``api_schema()`` derives a JSON document from the facade dataclasses
themselves (field names, annotations, required-ness) plus the error
codes and endpoints.  The repo commits a golden copy as
``api-schema.json``; a drift test regenerates the schema and runs
:func:`schema_compatibility_problems` against the golden file, so an
incompatible wire change (removed field, changed type, repurposed
error code) fails CI until the golden file — and the schema version —
are deliberately updated.
"""

from __future__ import annotations

import dataclasses
import json

from repro.compiler.pipeline import PIPELINE_VERSION

from repro.api.types import (
    BatchRequest,
    CODE_FOR_STATUS,
    CompileRequest,
    CompileResponse,
    CompileStats,
    ErrorEnvelope,
    WIRE_OPTION_KEYS,
)

#: bump when the wire format changes incompatibly (2: the no-op
#: ``BatchRequest.jobs`` was removed; old bodies carrying it still parse).
SCHEMA_VERSION = 2

_WIRE_TYPES = (
    CompileRequest,
    BatchRequest,
    CompileResponse,
    CompileStats,
    ErrorEnvelope,
)

ENDPOINTS = {
    "/v1/compile": {"method": "POST", "request": "CompileRequest",
                    "response": "CompileResponse"},
    "/v1/batch": {"method": "POST", "request": "BatchRequest",
                  "response": "BatchResponse"},
    "/healthz": {"method": "GET"},
    "/readyz": {"method": "GET"},
    "/metrics": {"method": "GET"},
}


def _describe(cls) -> dict:
    fields_doc: dict = {}
    for f in dataclasses.fields(cls):
        required = (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        fields_doc[f.name] = {
            "type": str(f.type),
            "required": required,
        }
    return {"fields": fields_doc}


def api_schema() -> dict:
    """The current schema as a JSON-safe dict (keys fully sorted)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "pipeline_version": PIPELINE_VERSION,
        "endpoints": ENDPOINTS,
        "error_codes": {
            str(status): code for status, code in CODE_FOR_STATUS.items()
        },
        "wire_option_keys": list(WIRE_OPTION_KEYS),
        "types": {cls.__name__: _describe(cls) for cls in _WIRE_TYPES},
    }
    # normalize through JSON so the golden file comparison is stable
    return json.loads(json.dumps(doc, sort_keys=True))


def schema_text() -> str:
    return json.dumps(api_schema(), indent=2, sort_keys=True) + "\n"


def schema_compatibility_problems(old: dict, new: dict) -> list[str]:
    """Breaking changes going from ``old`` (golden) to ``new`` (current).

    Additions are compatible; removals, type changes, and
    newly-required fields are not.
    """
    problems: list[str] = []

    for name, old_type in (old.get("types") or {}).items():
        new_type = (new.get("types") or {}).get(name)
        if new_type is None:
            problems.append(f"type removed: {name}")
            continue
        old_fields = old_type.get("fields") or {}
        new_fields = new_type.get("fields") or {}
        for fname, old_field in old_fields.items():
            new_field = new_fields.get(fname)
            if new_field is None:
                problems.append(f"field removed: {name}.{fname}")
                continue
            if new_field.get("type") != old_field.get("type"):
                problems.append(
                    f"field type changed: {name}.{fname} "
                    f"({old_field.get('type')} -> {new_field.get('type')})"
                )
        for fname, new_field in new_fields.items():
            if fname not in old_fields and new_field.get("required"):
                problems.append(
                    f"new field is required: {name}.{fname}"
                )

    for status, old_code in (old.get("error_codes") or {}).items():
        new_code = (new.get("error_codes") or {}).get(status)
        if new_code is None:
            problems.append(f"error code removed: {status} ({old_code})")
        elif new_code != old_code:
            problems.append(
                f"error code repurposed: {status} "
                f"({old_code} -> {new_code})"
            )

    for key in old.get("wire_option_keys") or []:
        if key not in (new.get("wire_option_keys") or []):
            problems.append(f"wire option key removed: {key}")

    for path, old_ep in (old.get("endpoints") or {}).items():
        new_ep = (new.get("endpoints") or {}).get(path)
        if new_ep is None:
            problems.append(f"endpoint removed: {path}")
        elif new_ep.get("method") != old_ep.get("method"):
            problems.append(
                f"endpoint method changed: {path} "
                f"({old_ep.get('method')} -> {new_ep.get('method')})"
            )

    return problems


__all__ = [
    "ENDPOINTS",
    "SCHEMA_VERSION",
    "api_schema",
    "schema_compatibility_problems",
    "schema_text",
]
