"""Stable content fingerprints for compilation requests.

A fingerprint is a SHA-256 over a canonical JSON encoding of
``(sources, entry, options, pipeline version)``.  Canonicalization is
what makes the cache deterministic:

* source text is normalized to ``\\n`` line endings (a CRLF checkout
  of the same M-file must hit the same entry);
* source files are sorted by name (dict insertion order is a loading
  accident, not program identity);
* options dataclasses are flattened to nested dicts and serialized
  with sorted keys, so two ``CompilerOptions`` that compare equal
  always hash equal.

The pipeline version is baked in so bumping
:data:`repro.compiler.pipeline.PIPELINE_VERSION` invalidates every
previously cached artifact at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum

from repro.compiler.pipeline import PIPELINE_VERSION, CompilerOptions
from repro.core.optionset import OptionSet


def normalize_source(text: str) -> str:
    """Normalize line endings so logically identical sources hash equal."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def canonical_options(options) -> dict:
    """Flatten an options object to a JSON-safe, order-independent form.

    ``None`` means "the defaults" everywhere in the pipeline, so it
    canonicalizes to the same form as an explicit ``CompilerOptions()``
    — otherwise the same request would get two fingerprints depending
    on which spelling the caller used.

    Option sets canonicalize through their own ``to_dict`` (the
    round-trip :class:`repro.core.optionset.OptionSet` defines); the
    generic dataclass walk below remains only for non-OptionSet values
    nested inside.
    """
    if options is None:
        options = CompilerOptions()
    return _canonical(options)


def _canonical(value):
    if isinstance(value, OptionSet):
        return {
            key: _canonical(val)
            for key, val in value.to_dict().items()
        }
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in sorted(fields(value), key=lambda f: f.name)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {
            str(k): _canonical(value[k])
            for k in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def fingerprint_request(
    sources: dict[str, str],
    entry: str | None = None,
    options=None,
    pipeline_version: str | None = None,
) -> str:
    """Content-addressed key for one compilation request."""
    payload = {
        "pipeline_version": (
            pipeline_version
            if pipeline_version is not None
            else PIPELINE_VERSION
        ),
        "entry": entry,
        "sources": {
            name: normalize_source(sources[name])
            for name in sorted(sources)
        },
        "options": canonical_options(options),
    }
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(encoded).hexdigest()
