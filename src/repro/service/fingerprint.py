"""Stable content fingerprints for compilation requests.

A fingerprint is a SHA-256 over a canonical JSON encoding of
``(sources, entry, options, pipeline version)``.  Canonicalization is
what makes the cache deterministic:

* source text is normalized to ``\\n`` line endings (a CRLF checkout
  of the same M-file must hit the same entry);
* source files are sorted by name (dict insertion order is a loading
  accident, not program identity);
* options are plain dataclasses, flattened with
  :func:`dataclasses.asdict` and serialized with sorted keys, so two
  ``CompilerOptions`` that compare equal always hash equal.

The pipeline version is baked in so bumping
:data:`repro.compiler.pipeline.PIPELINE_VERSION` invalidates every
previously cached artifact at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.compiler.pipeline import PIPELINE_VERSION, CompilerOptions


def normalize_source(text: str) -> str:
    """Normalize line endings so logically identical sources hash equal."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def canonical_options(options) -> dict:
    """Flatten an options object to its JSON-safe dict form.

    ``None`` means "the defaults" everywhere in the pipeline, so it
    canonicalizes to the same form as an explicit ``CompilerOptions()``
    — otherwise the same request would get two fingerprints depending
    on which spelling the caller used.  Every option field is a bool,
    an int or a nested options dataclass, so ``asdict`` is already
    JSON-safe; key order does not matter because the fingerprint dumps
    with ``sort_keys=True``.
    """
    return asdict(options or CompilerOptions())


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
