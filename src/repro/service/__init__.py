"""The compilation service layer.

Everything the one-shot pipeline lacks on the road to a long-running
service: a content-addressed artifact cache that never recompiles what
it has already compiled (:mod:`repro.service.cache`), stable request
fingerprints (:mod:`repro.service.fingerprint`), and pass-level
telemetry (:mod:`repro.service.telemetry`).  The pipeline itself knows
nothing about this package — the cache and tracer are injected into
:func:`repro.compiler.pipeline.compile_program` as optional duck-typed
dependencies.
"""

from repro.service.cache import ArtifactCache, CacheStats
from repro.service.fingerprint import (
    canonical_options,
    fingerprint_request,
    normalize_source,
)
from repro.service.telemetry import PassRecord, Tracer

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "PassRecord",
    "Tracer",
    "canonical_options",
    "fingerprint_request",
    "normalize_source",
]
