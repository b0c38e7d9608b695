"""Content-addressed, disk-backed compilation artifact cache.

Layout (default root ``.repro-cache/``)::

    objects/<fingerprint>/
        plan        pickled CompilationResult: AST, SSA and executable
                    IR (shared instructions pickled once), type env,
                    GCTD graph, allocation plan, interference stats
        meta.json   fingerprint, pipeline version, creation time and
                    plan checksum (older entries may carry more keys;
                    a load reads only the version and the checksum)
    quarantine/<fingerprint>-<n>/   corrupted entries, kept for autopsy
    bin/<key>/program       compiled binaries, keyed by
                            repro.backend.cc.binary_cache_key

Writes are atomic: each entry is materialized in a temporary sibling
directory and ``os.rename``\\ d into place, so concurrent writers of
the same fingerprint race benignly (one rename wins, the content is
identical by construction).  A small in-process LRU keeps hot results
unpickled: it maps a fingerprint straight to its ``CompilationResult``.

An entry holds only what a load reads back: the report and the C
translation are derived from the plan on demand.  Entries written
with ``report``/``c_source`` files beside the plan still load; those
files are ignored.

Integrity: ``meta.json`` records the plan's SHA-256.  A load whose
plan bytes fail their checksum (torn write, bit rot) — or fail to
unpickle — **quarantines** the entry: it is moved aside into
``quarantine/`` (never re-served, preserved for inspection), counted
on :attr:`CacheStats.quarantined`, reported through the
``on_quarantine`` hook, and the caller's recompile-and-store
transparently re-derives a clean entry.  Metadata-level problems
(missing/unreadable meta, pipeline version skew, no recorded plan
checksum) are ordinary repairable misses, removed in place: a plan is
never served without its checksum; a change to what the plan pickles
bumps :data:`~repro.compiler.pipeline.PIPELINE_VERSION`, so older
entries miss instead of failing to load as corrupt.  A store that
fails with ``OSError`` (e.g. ``ENOSPC``) degrades to memory-only: the
result stays servable from the in-process LRU and the disk entry is
simply absent.

Fault injection: the optional ``injector``
(:class:`repro.faults.FaultInjector`) mangles the bytes written or
raises ``ENOSPC`` at the ``cache.write`` site, which is how the chaos suite
proves the checksum/quarantine machinery actually holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.compiler.pipeline import PIPELINE_VERSION
from repro.service.fingerprint import fingerprint_request

DEFAULT_CACHE_ROOT = ".repro-cache"

_PLAN = "plan"
_META = "meta.json"

#: injection-site name consulted on every file write.
_WRITE_SITE = "cache.write"


@dataclass(slots=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    stores: int = 0
    repairs: int = 0
    quarantined: int = 0
    write_errors: int = 0


class _CorruptEntry(ValueError):
    """The plan failed its checksum or would not unpickle."""


class ArtifactCache:
    """Disk + in-process LRU store keyed by request fingerprint."""

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_ROOT,
        max_memory_entries: int = 64,
        pipeline_version: str | None = None,
        injector=None,
        on_quarantine=None,
    ) -> None:
        self.root = Path(root)
        self.pipeline_version = (
            pipeline_version
            if pipeline_version is not None
            else PIPELINE_VERSION
        )
        self.max_memory_entries = max_memory_entries
        self.stats = CacheStats()
        #: optional :class:`repro.faults.FaultInjector` for chaos runs.
        self.injector = injector
        #: optional callback ``fn(fingerprint)`` on each quarantine.
        self.on_quarantine = on_quarantine
        self._memory: OrderedDict[str, object] = OrderedDict()
        # The server's worker threads share one cache; the in-process
        # LRU (ordered-dict reordering + eviction) needs a lock.  Disk
        # writes stay lock-free — they are atomic renames by design.
        self._lock = threading.RLock()

    # -- keys and paths --------------------------------------------------

    def fingerprint(self, sources, entry=None, options=None) -> str:
        return fingerprint_request(
            sources, entry, options, pipeline_version=self.pipeline_version
        )

    def object_dir(self, fingerprint: str) -> Path:
        return self.root / "objects" / fingerprint

    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- pipeline-facing interface ---------------------------------------

    def get_program(self, sources, entry, options, tracer=None):
        """Cache lookup used by ``pipeline.compile_program``."""
        fp = self.fingerprint(sources, entry, options)
        result = self.load(fp)
        if tracer is not None:
            tracer.event("cache", hit=result is not None, fingerprint=fp)
        return result

    def put_program(self, sources, entry, options, result, tracer=None):
        fp = self.fingerprint(sources, entry, options)
        self.store(fp, result)
        if tracer is not None:
            tracer.event("cache_store", fingerprint=fp)
        return fp

    # -- load / store ----------------------------------------------------

    def load(self, fingerprint: str):
        """Return the cached CompilationResult, or None on miss.

        A corrupted disk entry (checksum mismatch, bad pickle) is
        quarantined; metadata problems are removed in place.  Either
        way the load reports a miss so the caller's recompile-and-store
        re-derives a clean entry.
        """
        with self._lock:
            result = self._memory.get(fingerprint)
            if result is not None:
                self._memory.move_to_end(fingerprint)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return result
        directory = self.object_dir(fingerprint)
        plan_path = directory / _PLAN
        meta_path = directory / _META
        if not plan_path.is_file():
            self.stats.misses += 1
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("pipeline_version") != self.pipeline_version:
                raise ValueError("pipeline version mismatch")
            checksum = meta["checksums"][_PLAN]
        except Exception:
            # Unreadable/absent meta, version skew or no plan checksum:
            # not corruption, but nothing to vouch for the plan either —
            # drop the entry so the caller's recompile-and-store
            # repairs it.
            self._remove_entry(directory)
            self.stats.repairs += 1
            self.stats.misses += 1
            return None
        try:
            plan_bytes = plan_path.read_bytes()
            if hashlib.sha256(plan_bytes).hexdigest() != checksum:
                raise _CorruptEntry(f"checksum mismatch on {_PLAN}")
            result = pickle.loads(plan_bytes)
        except Exception:
            # Payload-level corruption (torn write, flipped bytes,
            # truncated pickle): never serve it, never silently lose
            # the evidence — quarantine, then report a miss.
            self._quarantine(fingerprint, directory)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._remember(fingerprint, result)
        return result

    def store(self, fingerprint: str, result):
        """Atomically write an entry (plan + meta).

        The meta records the plan's SHA-256, computed *before* the
        bytes reach the filesystem, so any later divergence — however
        it happened — is caught by :meth:`load`.  An ``OSError`` from
        the filesystem (disk full) downgrades to a memory-only store.
        """
        plan_bytes = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        directory = self.object_dir(fingerprint)
        full_meta = {
            "fingerprint": fingerprint,
            "pipeline_version": self.pipeline_version,
            "created": time.time(),
            "checksums": {_PLAN: hashlib.sha256(plan_bytes).hexdigest()},
        }
        try:
            directory.parent.mkdir(parents=True, exist_ok=True)
            tmp = Path(
                tempfile.mkdtemp(
                    prefix=f".tmp-{fingerprint[:12]}-", dir=directory.parent
                )
            )
        except OSError:
            self.stats.write_errors += 1
            tmp = None
        if tmp is not None:
            try:
                try:
                    (tmp / _PLAN).write_bytes(self._faulty(plan_bytes))
                    (tmp / _META).write_bytes(
                        self._faulty(
                            json.dumps(full_meta, indent=2).encode("utf-8")
                        )
                    )
                    self._rename_entry(tmp, directory)
                except OSError:
                    # Disk full (real or injected): the entry stays
                    # memory-only; a later store retries the disk.
                    self.stats.write_errors += 1
            finally:
                if tmp.exists():
                    shutil.rmtree(tmp, ignore_errors=True)
        self.stats.stores += 1
        self._remember(fingerprint, result)
        return directory

    def _faulty(self, data: bytes) -> bytes:
        """Route written bytes through the fault injector, if any."""
        if self.injector is None:
            return data
        return self.injector.mangle(_WRITE_SITE, data)

    # -- listing and quarantine ------------------------------------------

    def entries(self) -> list[str]:
        """Fingerprints currently on disk."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(
            child.name
            for child in objects.iterdir()
            if child.is_dir() and not child.name.startswith(".tmp-")
        )

    def quarantined_entries(self) -> list[str]:
        """Quarantine directory names (``<fingerprint>-<n>``)."""
        quarantine = self.quarantine_dir()
        if not quarantine.is_dir():
            return []
        return sorted(
            child.name for child in quarantine.iterdir() if child.is_dir()
        )

    def _quarantine(self, fingerprint: str, directory: Path) -> None:
        """Move a corrupt entry aside so it can never be served again."""
        with self._lock:
            self._memory.pop(fingerprint, None)
        quarantine = self.quarantine_dir()
        moved = False
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            for attempt in range(1000):
                dest = quarantine / f"{fingerprint}-{attempt}"
                try:
                    os.rename(directory, dest)
                    moved = True
                    break
                except FileExistsError:
                    continue
                except OSError:
                    break
        except OSError:
            pass
        if not moved:
            # Could not move it (cross-device, permissions): removal is
            # the fallback that still guarantees it is never served.
            self._remove_entry(directory)
        self.stats.quarantined += 1
        self.stats.repairs += 1
        if self.on_quarantine is not None:
            self.on_quarantine(fingerprint)

    # -- internals -------------------------------------------------------

    def _remember(self, fingerprint: str, result) -> None:
        with self._lock:
            self._memory[fingerprint] = result
            self._memory.move_to_end(fingerprint)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    @staticmethod
    def _rename_entry(tmp: Path, final: Path) -> None:
        try:
            os.rename(tmp, final)
        except OSError:
            # The entry appeared concurrently (or survives a previous
            # run).  Content is identical by construction — replace it
            # wholesale so a partially corrupted loser is repaired.
            shutil.rmtree(final, ignore_errors=True)
            try:
                os.rename(tmp, final)
            except OSError:
                pass  # lost the second race too; their copy is fine
    @staticmethod
    def _remove_entry(directory: Path) -> None:
        shutil.rmtree(directory, ignore_errors=True)
