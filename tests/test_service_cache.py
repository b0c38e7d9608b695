"""Artifact-cache tests: fingerprints, hit/miss/invalidation, repair."""

import hashlib
import json
import multiprocessing
import pickle

import pytest

from repro.compiler.pipeline import (
    CompilerOptions,
    PIPELINE_VERSION,
    compile_source,
)
from repro.core.gctd import GCTDOptions
from repro.service.cache import ArtifactCache
from repro.service.fingerprint import (
    canonical_options,
    fingerprint_request,
    normalize_source,
)

SRC = "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestFingerprint:
    def test_deterministic(self):
        fp1 = fingerprint_request({"m.m": SRC})
        fp2 = fingerprint_request({"m.m": SRC})
        assert fp1 == fp2
        assert len(fp1) == 64

    def test_source_order_independent(self):
        a = {"a.m": "x = 1;", "b.m": "y = 2;"}
        b = {"b.m": "y = 2;", "a.m": "x = 1;"}
        assert fingerprint_request(a) == fingerprint_request(b)

    def test_line_endings_normalized(self):
        unix = fingerprint_request({"m.m": "x = 1;\ny = 2;\n"})
        dos = fingerprint_request({"m.m": "x = 1;\r\ny = 2;\r\n"})
        mac = fingerprint_request({"m.m": "x = 1;\ry = 2;\r"})
        assert unix == dos == mac
        assert normalize_source("a\r\nb\rc") == "a\nb\nc"

    def test_none_options_match_defaults(self):
        explicit = fingerprint_request(
            {"m.m": SRC}, options=CompilerOptions()
        )
        implicit = fingerprint_request({"m.m": SRC}, options=None)
        assert explicit == implicit

    def test_option_change_changes_fingerprint(self):
        on = fingerprint_request({"m.m": SRC}, options=CompilerOptions())
        off = fingerprint_request(
            {"m.m": SRC},
            options=CompilerOptions(gctd=GCTDOptions(enabled=False)),
        )
        assert on != off

    def test_source_edit_changes_fingerprint(self):
        assert fingerprint_request({"m.m": SRC}) != fingerprint_request(
            {"m.m": SRC + "disp(1);\n"}
        )

    def test_entry_changes_fingerprint(self):
        sources = {"a.m": "x = 1;", "b.m": "y = 2;"}
        assert fingerprint_request(
            sources, entry="a"
        ) != fingerprint_request(sources, entry="b")

    def test_pipeline_version_changes_fingerprint(self):
        assert fingerprint_request(
            {"m.m": SRC}, pipeline_version=PIPELINE_VERSION
        ) != fingerprint_request(
            {"m.m": SRC}, pipeline_version=PIPELINE_VERSION + "-next"
        )

    def test_canonical_options_sorted_and_json_safe(self):
        canon = canonical_options(CompilerOptions())
        encoded = json.dumps(canon)  # must not raise
        assert list(canon) == sorted(canon)
        assert "gctd" in canon and canon["gctd"]["enabled"] is True
        assert json.loads(encoded) == canon


class TestCacheHitMiss:
    def test_miss_then_hit(self, cache):
        r1 = compile_source(SRC, cache=cache)
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        r2 = compile_source(SRC, cache=cache)
        assert cache.stats.hits == 1
        assert r2 is r1  # served from the in-process LRU

    def test_disk_hit_from_fresh_process_object(self, cache):
        r1 = compile_source(SRC, cache=cache)
        other = ArtifactCache(cache.root)
        r2 = compile_source(SRC, cache=other)
        assert other.stats.hits == 1 and other.stats.memory_hits == 0
        assert r2.report.original_variable_count == (
            r1.report.original_variable_count
        )
        assert r2.run_mat2c().output == r1.run_mat2c().output

    def test_source_edit_misses(self, cache):
        compile_source(SRC, cache=cache)
        compile_source(SRC + "disp(9);\n", cache=cache)
        assert cache.stats.misses == 2
        assert len(cache.entries()) == 2

    def test_option_change_misses(self, cache):
        compile_source(SRC, cache=cache)
        compile_source(
            SRC,
            options=CompilerOptions(gctd=GCTDOptions(enabled=False)),
            cache=cache,
        )
        assert cache.stats.misses == 2

    def test_pipeline_version_bump_misses(self, cache):
        compile_source(SRC, cache=cache)
        bumped = ArtifactCache(
            cache.root, pipeline_version=PIPELINE_VERSION + "-next"
        )
        compile_source(SRC, cache=bumped)
        assert bumped.stats.misses == 1 and bumped.stats.stores == 1

    def test_entry_layout(self, cache):
        compile_source(SRC, cache=cache)
        (fp,) = cache.entries()
        directory = cache.object_dir(fp)
        names = sorted(p.name for p in directory.iterdir())
        assert names == ["meta.json", "plan"]
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["fingerprint"] == fp
        assert meta["pipeline_version"] == PIPELINE_VERSION
        assert set(meta["checksums"]) == {"plan"}

    def test_entry_with_report_and_c_source_still_loads(self, cache):
        """An entry written with report/c_source payloads (and their
        checksums) beside the plan is still served; the extra files
        are ignored."""
        result = compile_source(SRC, cache=cache)
        (fp,) = cache.entries()
        directory = cache.object_dir(fp)
        extras = {
            "report": b"variables subsumed: 1\n",
            "c_source": result.generate_c().encode("utf-8"),
        }
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        for name, data in extras.items():
            (directory / name).write_bytes(data)
            meta["checksums"][name] = hashlib.sha256(data).hexdigest()
        meta_path.write_text(json.dumps(meta))
        fresh = ArtifactCache(cache.root)
        loaded = fresh.load(fp)
        assert loaded is not None
        assert fresh.stats.hits == 1 and fresh.stats.quarantined == 0
        assert loaded.run_mat2c().output == "32\n"


class TestInvalidation:
    def test_invalidate_one(self, cache):
        compile_source(SRC, cache=cache)
        (fp,) = cache.entries()
        assert cache.invalidate(fp)
        assert cache.entries() == []
        assert cache.load(fp) is None
        assert not cache.invalidate(fp)  # already gone

    def test_clear(self, cache):
        compile_source(SRC, cache=cache)
        compile_source(SRC + "disp(2);\n", cache=cache)
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_lru_eviction_keeps_disk(self, tmp_path):
        small = ArtifactCache(tmp_path, max_memory_entries=1)
        compile_source(SRC, cache=small)
        compile_source(SRC + "disp(2);\n", cache=small)
        assert len(small._memory) == 1  # first entry evicted
        # evicted entry still answers from disk
        compile_source(SRC, cache=small)
        assert small.stats.hits == 1 and small.stats.memory_hits == 0


class TestCorruptionRecovery:
    def test_truncated_plan_falls_back_and_repairs(self, cache):
        compile_source(SRC, cache=cache)
        (fp,) = cache.entries()
        (cache.object_dir(fp) / "plan").write_bytes(b"not a pickle")
        fresh = ArtifactCache(cache.root)
        result = compile_source(SRC, cache=fresh)  # recompiles
        assert result is not None
        assert fresh.stats.repairs == 1
        assert fresh.stats.misses == 1 and fresh.stats.stores == 1
        # the store repaired the entry: next load hits from disk
        again = ArtifactCache(cache.root)
        assert again.load(fp) is not None
        assert again.stats.hits == 1

    def test_missing_meta_is_a_repairable_miss(self, cache):
        compile_source(SRC, cache=cache)
        (fp,) = cache.entries()
        (cache.object_dir(fp) / "meta.json").unlink()
        fresh = ArtifactCache(cache.root)
        assert fresh.load(fp) is None
        assert fresh.stats.repairs == 1
        assert not cache.object_dir(fp).exists()


def _compile_into(root: str) -> None:
    cache = ArtifactCache(root)
    result = compile_source(SRC, cache=cache)
    assert result.run_mat2c().output == "32\n"


class TestConcurrentWriters:
    def test_two_workers_same_program(self, tmp_path):
        """Racing writers of one fingerprint leave one valid entry."""
        root = str(tmp_path / "cache")
        workers = [
            multiprocessing.Process(target=_compile_into, args=(root,))
            for _ in range(2)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert all(w.exitcode == 0 for w in workers)
        cache = ArtifactCache(root)
        assert len(cache.entries()) == 1
        (fp,) = cache.entries()
        result = cache.load(fp)
        assert result is not None and cache.stats.repairs == 0
        assert result.run_mat2c().output == "32\n"


class TestBinaryCache:
    def test_compiled_binary_reused(self, tmp_path):
        from repro.backend.cc import compile_and_run, find_compiler

        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        c_source = (
            "#include <stdio.h>\n"
            "int main(void) { printf(\"7\\n\"); return 0; }\n"
        )
        first = compile_and_run(c_source, cache_dir=tmp_path)
        assert first.stdout == "7\n" and not first.cached
        second = compile_and_run(c_source, cache_dir=tmp_path)
        assert second.stdout == "7\n" and second.cached

    def test_source_change_rebuilds(self, tmp_path):
        from repro.backend.cc import compile_and_run, find_compiler

        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        a = "#include <stdio.h>\nint main(void){printf(\"1\");return 0;}\n"
        b = "#include <stdio.h>\nint main(void){printf(\"2\");return 0;}\n"
        compile_and_run(a, cache_dir=tmp_path)
        other = compile_and_run(b, cache_dir=tmp_path)
        assert other.stdout == "2" and not other.cached
