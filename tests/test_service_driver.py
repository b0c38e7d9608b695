"""Batch-driver tests: single-flight, cache reuse, pool degradation."""

import pytest

from repro.compiler.pipeline import CompilerOptions
from repro.core.gctd import GCTDOptions
from repro.service.cache import ArtifactCache
from repro.service.driver import (
    CompileRequest,
    compile_many,
    effective_jobs,
    parallel_map,
)

SRC_A = "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"
SRC_B = "x = zeros(3); x(2, 2) = 5; disp(sum(sum(x)));\n"


def req(src=SRC_A, name="prog", options=None):
    return CompileRequest(
        {"prog.m": src}, options=options, name=name
    )


class TestCompileMany:
    def test_serial_batch(self):
        batch = compile_many([req(SRC_A, "a"), req(SRC_B, "b")], jobs=1)
        assert batch.executor == "serial"
        assert [item.name for item in batch.items] == ["a", "b"]
        assert all(item.result is not None for item in batch.items)
        assert batch.items[0].result.run_mat2c().output == "32\n"

    def test_request_order_preserved(self):
        batch = compile_many(
            [req(SRC_B, "b"), req(SRC_A, "a")], jobs=1
        )
        assert [item.name for item in batch.items] == ["b", "a"]

    def test_single_flight_dedup(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        batch = compile_many(
            [req(SRC_A, "one"), req(SRC_A, "two")], jobs=2, cache=cache
        )
        leader, follower = batch.items
        assert not leader.deduped and follower.deduped
        assert follower.result is leader.result
        assert leader.fingerprint == follower.fingerprint
        # only the leader compiled: exactly one entry was stored
        assert len(cache.entries()) == 1

    def test_distinct_options_not_deduped(self):
        nogctd = CompilerOptions(gctd=GCTDOptions(enabled=False))
        batch = compile_many(
            [req(SRC_A, "on"), req(SRC_A, "off", options=nogctd)],
            jobs=1,
        )
        assert not batch.items[1].deduped
        assert (
            batch.items[0].fingerprint != batch.items[1].fingerprint
        )

    def test_cache_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = compile_many([req(SRC_A), req(SRC_B, "b")], cache=cache)
        assert cold.cache_hits == 0
        warm = compile_many([req(SRC_A), req(SRC_B, "b")], cache=cache)
        assert warm.cache_hits == 2
        assert warm.executor == "cache"  # nothing reached a worker
        assert all(item.result is not None for item in warm.items)

    def test_per_item_error_captured(self):
        batch = compile_many(
            [req("this is ( not matlab", "bad"), req(SRC_A, "good")],
            jobs=1,
        )
        bad, good = batch.items
        assert bad.error is not None and bad.result is None
        assert good.error is None and good.result is not None
        assert batch.errors == [bad]

    def test_trace_collected(self):
        batch = compile_many([req(SRC_A)], jobs=1, trace=True)
        trace = batch.items[0].trace
        assert trace is not None
        names = [p["name"] for p in trace["passes"]]
        assert names[0] == "parse" and "gctd" in names

    def test_pool_path(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        batch = compile_many(
            [req(SRC_A, "a"), req(SRC_B, "b")], jobs=2, cache=cache
        )
        assert batch.executor in ("pool", "serial")  # pool if it started
        assert all(item.result is not None for item in batch.items)
        # workers (or the serial fallback) persisted both artifacts
        assert len(cache.entries()) == 2


class TestDegradation:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import repro.service.driver as driver_mod

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("fork refused")

        monkeypatch.setattr(
            driver_mod, "ProcessPoolExecutor", ExplodingPool
        )
        batch = compile_many(
            [req(SRC_A, "a"), req(SRC_B, "b")], jobs=4
        )
        assert batch.executor.startswith("serial (pool failed")
        assert all(item.result is not None for item in batch.items)
        assert batch.items[0].result.run_mat2c().output == "32\n"

    def test_compile_errors_do_not_trigger_fallback(self, monkeypatch):
        # a broken program is a per-item error, not a pool failure
        batch = compile_many([req("x = (;", "bad")], jobs=4)
        assert batch.items[0].error is not None
        assert "pool failed" not in batch.executor


class TestParallelMapHelpers:
    def test_effective_jobs(self):
        assert effective_jobs(1, 10) == 1
        assert effective_jobs(8, 3) == 3
        assert effective_jobs(None, 5) >= 1
        assert effective_jobs(0, 5) >= 1

    def test_parallel_map_serial_for_single_item(self):
        results, executor = parallel_map(len, [[1, 2, 3]], jobs=8)
        assert results == [3] and executor == "serial"


class TestBenchSweep:
    def test_warm_bench_runs_the_executors_again(
        self, tmp_path, monkeypatch, capsys
    ):
        """A warm `repro bench` hits the compile cache but measures
        every model again, and prints the same tables."""
        import repro.bench.experiments as experiments
        from repro.__main__ import main
        from repro.compiler.pipeline import CompilationResult

        monkeypatch.setattr(experiments, "BENCHMARK_NAMES", ("clos",))
        runs = []
        for model in ("run_mat2c", "run_mcc", "run_interpreter"):
            real = getattr(CompilationResult, model)

            def counted(self, *args, _real=real, _model=model, **kwargs):
                runs.append(_model)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(CompilationResult, model, counted)
        argv = [
            "bench",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--output-dir",
            str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert len(runs) == 4  # mat2c, mcc, interp, mat2c without GCTD
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert len(runs) == 8
        assert "1/1 cache hits" in warm.err
        assert "Figure 5" in warm.out
        assert warm.out == cold.out
