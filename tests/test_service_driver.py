"""Batch compilation and bench-sweep tests.

Many requests compile in one call through the server's ``/v1/batch``
(single-flight, cache reuse, per-item errors); the rest covers the
process-pool ``parallel_map`` behind
:func:`repro.bench.experiments.collect_all` and a warm sweep.
"""

import pytest

from repro.api import BatchRequest, CompileRequest
from repro.bench.experiments import effective_jobs, parallel_map
from repro.server import ServerClient, ServerConfig, ServerThread

SRC_A = "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"
SRC_B = "x = zeros(3); x(2, 2) = 5; disp(sum(sum(x)));\n"


def req(src=SRC_A, name="prog"):
    return CompileRequest({"prog.m": src}, name=name)


@pytest.fixture
def server(tmp_path):
    config = ServerConfig(
        port=0, workers=1, cache_root=str(tmp_path / "cache")
    )
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture
def client(server):
    return ServerClient(server.url, timeout=30.0)


def _square(value: int) -> int:
    return value * value


def _reject(value: int) -> int:
    raise ValueError(f"bad item {value}")


class TestCompileMany:
    def test_serial_batch(self, server, client):
        batch = client.batch(BatchRequest([req(SRC_A, "a"), req(SRC_B, "b")]))
        assert batch.payload["executor"] == "serial"
        items = batch.payload["items"]
        assert [item["name"] for item in items] == ["a", "b"]
        assert all(item["ok"] for item in items)
        result = server.server.cache.load(items[0]["fingerprint"])
        assert result.run_mat2c().output == "32\n"

    def test_single_flight_dedup(self, server, client):
        batch = client.batch(
            BatchRequest([req(SRC_A, "one"), req(SRC_A, "two")])
        )
        leader, follower = batch.payload["items"]
        assert not leader["deduped"] and follower["deduped"]
        assert follower["ok"] and "error" not in follower
        assert leader["fingerprint"] == follower["fingerprint"]
        # only the leader compiled: exactly one entry was stored
        assert len(server.server.cache.entries()) == 1

    def test_cache_round_trip(self, server, client):
        requests = BatchRequest([req(SRC_A), req(SRC_B, "b")])
        cold = client.batch(requests).payload
        assert cold["cache_hits"] == 0
        assert cold["executor"] == "serial"
        warm = client.batch(requests).payload
        assert warm["cache_hits"] == 2
        assert warm["executor"] == "cache"  # nothing was compiled
        assert all(item["cache_hit"] for item in warm["items"])
        assert all(item["ok"] for item in warm["items"])
        cache = server.server.cache
        assert all(
            cache.load(item["fingerprint"]) is not None
            for item in warm["items"]
        )

    def test_per_item_error_captured(self, client):
        batch = client.batch(
            BatchRequest(
                [req("this is ( not matlab", "bad"), req(SRC_A, "good")]
            )
        )
        assert batch.status == 200
        bad, good = batch.payload["items"]
        assert not bad["ok"] and bad["error"]
        assert good["ok"] and "error" not in good
        assert batch.payload["ok"] is False
        errors = [item for item in batch.payload["items"] if not item["ok"]]
        assert errors == [bad]


class TestDegradation:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import repro.bench.experiments as experiments

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("fork refused")

        monkeypatch.setattr(
            experiments, "ProcessPoolExecutor", ExplodingPool
        )
        results, executor = parallel_map(_square, [1, 2, 3], jobs=4)
        assert executor.startswith("serial (pool failed")
        assert results == [1, 4, 9]

    def test_compile_errors_do_not_trigger_fallback(self, monkeypatch):
        # an error raised by the mapped call propagates; it is not a
        # pool failure to paper over with a serial rerun
        with pytest.raises(ValueError, match="bad item"):
            parallel_map(_reject, [1, 2], jobs=2)


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
        for model in ("run_meters", "run_interpreter"):
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
        # one VM evaluation priced by mat2c, mcc and mat2c without
        # GCTD, plus the interpreter
        assert runs == ["run_meters", "run_interpreter"]
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert len(runs) == 4
        assert "1/1 cache hits" in warm.err
        assert "Figure 5" in warm.out
        assert warm.out == cold.out
