"""Telemetry tests: tracer spans, aggregation, stats rendering, CLI."""

import json

import pytest

from repro.__main__ import main
from repro.compiler.pipeline import compile_source
from repro.compiler.reports import telemetry_table
from repro.service.cache import ArtifactCache
from repro.service.telemetry import Tracer, aggregate_passes
from repro.service.stats import (
    find_latest_telemetry,
    render_stats,
    write_telemetry,
)

SRC = "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"


class TestTracer:
    def test_pipeline_pass_spans(self):
        tracer = Tracer(label="t")
        compile_source(SRC, tracer=tracer)
        names = [p.name for p in tracer.passes]
        assert names[:5] == ["parse", "lower", "ssa", "cleanup", "infer"]
        assert "gctd" in names and names[-1] == "invert"
        assert all(p.wall_seconds >= 0 for p in tracer.passes)

    def test_ir_instruction_counts_recorded(self):
        tracer = Tracer()
        compile_source(SRC, tracer=tracer)
        by_name = {p.name: p for p in tracer.passes}
        assert by_name["ssa"].instructions > 0
        assert by_name["parse"].instructions is None  # no IR yet

    def test_gctd_details(self):
        tracer = Tracer()
        compile_source(SRC, tracer=tracer)
        gctd = next(p for p in tracer.passes if p.name == "gctd")
        assert gctd.details["interference_nodes"] >= 1
        assert gctd.details["colors"] >= 1
        assert "interference_edges" in gctd.details

    def test_cache_events(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        tracer = Tracer()
        compile_source(SRC, tracer=tracer, cache=cache)
        assert tracer.cache_misses == 1 and tracer.cache_hits == 0
        compile_source(SRC, tracer=tracer, cache=cache)
        assert tracer.cache_hits == 1

    def test_to_json_round_trips(self):
        tracer = Tracer(label="x")
        compile_source(SRC, tracer=tracer)
        payload = json.loads(tracer.to_json())
        assert payload["label"] == "x"
        assert payload["total_wall_seconds"] > 0
        assert len(payload["passes"]) == len(tracer.passes)

    def test_tracer_off_is_default(self):
        # no tracer: the pipeline must not require one
        result = compile_source(SRC)
        assert result.run_mat2c().output == "32\n"


class TestAggregation:
    def test_aggregate_passes_merges_and_orders(self):
        t1, t2 = Tracer(), Tracer()
        compile_source(SRC, tracer=t1)
        compile_source(SRC + "disp(1);\n", tracer=t2)
        rows = aggregate_passes([t1.to_dict(), t2.to_dict()])
        assert rows[0]["name"] == "parse" and rows[0]["calls"] == 2
        cleanup = next(r for r in rows if r["name"] == "cleanup")
        assert cleanup["instructions"] > 0

    def test_telemetry_table_renders(self):
        tracer = Tracer()
        compile_source(SRC, tracer=tracer)
        table = telemetry_table(aggregate_passes([tracer.to_dict()]))
        assert "pass" in table and "gctd" in table and "total" in table

    def test_empty_table(self):
        assert "no pass telemetry" in telemetry_table([])


class TestStatsRendering:
    def test_render_single_trace(self):
        tracer = Tracer()
        compile_source(SRC, tracer=tracer)
        text = render_stats(tracer.to_dict())
        assert "gctd" in text

    def test_render_batch_payload(self):
        payload = {
            "wall_seconds": 1.5,
            "batch": {"executor": "pool", "jobs": 4, "wall_seconds": 1.5},
            "cache": {"root": "/c", "hits": 2, "misses": 1, "entries": 3},
            "benchmarks": [
                {
                    "name": "edit",
                    "compile_seconds": 0.2,
                    "measure_seconds": 0.9,
                    "cache_hit": True,
                    "traces": [],
                }
            ],
        }
        text = render_stats(payload)
        assert "edit" in text and "pool" in text
        assert "2 hits" in text

    def test_write_and_find_latest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert find_latest_telemetry(cache_root="nope") is None
        path = write_telemetry({"passes": []}, tmp_path / "cache")
        assert path.is_file()
        found = find_latest_telemetry(cache_root=tmp_path / "cache")
        assert found == path
        # a BENCH file in cwd wins over the cache's last.json
        bench = tmp_path / "BENCH_20990101-000000.json"
        bench.write_text("{}")
        assert (
            find_latest_telemetry(cache_root=tmp_path / "cache") == bench
        )


class TestStatsCommand:
    def test_stats_no_telemetry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["stats", "--cache-dir", str(tmp_path / "c")]) == 1
        assert "no telemetry" in capsys.readouterr().err

    def test_stats_renders_file(self, tmp_path, capsys):
        tracer = Tracer()
        compile_source(SRC, tracer=tracer)
        path = tmp_path / "trace.json"
        path.write_text(tracer.to_json())
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gctd" in out and str(path) in out

    def test_compile_cache_writes_telemetry(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        prog = tmp_path / "prog.m"
        prog.write_text(SRC)
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                ["compile", "--cache", "--cache-dir", cache_dir,
                 "--trace", str(prog)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "artifact cache        : miss" in out
        assert "gctd" in out  # the --trace table
        assert main(["stats", "--cache-dir", cache_dir]) == 0
        # second compile hits
        main(["compile", "--cache", "--cache-dir", cache_dir, str(prog)])
        assert "artifact cache        : hit" in capsys.readouterr().out


class TestBenchCommand:
    @pytest.fixture
    def single_benchmark(self, monkeypatch):
        import repro.bench.experiments as experiments

        monkeypatch.setattr(experiments, "BENCHMARK_NAMES", ("edit",))

    def test_bench_writes_json_and_hits_cache(
        self, tmp_path, monkeypatch, capsys, single_benchmark
    ):
        monkeypatch.chdir(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert (
            main(["bench", "--cache-dir", cache_dir, "--jobs", "1"]) == 0
        )
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        bench_files = sorted(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1
        payload = json.loads(bench_files[0].read_text())
        assert payload["cache"]["hits"] == 0
        assert payload["benchmarks"][0]["name"] == "edit"
        assert payload["benchmarks"][0]["executors"]["mat2c"] > 0
        assert payload["benchmarks"][0]["traces"][0]["passes"]

        # warm re-run compiles from the cache, reports the hit, and
        # still measures every model
        assert (
            main(["bench", "--cache-dir", cache_dir, "--jobs", "1"]) == 0
        )
        capsys.readouterr()
        bench_files = sorted(tmp_path.glob("BENCH_*.json"))
        payload2 = json.loads(bench_files[-1].read_text())
        assert payload2["cache"]["hits"] == 1
        assert payload2["benchmarks"][0]["executors"]["mat2c"] > 0

        # and `repro stats` picks the newest BENCH file up
        assert main(["stats"]) == 0
        assert "edit" in capsys.readouterr().out
