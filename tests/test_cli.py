"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture
def mfile(tmp_path):
    path = tmp_path / "prog.m"
    path.write_text(
        "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"
    )
    return str(path)


class TestCompileCommand:
    def test_prints_statistics(self, mfile, capsys):
        assert main(["compile", mfile]) == 0
        out = capsys.readouterr().out
        assert "variables at GCTD" in out
        assert "storage reduction" in out

    def test_verbose_lists_groups(self, mfile, capsys):
        main(["compile", "-v", mfile])
        out = capsys.readouterr().out
        assert "group" in out
        assert "stack" in out

    def test_no_gctd_flag(self, mfile, capsys):
        main(["compile", "--no-gctd", mfile])
        out = capsys.readouterr().out
        assert "subsumed (s/d)        : 0/0" in out


class TestRunCommand:
    def test_default_model_output(self, mfile, capsys):
        assert main(["run", mfile]) == 0
        assert capsys.readouterr().out == "32\n"

    @pytest.mark.parametrize("model", ["mat2c", "mcc", "interp"])
    def test_all_models(self, mfile, model, capsys):
        main(["run", "--model", model, mfile])
        assert capsys.readouterr().out == "32\n"

    def test_stats_to_stderr(self, mfile, capsys):
        main(["run", "--stats", mfile])
        captured = capsys.readouterr()
        assert captured.out == "32\n"
        assert "avg stack+heap" in captured.err

    def test_multiple_files(self, tmp_path, capsys):
        (tmp_path / "drv.m").write_text("disp(helper(20));\n")
        (tmp_path / "helper.m").write_text(
            "function y = helper(x)\ny = x + 1;\n"
        )
        main(["run", str(tmp_path / "drv.m"), str(tmp_path / "helper.m")])
        assert capsys.readouterr().out == "21\n"


class TestEmitCCommand:
    def test_emits_c(self, mfile, capsys):
        assert main(["emit-c", mfile]) == 0
        out = capsys.readouterr().out
        assert "int main(void)" in out
        assert "rt_print" in out


class TestArgumentErrors:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestErrorExitCodes:
    def test_compile_bad_source_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "broken.m"
        bad.write_text("a = ones(4\n")  # unbalanced paren
        assert main(["compile", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err

    def test_compile_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path / "nope.m")]) == 1
        assert "repro: error:" in capsys.readouterr().err

    def test_bench_reports_failed_benchmarks(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.bench.experiments as experiments

        real_load_sources = experiments.load_sources

        def load_sources(name):
            if name == "clos":
                raise RuntimeError("boom")
            return real_load_sources(name)

        monkeypatch.setattr(experiments, "BENCHMARK_NAMES", ("clos", "diff"))
        monkeypatch.setattr(experiments, "load_sources", load_sources)
        code = main(
            [
                "bench",
                "--no-cache",
                "--jobs",
                "1",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "1 of 2 benchmark(s) failed" in captured.err
        assert "clos: RuntimeError: boom" in captured.err
        assert "Table 2" not in captured.out
        # The BENCH artifact still lands, recording the failure.
        bench_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1
        payload = json.loads(bench_files[0].read_text())
        by_name = {info["name"]: info for info in payload["benchmarks"]}
        assert by_name["clos"]["error"] == "RuntimeError: boom"
        assert "error" not in by_name["diff"]
        assert by_name["diff"]["executors"]["mat2c"] > 0
