"""Workload ``suite-run``: the paper's evaluation matrix, serially.

For each of the 11 suite programs: compile twice (GCTD on and off, no
cache), then run mat2c, mcc, the interpreter and mat2c without GCTD
with the paper's runtime seed.  Executors do nearly all of the work;
the compiler passes are a few percent.  The programs and their runtime
seed are fixed, so ``--seed`` does not change this workload's inputs.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from common import SUITE_SEED, BenchError, OpLog, PassTracer, Spans, compile_metrics
from golden import (
    MODELS,
    check_against,
    check_oracle,
    load_golden,
    program_record,
    self_check,
)

#: model -> per-layer span name
MODEL_SPANS = {
    "mat2c": "vm.mat2c",
    "mcc": "mccsim.mcc",
    "interp": "interp.interp",
    "mat2c_nogctd": "vm.mat2c_nogctd",
}


def load_suite() -> list[tuple[str, dict]]:
    from repro.bench.suite import BENCHMARK_NAMES, load_sources

    return [(name, load_sources(name)) for name in BENCHMARK_NAMES]


def compile_pair(name: str, sources: dict, tracer=None, latencies=None):
    """Compile with GCTD on and off, bypassing any cache."""
    from repro.compiler.pipeline import CompilerOptions, compile_program
    from repro.core.gctd import GCTDOptions

    results = []
    for options in (CompilerOptions(), CompilerOptions(gctd=GCTDOptions(enabled=False))):
        start = time.perf_counter()
        with tracer.compile(name) if tracer else nullcontext():
            results.append(
                compile_program(sources, f"{name}_drv", options, tracer=tracer)
            )
        if latencies is not None:
            latencies.append(time.perf_counter() - start)
    return results


def run_models(on, off, spans: Spans | None = None, latencies=None) -> dict:
    """Run the four executors, each with a fresh seeded runtime."""
    from repro.runtime.builtins import RuntimeContext

    calls = {
        "mat2c": on.run_mat2c,
        "mcc": on.run_mcc,
        "interp": on.run_interpreter,
        "mat2c_nogctd": off.run_mat2c,
    }
    runs = {}
    for model in MODELS:
        start = time.perf_counter()
        if spans is None:
            runs[model] = calls[model](RuntimeContext(seed=SUITE_SEED))
        else:
            with spans.span(MODEL_SPANS[model]):
                runs[model] = calls[model](RuntimeContext(seed=SUITE_SEED))
        if latencies is not None:
            latencies.append(time.perf_counter() - start)
    return runs


class SuiteRun:
    name = "suite-run"
    tail_percentile = 75
    min_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.probe = None
        self.programs: list[tuple[str, dict]] = []
        self.golden: dict = {}
        self.records: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0

    def setup_once(self) -> None:
        """Source loading, the golden file and a warm-up of each layer."""
        self.programs = load_suite()
        self.golden = load_golden()
        name, sources = self.programs[0]
        on, off = compile_pair(name, sources)
        run_models(on, off)

    def run_pass(self, spans: Spans | None = None, tracer=None) -> list[float]:
        latencies = OpLog(self.probe)
        for name, sources in self.programs:
            before = len(latencies)
            with spans.span(f"suite.{name}") if spans else nullcontext():
                try:
                    on, off = compile_pair(name, sources, tracer, latencies)
                    runs = run_models(on, off, spans, latencies)
                except Exception as exc:
                    self.attempted += len(latencies) - before + 1
                    self.failed += 1
                    raise BenchError(f"{name}: {type(exc).__name__}: {exc}") from exc
            self.attempted += len(latencies) - before
            self.records[name] = (on, off, runs)
        return latencies

    def check(self) -> None:
        """Golden modelled results plus the interpreter oracle."""
        for name, (on, off, runs) in self.records.items():
            check_oracle(name, runs)
            check_against(self.golden, name, program_record(on, off, runs))
        name = next(iter(self.records))
        on, off, runs = self.records[name]
        self_check(self.golden, name, program_record(on, off, runs))

    def layer_metrics(self, spans: Spans, tracer: PassTracer) -> dict:
        metrics = compile_metrics(spans, tracer)
        for model, layer in MODEL_SPANS.items():
            metrics[f"{layer}_s"] = spans.total(layer)
        steps = {model: 0 for model in MODELS}
        for _on, _off, runs in self.records.values():
            for model in MODELS:
                steps[model] += runs[model].steps
        vm_steps = steps["mat2c"] + steps["mat2c_nogctd"]
        vm_time = metrics["vm.mat2c_s"] + metrics["vm.mat2c_nogctd_s"]
        metrics["vm.steps"] = vm_steps
        metrics["vm.steps_per_s"] = vm_steps / vm_time
        metrics["mccsim.steps"] = steps["mcc"]
        metrics["mccsim.steps_per_s"] = steps["mcc"] / metrics["mccsim.mcc_s"]
        metrics["interp.steps"] = steps["interp"]
        metrics["interp.steps_per_s"] = steps["interp"] / metrics["interp.interp_s"]
        for name, _sources in self.programs:
            metrics[f"suite.{name}_s"] = spans.total(f"suite.{name}")
        return metrics

    def close(self) -> None:
        pass
