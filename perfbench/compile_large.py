"""Workload ``compile-large``: the compiler alone, on growing programs.

One pass compiles the 11 suite programs once and a seeded set of
generated programs of 100 to 800 statements, GCTD on, no cache and no
execution.  GCTD's super-linear cost shows here; the executors are
bypassed.  Outputs are checked after the timed passes: each generated
program prints the same under mat2c as under the interpreter and its
plan verifies clean; each suite plan matches the golden file.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from common import (
    BenchError,
    OpLog,
    PassTracer,
    Spans,
    compile_metrics,
    scaling_table,
)
from genprog import program_sources
from golden import load_golden, plan_record

#: statement counts of the generated programs in one pass
SIZES = (100, 200, 400, 800)


class CompileLarge:
    name = "compile-large"
    tail_percentile = 75
    min_passes = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.probe = None
        self.programs: list[tuple[str, dict, str]] = []
        self.golden: dict = {}
        self.results: dict = {}
        self.attempted = 0
        self.failed = 0

    def setup_once(self) -> None:
        """Source loading, program generation and a warm-up compile."""
        from repro.bench.suite import BENCHMARK_NAMES, load_sources
        from repro.compiler.pipeline import compile_program

        self.golden = load_golden()
        self.programs = [
            (name, load_sources(name), f"{name}_drv") for name in BENCHMARK_NAMES
        ]
        for size in SIZES:
            sources, entry = program_sources(self.seed, size)
            self.programs.append((f"gen{size}", sources, entry))
        sources, entry = program_sources(self.seed, 20)
        compile_program(sources, entry)

    def run_pass(self, spans: Spans | None = None, tracer=None) -> list[float]:
        from repro.compiler.pipeline import CompilerOptions, compile_program

        latencies = OpLog(self.probe)
        for name, sources, entry in self.programs:
            self.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.compile(name) if tracer else nullcontext():
                    result = compile_program(
                        sources, entry, CompilerOptions(), tracer=tracer
                    )
            except Exception as exc:
                self.failed += 1
                raise BenchError(f"{name}: {type(exc).__name__}: {exc}") from exc
            latencies.append(time.perf_counter() - start)
            self.results[name] = result
        return latencies

    def check(self) -> None:
        from repro.runtime.builtins import RuntimeContext
        from repro.verify import verify_compilation

        for name, result in self.results.items():
            if not name.startswith("gen"):
                expected = self.golden["programs"][name]["plans"]["gctd"]
                if plan_record(result) != expected:
                    raise BenchError(
                        f"{name}: plan {plan_record(result)} differs from "
                        f"golden {expected}"
                    )
                continue
            report = verify_compilation(result)
            if not report.ok:
                raise BenchError(
                    f"{name} (seed {self.seed}): plan verification failed: "
                    f"{report.violations[0].message}"
                )
            compiled = result.run_mat2c(RuntimeContext(seed=self.seed)).output
            oracle = result.run_interpreter(RuntimeContext(seed=self.seed)).output
            if compiled != oracle:
                raise BenchError(
                    f"{name} (seed {self.seed}): mat2c output differs from "
                    f"the interpreter oracle"
                )
            if "nan" in oracle.lower() or "inf" in oracle.lower():
                raise BenchError(f"{name} (seed {self.seed}): non-finite output")

    def layer_metrics(self, spans: Spans, tracer: PassTracer) -> dict:
        print("per-pass seconds against IR size (traced pass):")
        print(scaling_table(tracer))
        return compile_metrics(spans, tracer)

    def close(self) -> None:
        pass
