"""Benchmark suite loading and execution (paper Tables 1–2, Figs 2–6)."""

from repro.bench.suite import (
    BENCHMARK_NAMES,
    BenchmarkInfo,
    MFILES_ROOT,
    SUITE,
    compile_benchmark,
    count_lines,
    load_sources,
)

__all__ = [
    "BENCHMARK_NAMES",
    "BenchmarkInfo",
    "MFILES_ROOT",
    "SUITE",
    "compile_benchmark",
    "count_lines",
    "load_sources",
]
