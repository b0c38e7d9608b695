"""The 11-program benchmark suite (paper Table 1).

Loads the M-files from ``examples/mfiles/`` and compiles them through
the full pipeline (:mod:`repro.bench.experiments` runs them).  The
table metadata mirrors the paper's Table 1; line counts are measured
from the actual sources (nonempty, noncomment lines, as the paper
counts them).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.compiler.pipeline import (
    CompilationResult,
    CompilerOptions,
    compile_program,
)

#: repo-root-relative location of the benchmark M-files
MFILES_ROOT = Path(__file__).resolve().parents[3] / "examples" / "mfiles"


@dataclass(frozen=True, slots=True)
class BenchmarkInfo:
    name: str
    synopsis: str
    origin: str
    three_dimensional: bool = False
    #: paper's Table 2 row: (static, dynamic) subsumed variable counts
    paper_reduction: tuple[int, int] = (0, 0)
    paper_storage_kb: float = 0.0
    #: paper's Figure 5 speedup of mat2c over mcc
    paper_speedup: float = 1.0


SUITE: dict[str, BenchmarkInfo] = {
    "adpt": BenchmarkInfo(
        "adpt",
        "Adaptive Quadrature by Simpson's Rule",
        "FALCON",
        paper_reduction=(127, 74),
        paper_storage_kb=0.96,
        paper_speedup=1.1,
    ),
    "capr": BenchmarkInfo(
        "capr",
        "Transmission Line Capacitance",
        "Chalmers University of Technology, Sweden",
        paper_reduction=(84, 75),
        paper_storage_kb=0.68,
        paper_speedup=2.1,
    ),
    "clos": BenchmarkInfo(
        "clos",
        "Transitive Closure",
        "OTTER",
        paper_reduction=(24, 0),
        paper_storage_kb=1216.14,
        paper_speedup=1.3,
    ),
    "crni": BenchmarkInfo(
        "crni",
        "Crank-Nicholson Heat Equation Solver",
        "FALCON",
        paper_reduction=(73, 0),
        paper_storage_kb=4055.85,
        paper_speedup=82.6,
    ),
    "diff": BenchmarkInfo(
        "diff",
        "Young's Two-Slit Diffraction Experiment",
        "The MathWorks Central File Exchange",
        paper_reduction=(48, 1),
        paper_storage_kb=12.77,
        paper_speedup=2.4,
    ),
    "dich": BenchmarkInfo(
        "dich",
        "Dirichlet Solution to Laplace's Equation",
        "FALCON",
        paper_reduction=(82, 0),
        paper_storage_kb=144.90,
        paper_speedup=257.9,
    ),
    "edit": BenchmarkInfo(
        "edit",
        "Edit Distance",
        "The MathWorks Central File Exchange",
        paper_reduction=(25, 21),
        paper_storage_kb=0.21,
        paper_speedup=6.2,
    ),
    "fdtd": BenchmarkInfo(
        "fdtd",
        "Finite Difference Time Domain (FDTD) Technique",
        "Chalmers University of Technology, Sweden",
        three_dimensional=True,
        paper_reduction=(111, 0),
        paper_storage_kb=4374.61,
        paper_speedup=2.5,
    ),
    "fiff": BenchmarkInfo(
        "fiff",
        "Finite-Difference Solution to the Wave Equation",
        "FALCON",
        paper_reduction=(51, 0),
        paper_storage_kb=12712.92,
        paper_speedup=91.1,
    ),
    "nb1d": BenchmarkInfo(
        "nb1d",
        "One-Dimensional N-Body Simulation",
        "OTTER",
        paper_reduction=(66, 63),
        paper_storage_kb=0.55,
        paper_speedup=11.4,
    ),
    "nb3d": BenchmarkInfo(
        "nb3d",
        "Three-Dimensional N-Body Simulation",
        "Modified nb1d",
        three_dimensional=True,
        paper_reduction=(58, 54),
        paper_storage_kb=0.59,
        paper_speedup=1.7,
    ),
}

BENCHMARK_NAMES = tuple(SUITE)


def load_sources(name: str) -> dict[str, str]:
    """Read a benchmark's M-files (driver first)."""
    directory = MFILES_ROOT / name
    if not directory.is_dir():
        raise FileNotFoundError(f"no benchmark directory {directory}")
    sources: dict[str, str] = {}
    driver = directory / f"{name}_drv.m"
    sources[driver.name] = driver.read_text()
    for path in sorted(directory.glob("*.m")):
        if path.name != driver.name:
            sources[path.name] = path.read_text()
    return sources


def count_lines(sources: dict[str, str]) -> int:
    """Nonempty, noncomment lines (the paper's Table 1 metric)."""
    total = 0
    for text in sources.values():
        for line in text.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                total += 1
    return total


def compile_benchmark(
    name: str, options: CompilerOptions | None = None
) -> CompilationResult:
    sources = load_sources(name)
    return compile_program(
        sources, entry=f"{name}_drv", options=options
    )

