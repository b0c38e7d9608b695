"""Regeneration of every table and figure in the paper's evaluation.

One :func:`_measure` per benchmark produces everything the paper
reports: the program compiled with and without GCTD, evaluated once on
the VM priced by three meters (mat2c, mat2c without GCTD, mcc), and
run under the interpreter.  :func:`collect_all` is the one sweep over
the suite; the ``table*_rows``/``fig*_rows`` functions then slice its
records into the exact rows/series of Tables 1–2 and Figures 2–6.
``format_rows`` renders the same ASCII layout the harness prints.

Records are memoized per process (the full suite takes tens of
seconds), so the per-figure benchmark files share one sweep.  Nothing
measured is cached on disk: compiles may come from the artifact cache,
but every run is measured again, so the figures always reflect the
executor and cost-model code in the checkout.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pickle import PicklingError

from repro.bench.suite import (
    BENCHMARK_NAMES,
    SUITE,
    count_lines,
    load_sources,
)
from repro.compiler.pipeline import CompilerOptions, compile_program
from repro.core.gctd import GCTDOptions
from repro.mccsim.executor import MccMeter
from repro.runtime.builtins import RuntimeContext
from repro.vm.executor import Mat2CMeter

_SEED = 20030609


@dataclass(slots=True)
class BenchRecord:
    """Everything measured for one benchmark."""

    name: str
    compilation: object
    mat2c: object            # ExecutionResult (GCTD on)
    mcc: object              # ExecutionResult (mcc model)
    interp: object           # InterpResult
    mat2c_nogctd: object     # ExecutionResult (GCTD off)

    @property
    def speedup_vs_mcc(self) -> float:
        return (
            self.mcc.report.execution_seconds
            / self.mat2c.report.execution_seconds
        )

    @property
    def gctd_speedup(self) -> float:
        return (
            self.mat2c_nogctd.report.execution_seconds
            / self.mat2c.report.execution_seconds
        )


_RECORDS: dict[str, BenchRecord] = {}


def _nogctd_options() -> CompilerOptions:
    return CompilerOptions(gctd=GCTDOptions(enabled=False))


def _measure(
    name: str, cache_root: str | None = None, trace: bool = False
) -> tuple[BenchRecord | None, dict]:
    """Compile one benchmark with and without GCTD, measure four models.

    The VM evaluates the program once, priced by the mat2c meter under
    each plan and by the mcc meter (GCTD options do not change the
    executable IR), and the interpreter runs it as the oracle.

    Compiles go through the artifact cache at ``cache_root`` when one
    is given.  Returns ``(record, info)``: ``info`` carries timings,
    the cache verdict and (with ``trace``) the pass telemetry.  A
    failure stays per-benchmark: ``record`` is None and ``info`` names
    the error, so one broken program does not sink the sweep.  This is
    the pool entry point of :func:`collect_all` (so it stays top-level).
    """
    from repro.service.cache import ArtifactCache
    from repro.service.telemetry import Tracer

    cache = ArtifactCache(cache_root) if cache_root else None
    tracer = Tracer(label=name) if trace else None
    info: dict = {"name": name, "cache_hit": False}
    try:
        sources = load_sources(name)
        entry = f"{name}_drv"
        start = time.perf_counter()
        on = compile_program(
            sources, entry, CompilerOptions(), tracer=tracer, cache=cache
        )
        off = compile_program(
            sources, entry, _nogctd_options(), tracer=tracer, cache=cache
        )
        compiled = time.perf_counter()
        mat2c, mat2c_nogctd, mcc = on.run_meters(
            [
                Mat2CMeter(on.exec_func, on.plan),
                Mat2CMeter(on.exec_func, off.plan),
                MccMeter(on.exec_func),
            ],
            RuntimeContext(seed=_SEED),
        )
        record = BenchRecord(
            name=name,
            compilation=on,
            mat2c=mat2c,
            mcc=mcc,
            interp=on.run_interpreter(RuntimeContext(seed=_SEED)),
            mat2c_nogctd=mat2c_nogctd,
        )
        if mat2c.output != record.interp.output:
            raise AssertionError("VM and interpreter outputs disagree")
        info["compile_seconds"] = compiled - start
        info["measure_seconds"] = time.perf_counter() - compiled
        info["executors"] = {
            model: getattr(record, model).report.execution_seconds
            for model in ("mat2c", "mcc", "interp", "mat2c_nogctd")
        }
    except Exception as exc:
        record = None
        info["error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        info["cache_hit"] = tracer.cache_hits > 0
        info["traces"] = [tracer.to_dict()]
    return record, info


def collect(name: str) -> BenchRecord:
    """Measure one benchmark, memoized per process."""
    record = _RECORDS.get(name)
    if record is None:
        record, info = _measure(name)
        if record is None:
            raise AssertionError(f"{name}: {info['error']}")
        _RECORDS[name] = record
    return record


#: Exception types that indicate the *pool* (not the measured call)
#: failed and the sweep should fall back to serial execution.
_POOL_FAILURES = (
    BrokenProcessPool,
    PicklingError,
    AttributeError,
    ImportError,
    OSError,
)


def effective_jobs(jobs: int | None, pending: int) -> int:
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, pending))


def parallel_map(func, items, jobs: int | None = None):
    """``map`` over a process pool, degrading to serial on pool failure.

    Returns ``(results, executor_label)``.  ``func`` must be a
    module-level (picklable) callable; exceptions raised by ``func``
    itself propagate — only pool-infrastructure failures trigger the
    serial fallback.
    """
    items = list(items)
    jobs = effective_jobs(jobs, len(items))
    if jobs <= 1 or len(items) <= 1:
        return [func(item) for item in items], "serial"
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(func, items)), "pool"
    except _POOL_FAILURES as exc:
        results = [func(item) for item in items]
        return results, f"serial (pool failed: {type(exc).__name__})"


def collect_all(
    jobs: int | None = None,
    cache_root: str | None = None,
    trace: bool = False,
):
    """Measure the whole suite: the one sweep behind every figure.

    Fans :func:`_measure` out over a process pool (``jobs=1`` runs
    serially; a pool that cannot start degrades to serial).  Results
    are deterministic either way — every model run is seeded.  The
    records it measured replace the per-process memo, so the
    ``table*_rows``/``fig*_rows`` functions read this sweep.

    Returns ``(records, infos, executor_label)``: ``infos`` has one
    entry per benchmark, in suite order, and a failed benchmark has an
    ``"error"`` there and no record.
    """
    outcomes, executor = parallel_map(
        partial(_measure, cache_root=cache_root, trace=trace),
        BENCHMARK_NAMES,
        jobs,
    )
    records = {info["name"]: record for record, info in outcomes if record}
    _RECORDS.update(records)
    infos = [info for _record, info in outcomes]
    return records, infos, executor


# --------------------------------------------------------------------------
# Table 1 — benchmark suite description
# --------------------------------------------------------------------------


def table1_rows() -> list[dict]:
    rows = []
    for name in BENCHMARK_NAMES:
        info = SUITE[name]
        sources = load_sources(name)
        rows.append(
            {
                "benchmark": name,
                "synopsis": info.synopsis,
                "origin": info.origin,
                "m_files": len(sources),
                "lines": count_lines(sources),
                "3d": "yes" if info.three_dimensional else "",
            }
        )
    return rows


# --------------------------------------------------------------------------
# Table 2 — array storage coalescing reductions
# --------------------------------------------------------------------------


def table2_rows() -> list[dict]:
    rows = []
    for name in BENCHMARK_NAMES:
        stats = collect(name).compilation.report
        paper_s, paper_d = SUITE[name].paper_reduction
        rows.append(
            {
                "benchmark": name,
                "static/dynamic reduction": (
                    f"{stats.static_subsumed}/{stats.dynamic_subsumed}"
                ),
                "original variable count": stats.original_variable_count,
                "storage reduction (KB)": round(
                    stats.storage_reduction_kb, 2
                ),
                "paper s/d": f"{paper_s}/{paper_d}",
                "paper KB": SUITE[name].paper_storage_kb,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Figure 2 — average stack and stack+heap levels (+ kcore-min)
# --------------------------------------------------------------------------


def fig2_rows() -> list[dict]:
    rows = []
    for name in BENCHMARK_NAMES:
        record = collect(name)
        m, c = record.mat2c.report, record.mcc.report
        reduction = (
            (c.avg_dynamic_kb - m.avg_dynamic_kb) / m.avg_dynamic_kb * 100
            if m.avg_dynamic_kb > 0
            else 0.0
        )
        rows.append(
            {
                "benchmark": name,
                "mat2c stack (KB)": round(m.avg_stack_kb, 1),
                "mcc stack (KB)": round(c.avg_stack_kb, 1),
                "mat2c stack+heap (KB)": round(m.avg_dynamic_kb, 1),
                "mcc stack+heap (KB)": round(c.avg_dynamic_kb, 1),
                "dynamic reduction %": round(reduction, 1),
                "mat2c kcore-min": f"{m.kcore_min:.3g}",
                "mcc kcore-min": f"{c.kcore_min:.3g}",
            }
        )
    return rows


# --------------------------------------------------------------------------
# Figure 3 — average virtual-memory levels
# --------------------------------------------------------------------------


def fig3_rows() -> list[dict]:
    rows = []
    for name in BENCHMARK_NAMES:
        record = collect(name)
        m, c = record.mat2c.report, record.mcc.report
        saving = (
            (c.avg_virtual_kb - m.avg_virtual_kb) / m.avg_virtual_kb * 100
            if m.avg_virtual_kb
            else 0.0
        )
        rows.append(
            {
                "benchmark": name,
                "mat2c VM (KB)": round(m.avg_virtual_kb, 1),
                "mcc VM (KB)": round(c.avg_virtual_kb, 1),
                "VM saving %": round(saving, 1),
            }
        )
    return rows


# --------------------------------------------------------------------------
# Figure 4 — average resident-set sizes
# --------------------------------------------------------------------------


def fig4_rows() -> list[dict]:
    rows = []
    for name in BENCHMARK_NAMES:
        record = collect(name)
        m, c = record.mat2c.report, record.mcc.report
        saving = (
            (c.avg_resident_kb - m.avg_resident_kb)
            / m.avg_resident_kb
            * 100
            if m.avg_resident_kb
            else 0.0
        )
        rows.append(
            {
                "benchmark": name,
                "mat2c RSS (KB)": round(m.avg_resident_kb, 1),
                "mcc RSS (KB)": round(c.avg_resident_kb, 1),
                "RSS saving %": round(saving, 1),
            }
        )
    return rows


# --------------------------------------------------------------------------
# Figure 5 — comparative execution times (mcc / mat2c / interpreter)
# --------------------------------------------------------------------------


def fig5_rows() -> list[dict]:
    rows = []
    for name in BENCHMARK_NAMES:
        record = collect(name)
        rows.append(
            {
                "benchmark": name,
                "mat2c (s)": f"{record.mat2c.report.execution_seconds:.4g}",
                "mcc (s)": f"{record.mcc.report.execution_seconds:.4g}",
                "intrp (s)": f"{record.interp.report.execution_seconds:.4g}",
                "speedup over mcc": round(record.speedup_vs_mcc, 1),
                "paper speedup": SUITE[name].paper_speedup,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Figure 6 — effect of the GCTD pass on execution times
# --------------------------------------------------------------------------


def fig6_rows() -> list[dict]:
    rows = []
    for name in BENCHMARK_NAMES:
        record = collect(name)
        rows.append(
            {
                "benchmark": name,
                "with GCTD (s)": (
                    f"{record.mat2c.report.execution_seconds:.4g}"
                ),
                "without GCTD (s)": (
                    f"{record.mat2c_nogctd.report.execution_seconds:.4g}"
                ),
                "relative speedup": round(record.gctd_speedup, 2),
                "dynamic KB with": round(
                    record.mat2c.report.avg_dynamic_kb, 1
                ),
                "dynamic KB without": round(
                    record.mat2c_nogctd.report.avg_dynamic_kb, 1
                ),
            }
        )
    return rows


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def format_rows(title: str, rows: list[dict]) -> str:
    if not rows:
        return f"{title}\n(no data)\n"
    headers = list(rows[0])
    widths = {
        h: max(len(str(h)), *(len(str(r[h])) for r in rows))
        for h in headers
    }
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(widths[h]) for h in headers))
    for row in rows:
        lines.append(
            "  ".join(str(row[h]).ljust(widths[h]) for h in headers)
        )
    return "\n".join(lines) + "\n"


def run_all_experiments() -> str:
    """Regenerate every table and figure; returns the full report.

    Reads the per-process memo, so it prints what :func:`collect_all`
    just measured (and measures any benchmark missing from it).
    """
    sections = [
        format_rows("Table 1: Benchmark Suite Description", table1_rows()),
        format_rows(
            "Table 2: Array Storage Coalescing Reductions", table2_rows()
        ),
        format_rows(
            "Figure 2: Average Stack and Stack+Heap Levels", fig2_rows()
        ),
        format_rows("Figure 3: Average Virtual Memory Levels", fig3_rows()),
        format_rows("Figure 4: Average Resident Set Levels", fig4_rows()),
        format_rows("Figure 5: Comparative Execution Times", fig5_rows()),
        format_rows(
            "Figure 6: Effect of Coalescing on Execution Times", fig6_rows()
        ),
    ]
    return "\n".join(sections)
