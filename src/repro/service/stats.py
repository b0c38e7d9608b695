"""Rendering for ``python -m repro stats``.

Consumes the JSON dumped by the tracer (``repro compile --cache``
writes ``<cache>/telemetry/last.json``; ``repro bench`` writes
``BENCH_<timestamp>.json``) and renders per-pass and per-benchmark
tables.  Discovery order when no file is given: the newest
``BENCH_*.json`` in the working directory, then the cache's
``telemetry/last.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.compiler.reports import telemetry_table
from repro.service.cache import DEFAULT_CACHE_ROOT
from repro.service.telemetry import aggregate_passes

TELEMETRY_DIR = "telemetry"
LAST_TELEMETRY = "last.json"


def telemetry_path(cache_root: str | Path = DEFAULT_CACHE_ROOT) -> Path:
    return Path(cache_root) / TELEMETRY_DIR / LAST_TELEMETRY


def write_telemetry(
    payload: dict, cache_root: str | Path = DEFAULT_CACHE_ROOT
) -> Path:
    path = telemetry_path(cache_root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))
    return path


def find_latest_telemetry(
    directory: str | Path = ".",
    cache_root: str | Path = DEFAULT_CACHE_ROOT,
) -> Path | None:
    """Newest BENCH_*.json in ``directory``, else the cache's last trace."""
    candidates = sorted(
        Path(directory).glob("BENCH_*.json"),
        key=lambda p: p.stat().st_mtime,
    )
    if candidates:
        return candidates[-1].resolve()
    last = telemetry_path(cache_root)
    return last if last.is_file() else None


def _traces_of(payload: dict) -> list[dict]:
    """Pull every per-compile trace out of a telemetry payload."""
    if "passes" in payload:  # a bare Tracer.to_dict()
        return [payload]
    traces = []
    for bench in payload.get("benchmarks", ()):
        for trace in bench.get("traces", ()):
            traces.append(trace)
    return traces


def render_stats(payload: dict) -> str:
    """Human-readable view of a telemetry payload (single or batch)."""
    lines: list[str] = []
    benchmarks = payload.get("benchmarks")
    if benchmarks:
        lines.append("Benchmark batch")
        lines.append("---------------")
        header = (
            f"{'benchmark':<12}{'compile(s)':>11}{'measure(s)':>11}"
            f"{'cache':>7}"
        )
        lines.append(header)
        for bench in benchmarks:
            lines.append(
                f"{bench['name']:<12}"
                f"{bench.get('compile_seconds', 0.0):>11.3f}"
                f"{bench.get('measure_seconds', 0.0):>11.3f}"
                f"{'hit' if bench.get('cache_hit') else 'miss':>7}"
            )
        lines.append("")
        batch = payload.get("batch", {})
        if batch:
            lines.append(
                f"executor: {batch.get('executor', '?')} "
                f"(jobs={batch.get('jobs', '?')}), "
                f"batch wall {batch.get('wall_seconds', 0.0):.2f} s"
            )
        cache = payload.get("cache", {})
        if cache:
            lines.append(
                f"cache: {cache.get('hits', 0)} hits / "
                f"{cache.get('misses', 0)} misses, "
                f"{cache.get('entries', 0)} entries "
                f"(root {cache.get('root', '?')})"
            )
        lines.append(
            f"total wall time: {payload.get('wall_seconds', 0.0):.2f} s"
        )
        lines.append("")

    traces = _traces_of(payload)
    aggregated = aggregate_passes(traces)
    if aggregated:
        lines.append(telemetry_table(aggregated))
    elif not benchmarks:
        lines.append("(no pass telemetry recorded)")
    cache_hits = payload.get("cache_hits")
    if cache_hits is not None and "benchmarks" not in payload:
        lines.append(
            f"cache: {cache_hits} hits / "
            f"{payload.get('cache_misses', 0)} misses"
        )
    return "\n".join(lines).rstrip() + "\n"
