"""Shared plumbing for the benchmark: paths, spans, statistics, stamps.

Every layer is timed from outside, around calls to its public
functions.  :class:`Spans` keeps those spans in memory for one run;
:class:`PassTracer` plugs into the ``tracer=`` hook of
``repro.compiler.pipeline.compile_program`` and records each compiler
pass as a span of its own.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MFILES = ROOT / "examples" / "mfiles"
#: working space of one run (server cache, logs); removed at exit
WORK_DIR = BENCH_DIR / ".work"

#: runtime seed of the paper's evaluation (``bench.experiments._SEED``)
SUITE_SEED = 20030609

#: compiler pass (span name in the pipeline) -> per-layer metric prefix
PASS_LAYERS = {
    "parse": "frontend.parse",
    "lower": "ir.lower",
    "ssa": "ssa.construct",
    "cleanup": "analysis.cleanup",
    "infer": "typing.infer",
    "shapefold": "typing.shapefold",
    "gctd": "core.gctd",
    "invert": "ssa.invert",
}


class BenchError(RuntimeError):
    """A failed operation or a wrong output; fails the run loudly."""


def bootstrap() -> None:
    """Put this checkout's ``src`` first on the import path.

    Refuses to run when the source tree is absent, so the benchmark
    never measures some other installed copy of the package.
    """
    if not (SRC / "repro" / "__init__.py").is_file() or not MFILES.is_dir():
        raise BenchError(
            f"no repro source tree next to the benchmark (looked for "
            f"{SRC / 'repro'} and {MFILES})"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------


class Spans:
    """In-memory span log: name, start, end and parent span index."""

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, int | None]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, parent = self.records[index]
            self.records[index] = (name, start, time.perf_counter(), parent)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.records if n == name)

    def self_time(self, name: str) -> float:
        """Span durations of ``name`` minus the time its children cover."""
        child_time: dict[int, float] = {}
        for _, start, end, parent in self.records:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        return sum(
            end - start - child_time.get(i, 0.0)
            for i, (n, start, end, _) in enumerate(self.records)
            if n == name
        )


class PassTracer:
    """The pipeline's tracer interface, recording into :class:`Spans`.

    Besides the span, each pass records its own details (colors, groups,
    edges) and GCTD also the IR instruction count it worked on.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.passes: list[tuple[str, float, int | None, dict]] = []
        #: (label, the passes of that compile)
        self.compiles: list[tuple[str, list]] = []

    @contextmanager
    def compile(self, label: str):
        """Span around one whole ``compile_program`` call."""
        first = len(self.passes)
        with self.spans.span("compile"):
            yield
        self.compiles.append((label, self.passes[first:]))

    @contextmanager
    def span(self, name: str, func=None):
        record = SimpleNamespace(details={})
        start = time.perf_counter()
        with self.spans.span(PASS_LAYERS.get(name, name)):
            yield record
        wall = time.perf_counter() - start
        count = None
        if name == "gctd" and func is not None:
            count = sum(1 for _ in func.instructions())
        self.passes.append((name, wall, count, record.details))

    def event(self, name: str, **details) -> None:
        pass


def compile_metrics(spans: Spans, tracer: PassTracer) -> dict:
    """Per-pass times and exact plan counts of the traced compiles."""
    metrics = {f"{layer}_s": spans.total(layer) for layer in PASS_LAYERS.values()}
    metrics["compile.unattributed_s"] = spans.self_time("compile")
    counts = dict.fromkeys(
        ("core.interference_edges", "core.colors", "core.groups", "ir.instructions"), 0
    )
    sizes, gctd_times = [], []
    for _label, passes in tracer.compiles:
        for name, wall, instructions, details in passes:
            if name != "gctd":
                continue
            counts["core.interference_edges"] += details["interference_edges"]
            counts["core.colors"] += details["colors"]
            counts["core.groups"] += details["groups"]
            counts["ir.instructions"] += instructions
            sizes.append(instructions)
            gctd_times.append(wall)
    metrics.update(counts)
    metrics["core.gctd_size_exponent"] = loglog_slope(sizes, gctd_times)
    return metrics


def scaling_table(tracer: PassTracer) -> str:
    """Per-pass seconds against IR size, one row per traced compile."""
    names = list(PASS_LAYERS)
    header = f"{'program':<10} {'IR instr':>8} " + " ".join(
        f"{name:>9}" for name in names
    ) + f" {'total':>8}"
    rows = [header]
    for label, passes in tracer.compiles:
        per_pass = dict.fromkeys(names, 0.0)
        size = 0
        for name, wall, instructions, _details in passes:
            per_pass[name] = per_pass.get(name, 0.0) + wall
            if name == "gctd":
                size = instructions
        rows.append(
            f"{label:<10} {size:>8} "
            + " ".join(f"{per_pass[name]:>9.4f}" for name in names)
            + f" {sum(per_pass.values()):>8.4f}"
        )
    return "\n".join(rows)


# --------------------------------------------------------------------------
# machine speed
# --------------------------------------------------------------------------

#: median time of :func:`reference_loop` on an idle 2-vCPU x86-64 VM;
#: scaled timings read as if the machine ran at that speed
REFERENCE_NOMINAL_S = 0.0070

_REFERENCE_ARRAY = numpy.full((3, 3), 0.5)


def reference_loop() -> None:
    """Fixed work in the program's style: sets, dicts, small arrays.

    It shares no code with ``repro``, so a change to the program
    cannot change its time; only the machine's speed can.
    """
    graph = {i: {(i * 7 + k) % 1500 for k in range(1, 6)} for i in range(1500)}
    colors: dict[int, int] = {}
    for node, neighbours in graph.items():
        used = {colors.get(n) for n in neighbours}
        colors[node] = next(c for c in range(12) if c not in used)
    x = _REFERENCE_ARRAY
    for _ in range(2500):
        x = numpy.multiply(numpy.add(x, 1.0), 0.5)


class SpeedProbe:
    """Times :func:`reference_loop` between operations on the same CPU.

    The machine this benchmark runs on can slow by half for minutes at
    a time, and the program's wall times follow.  A scale is nominal
    over the median measured reference time: multiplied by it, a time
    measured while the machine was slow reads as it would at nominal
    speed.  One sample jitters by 20% or more, so a scale is only
    taken over many samples, such as all of one pass.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                reference_loop()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self, first: int = 0) -> float:
        """The scale from the samples taken since sample ``first``."""
        return REFERENCE_NOMINAL_S / median(self.samples[first:])


#: seconds of operation per reference sample: about 5% probe time
PROBE_EVERY_S = 0.2


class OpLog(list):
    """Operation latencies; after each, the probe samples in proportion
    to its length, so a pass's samples spread evenly over its time."""

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        super().__init__()
        self.probe = probe

    def append(self, seconds: float) -> None:
        super().append(seconds)
        if self.probe is not None:
            self.probe.sample(max(1, round(seconds / PROBE_EVERY_S)))


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, with the probe."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# --------------------------------------------------------------------------
# statistics and resources
# --------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(points) < 2:
        return 0.0
    mx = sum(p[0] for p in points) / len(points)
    my = sum(p[1] for p in points) / len(points)
    sxx = sum((p[0] - mx) ** 2 for p in points)
    if sxx == 0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in points) / sxx


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def fresh_import() -> None:
    """Import the measured layers in a fresh interpreter (set-up cost)."""
    code = (
        "import repro.compiler.pipeline, repro.service.cache, "
        "repro.backend.cgen, repro.compiler.reports, repro.api, "
        "repro.verify"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=str(ROOT),
        check=True,
        timeout=60,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_ENABLE_FAULTS", None)
    return env


def environment_stamp() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            # a checkout that is not a repository must not report the
            # sha of some repository above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }
