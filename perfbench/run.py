"""Repository benchmark: the paper's matrix, the compiler and the server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-run --seed 1 --seconds 25 --trace 0

Workloads (see each module's docstring):

* ``suite-run`` (suite.py): the 11 programs compiled with and without
  GCTD and run under mat2c, mcc, the interpreter and mat2c without GCTD.
* ``compile-large`` (compile_large.py): the suite plus seeded generated
  programs of 100-800 statements, compiled only.
* ``serve-mixed`` (serve_mixed.py): a ``repro serve`` subprocess under
  two closed-loop clients, 70% cache hits and 30% cold compiles.

A run sets up three times (``setup_s`` is the median), then repeats
passes of the workload for ``--seconds`` (at least ``min_passes``),
checks every output, and prints each metric by name and unit.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the run makes one untraced and one traced pass instead
and reports the per-layer metrics, ``trace.overhead_s`` (traced minus
untraced wall time) among them; every per-layer metric is reported on
every workload, 0 where the workload does not run that layer.

End-to-end metrics, the same on every workload:

* ``setup_s``: fresh-interpreter import time, source loading, golden
  file, a warm-up compile (and run), and for ``serve-mixed`` server
  boot to ``/readyz`` plus priming the cache with the 11 programs.
* ``wall_s``: median time of one pass (the whole matrix; the whole
  compile set; one schedule of 110 requests).
* ``ops_per_s``: operations completed per second over all passes.  An
  operation is a compile, a (program, model) run or a request.
* ``p50_ms``, ``tail_ms``: median and tail operation latency; the tail
  is p75 in-process (>= 16 samples beyond it) and p90 on
  ``serve-mixed`` (>= 33 beyond), printed with the sample count.
* ``peak_rss_mb``: peak RSS of this process, or the server's
  ``VmHWM`` on ``serve-mixed``.

Every workload reports every metric, so the names are shared: the
suite time is ``wall_s`` on ``suite-run``, the compile time ``wall_s``
on ``compile-large``, and the server's requests per second, median and
p90 latency are ``ops_per_s``, ``p50_ms`` and ``tail_ms`` on
``serve-mixed``.

All timings are scaled to a nominal machine speed.  On the 2-vCPU virtual
machine the bounds were set on, one fixed interpreter run slowed by up
to 1.7x for minutes at a time, so raw wall times of runs a few minutes
apart spread by 30-50%.  The run is therefore pinned to one CPU, and
after each operation (before and after each pass on ``serve-mixed``,
whose requests overlap) it times a fixed reference loop that shares no
code with the program (``common.reference_loop``), about once per
0.2 s of operation.  A pass's times, and its operations' latencies, are
multiplied by nominal over the median reference time of that pass.  A program change moves the operations but not the
reference, so it still shows in full; the machine's slowdown cancels.
The raw median pass time and the scales are printed with each result.
Probe time is excluded from every timing.

Failed operations are counted in ``attempted``/``failed`` on every
workload (and as the per-layer ``failed_share``); a wrong output fails
the run with exit code 1, naming the program and the first differing
field.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from statistics import median

from common import (
    PASS_LAYERS,
    WORK_DIR,
    BenchError,
    PassTracer,
    SpeedProbe,
    Spans,
    bootstrap,
    environment_stamp,
    fresh_import,
    pin_to_one_cpu,
    percentile,
    self_peak_rss_mb,
)

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, as BENCHMARK.json lists them."""
    from suite import MODEL_SPANS

    from repro.bench.suite import BENCHMARK_NAMES

    units = {f"{layer}_s": "s" for layer in MODEL_SPANS.values()}
    units.update(
        {
            "vm.steps_per_s": "1/s",
            "mccsim.steps_per_s": "1/s",
            "interp.steps_per_s": "1/s",
            "vm.steps": "count",
            "mccsim.steps": "count",
            "interp.steps": "count",
        }
    )
    units.update({f"suite.{name}_s": "s" for name in BENCHMARK_NAMES})
    for layer in (*PASS_LAYERS.values(), "compile.unattributed"):
        units[f"{layer}_s"] = "s"
    units["core.gctd_size_exponent"] = "1"
    for name in ("core.interference_edges", "core.colors", "core.groups", "ir.instructions"):
        units[name] = "count"
    for layer in (
        "service.put", "service.pickle", "compiler.report", "backend.cgen",
        "service.disk", "service.get", "api.serialize", "verify.plan",
    ):
        units[f"{layer}_s"] = "s"
    units["service.cache_hit_share"] = "share"
    units["server.request_s_sum"] = "s"
    units["server.queue_depth_max"] = "count"
    units["server.shed_total"] = "count"
    units["server.pass_s_total"] = "s"
    units["trace.overhead_s"] = "s"
    units["failed_share"] = "share"
    return units


def make_workload(name: str, seed: int):
    if name == "suite-run":
        from suite import SuiteRun

        return SuiteRun(seed)
    if name == "compile-large":
        from compile_large import CompileLarge

        return CompileLarge(seed)
    from serve_mixed import ServeMixed

    return ServeMixed(seed)


def setup(workload, repeats: int, probe: SpeedProbe | None = None) -> float:
    """Median time of ``repeats`` full set-ups; the last one stays.

    With a probe, each set-up's time is scaled by the speed measured
    just before it (five samples; set-up bounds are the widest).
    """
    times = []
    for index in range(repeats):
        if index:
            workload.close()
        scale = 1.0
        if probe is not None:
            first = len(probe.samples)
            probe.sample(5)
            scale = probe.scale(first)
        start = time.perf_counter()
        fresh_import()
        workload.setup_once()
        times.append((time.perf_counter() - start) * scale)
    return median(times)


def timed_run(workload, seconds: float) -> dict:
    """Set up, then passes for ``seconds``; times scaled per pass."""
    probe = workload.probe = SpeedProbe()
    setup_s = setup(workload, SETUP_REPEATS, probe)
    raw_times, pass_times, latencies, scales = [], [], [], []
    started = time.perf_counter()
    while len(pass_times) < workload.min_passes or time.perf_counter() - started < seconds:
        first = len(probe.samples)
        start = time.perf_counter()
        pass_latencies = workload.run_pass()
        raw_times.append(time.perf_counter() - start - sum(probe.samples[first:]))
        scales.append(probe.scale(first))
        pass_times.append(raw_times[-1] * scales[-1])
        latencies += [latency * scales[-1] for latency in pass_latencies]
    workload.check()
    rss = getattr(workload, "peak_rss_mb", self_peak_rss_mb)()
    tail = workload.tail_percentile
    if len(latencies) * (100 - tail) / 100 < 10:
        raise BenchError(f"fewer than 10 of {len(latencies)} samples beyond p{tail}")
    print(
        f"{workload.name}: {len(pass_times)} passes, {len(latencies)} operations; "
        f"tail_ms is p{tail} of {len(latencies)} samples"
    )
    print(
        f"unscaled median pass {median(raw_times):.4f} s; speed scale per pass "
        + " ".join(f"{scale:.3f}" for scale in scales)
    )
    return {
        "setup_s": setup_s,
        "wall_s": median(pass_times),
        "ops_per_s": len(latencies) / sum(pass_times),
        "p50_ms": 1000.0 * median(latencies),
        "tail_ms": 1000.0 * percentile(latencies, tail),
        "peak_rss_mb": rss,
    }


def traced_run(workload) -> dict:
    setup(workload, 1)
    baseline = getattr(workload, "replay", workload.run_pass)
    start = time.perf_counter()
    baseline()
    untraced = time.perf_counter() - start
    spans = Spans()
    tracer = PassTracer(spans)
    start = time.perf_counter()
    baseline(spans, tracer)
    traced = time.perf_counter() - start
    workload.check()
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    layers = workload.layer_metrics(spans, tracer)
    unknown = sorted(set(layers) - set(metrics))
    if unknown:
        raise BenchError(f"per-layer metrics missing from the list: {unknown}")
    metrics.update(layers)
    metrics["trace.overhead_s"] = traced - untraced
    print(f"{workload.name}: untraced pass {untraced:.3f} s, traced pass {traced:.3f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("suite-run", "compile-large", "serve-mixed")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    pin_to_one_cpu()
    workload = make_workload(args.workload, args.seed)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics: dict = {}
    correct = True
    try:
        print("env " + json.dumps(environment_stamp(), sort_keys=True))
        if args.trace:
            metrics = traced_run(workload)
        else:
            metrics = timed_run(workload, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        workload.close()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    attempted = max(workload.attempted, 1)
    if correct:
        metrics["failed_share"] = workload.failed / attempted
        correct = workload.failed == 0
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6f} {units.get(name, 'share')}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": workload.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                    if name in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
