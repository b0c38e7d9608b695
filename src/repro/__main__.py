"""Command-line interface: ``python -m repro <command> …``.

Commands:

* ``compile FILES…``  — compile M-files, print GCTD statistics
  (``--cache`` answers repeat compiles from the artifact cache,
  ``--trace`` prints pass-level telemetry)
* ``run FILES…``      — compile and execute (mat2c/mcc/interp model)
* ``emit-c FILES…``   — print the C translation
* ``bench``           — run the paper's experiment harness (one sweep,
  fanned over a process pool; compiles through the artifact cache,
  executors always run); writes ``BENCH_<timestamp>.json`` at the repo
  root so the perf trajectory accumulates
* ``stats``           — render the latest pass-level telemetry JSON
* ``verify``          — run the independent plan checker (and,
  optionally, the differential-execution harness) over given M-files
  or the whole benchmark suite (``--suite``)
* ``api-schema``      — print the typed wire-format schema; ``--check``
  diffs it against the committed ``api-schema.json``
* ``serve``           — run the long-lived compile server
  (``repro.server``: bounded admission queue, worker pool, /metrics;
  ``--fault-plan`` arms seeded chaos, gated on REPRO_ENABLE_FAULTS=1)
* ``client``          — submit compiles to a running server over HTTP
  (``--retries``/``--retry-backoff`` for jittered retry on 429/5xx)
* ``chaos``           — flood a running server with concurrent
  retrying compiles and assert the robustness invariants hold

Error handling: ``compile`` and ``client`` exit 1 with a message on
compile/transport errors; ``bench`` exits 1 and prints a summary when
any benchmark in the batch failed; ``verify`` exits 1 when any check
finds a violation or any model disagrees.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.compiler.pipeline import (
    CompilerOptions,
    PIPELINE_VERSION,
    compile_program,
)
from repro.core.gctd import GCTDOptions
from repro.runtime.builtins import RuntimeContext


def _repo_root() -> Path:
    """Nearest enclosing checkout root, else the working directory.

    ``repro bench`` drops its ``BENCH_<timestamp>.json`` here so
    successive runs accumulate one perf trajectory per repo no matter
    which subdirectory they were launched from.
    """
    current = Path.cwd()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file() or (
            candidate / ".git"
        ).exists():
            return candidate
    return current


def _load(files: list[str]) -> dict[str, str]:
    sources: dict[str, str] = {}
    for filename in files:
        path = Path(filename)
        sources[path.name] = path.read_text()
    return sources


def _options(args) -> CompilerOptions:
    return CompilerOptions(
        gctd=GCTDOptions(enabled=not getattr(args, "no_gctd", False))
    )


def _cache_from(args):
    from repro.service.cache import ArtifactCache

    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache", False) or getattr(args, "cache_dir", None):
        return ArtifactCache(args.cache_dir or ".repro-cache")
    return None


def _fail(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return 1


def cmd_compile(args) -> int:
    from repro.service.telemetry import Tracer

    cache = _cache_from(args)
    tracer = Tracer(label="compile") if (args.trace or cache) else None
    try:
        result = compile_program(
            _load(args.files),
            options=_options(args),
            tracer=tracer,
            cache=cache,
            verify_plan=args.verify_plan,
        )
    except OSError as exc:
        return _fail(str(exc))
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    stats = result.report
    print(f"entry function        : {result.program.entry}")
    print(f"variables at GCTD     : {stats.original_variable_count}")
    print(
        f"subsumed (s/d)        : "
        f"{stats.static_subsumed}/{stats.dynamic_subsumed}"
    )
    print(f"storage reduction     : {stats.storage_reduction_kb:.2f} KB")
    print(f"colors / groups       : {stats.color_count} / {stats.group_count}")
    print(f"stack frame           : {result.plan.stack_frame_bytes()} B")
    if args.verbose:
        print()
        for group in result.plan.groups:
            size = (
                f"{group.static_size}B"
                if group.static_size is not None
                else "symbolic"
            )
            print(
                f"group {group.gid:3d} [{group.storage.value}] "
                f"{group.intrinsic.name:8s} {size:>10s} "
                f"{group.members}"
            )
    if args.partial:
        from repro.core.partial import find_partial_interference

        report = find_partial_interference(
            result.ssa_func, result.env, result.gctd.graph
        )
        print()
        print(
            f"partial-interference opportunities (§2.1): "
            f"{len(report.pairs)} pairs, "
            f"{report.total_potential_bytes} B foregone"
        )
        for pair in report.pairs[:10]:
            print(
                f"  {pair.array} could overlap {pair.other} "
                f"({pair.potential_bytes} B)"
            )
    if cache is not None:
        hit = tracer.cache_hits > 0
        print(
            f"artifact cache        : "
            f"{'hit' if hit else 'miss'} ({cache.root})"
        )
    if args.trace and tracer is not None:
        from repro.compiler.reports import telemetry_table
        from repro.service.telemetry import aggregate_passes

        print()
        print(telemetry_table(aggregate_passes([tracer.to_dict()])))
    if cache is not None and tracer is not None:
        from repro.service.stats import write_telemetry

        write_telemetry(tracer.to_dict(), cache.root)
    if result.verification is not None:
        print()
        print(result.verification.summary())
        if not result.verification.ok:
            return 1
    return 0


def cmd_verify(args) -> int:
    """Run the plan checker (and optionally the differential harness).

    ``--suite`` verifies every benchmark program; otherwise the given
    M-files are compiled and verified as one program.  Exit status is
    1 as soon as any plan shows a violation or any execution model
    disagrees with the interpreter oracle.
    """
    from repro.verify import run_differential, verify_compilation

    if args.suite:
        from repro.bench.suite import BENCHMARK_NAMES, compile_benchmark

        targets = [
            (name, lambda name=name: compile_benchmark(name))
            for name in BENCHMARK_NAMES
        ]
    elif args.files:
        targets = [
            (
                Path(args.files[0]).stem,
                lambda: compile_program(
                    _load(args.files), options=_options(args)
                ),
            )
        ]
    else:
        return _fail("verify needs M-files or --suite")

    failures = 0
    for name, compile_fn in targets:
        try:
            result = compile_fn()
        except Exception as exc:
            failures += 1
            print(f"{name}: compile failed: {exc}")
            continue
        report = verify_compilation(result)
        print(f"{name}: {report.summary()}")
        if not report.ok:
            failures += 1
        if args.differential:
            diff = run_differential(result, name=name)
            print(f"{name}: {diff.summary()}")
            if not diff.ok:
                failures += 1
        if args.mutation:
            from repro.verify import flip_one_coalescing, verify_plan

            mutation = flip_one_coalescing(result)
            if mutation is None:
                print(f"{name}: mutation: no coalescing to flip")
            else:
                mutated = verify_plan(
                    result.ssa_func, result.env, mutation.plan
                )
                a, b = mutation.merged
                if mutated.ok:
                    failures += 1
                    print(
                        f"{name}: mutation MISSED — merged "
                        f"interfering '{a}'/'{b}' went unflagged"
                    )
                else:
                    print(
                        f"{name}: mutation flagged "
                        f"({len(mutated.violations)} violations "
                        f"after merging '{a}'/'{b}')"
                    )
    if failures:
        print(f"verify: {failures} failure(s)", file=sys.stderr)
        return 1
    return 0


def _schema_golden_path() -> Path:
    """The committed ``api-schema.json``.

    Prefers the enclosing checkout (so ``--write`` lands next to the
    sources being edited), but falls back to the root of the installed
    package's source tree — the golden belongs to the code, not to
    whatever directory the command was launched from.
    """
    cwd_golden = _repo_root() / "api-schema.json"
    if cwd_golden.is_file():
        return cwd_golden
    import repro

    source_golden = (
        Path(repro.__file__).resolve().parents[2] / "api-schema.json"
    )
    if source_golden.is_file():
        return source_golden
    return cwd_golden


def cmd_api_schema(args) -> int:
    """Print, write, or check the typed wire-format schema."""
    from repro.api import schema_compatibility_problems, schema_text

    golden_path = _schema_golden_path()
    if args.write:
        golden_path.write_text(schema_text())
        print(f"wrote {golden_path}")
        return 0
    if args.check:
        if not golden_path.is_file():
            return _fail(
                f"no golden schema at {golden_path} "
                "(run `repro api-schema --write`)"
            )
        golden = json.loads(golden_path.read_text())
        current = json.loads(schema_text())
        problems = schema_compatibility_problems(golden, current)
        if problems:
            for problem in problems:
                print(f"schema drift: {problem}", file=sys.stderr)
            return 1
        if golden != current:
            print(
                "schema changed compatibly; refresh the golden file "
                "with `repro api-schema --write`",
                file=sys.stderr,
            )
            return 1
        print("api schema matches the committed golden file")
        return 0
    sys.stdout.write(schema_text())
    return 0


def cmd_run(args) -> int:
    result = compile_program(_load(args.files), options=_options(args))
    ctx = RuntimeContext(seed=args.seed)
    if args.model == "mat2c":
        run = result.run_mat2c(ctx)
    elif args.model == "mcc":
        run = result.run_mcc(ctx)
    else:
        run = result.run_interpreter(ctx)
    sys.stdout.write(run.output)
    if args.stats:
        report = run.report
        print(f"--- {args.model} model ---", file=sys.stderr)
        print(
            f"time      : {report.execution_seconds * 1e3:.3f} ms "
            "(simulated, 440 MHz)",
            file=sys.stderr,
        )
        print(
            f"avg stack+heap : {report.avg_dynamic_kb:.1f} KB",
            file=sys.stderr,
        )
        print(
            f"avg VM / RSS   : {report.avg_virtual_kb:.1f} / "
            f"{report.avg_resident_kb:.1f} KB",
            file=sys.stderr,
        )
    return 0


def cmd_emit_c(args) -> int:
    result = compile_program(_load(args.files), options=_options(args))
    sys.stdout.write(result.generate_c())
    return 0


def cmd_bench(args) -> int:
    """Run the experiment harness: one measured sweep of the suite.

    Compiles go through the artifact cache (unless ``--no-cache``), so
    a warm run skips compilation; every execution model runs again.
    Alongside the paper's tables/figures on stdout, writes a
    machine-readable ``BENCH_<timestamp>.json`` (per-benchmark compile
    time, cache hits, executor timings, pass telemetry) so the perf
    trajectory is trackable across runs.
    """
    from repro.bench.experiments import collect_all, run_all_experiments
    from repro.service.cache import ArtifactCache, DEFAULT_CACHE_ROOT

    start = time.perf_counter()
    cache_root = (
        None
        if args.no_cache
        else (args.cache_dir or DEFAULT_CACHE_ROOT)
    )
    _records, infos, executor = collect_all(
        jobs=args.jobs, cache_root=cache_root, trace=True
    )
    sweep_seconds = time.perf_counter() - start
    failures = [info for info in infos if info.get("error")]
    if failures:
        # Tables need the full suite; report what broke instead.
        print(
            f"{len(failures)} of {len(infos)} benchmark(s) failed:",
            file=sys.stderr,
        )
        for info in failures:
            print(f"  {info['name']}: {info['error']}", file=sys.stderr)
    else:
        sys.stdout.write(run_all_experiments())

    hits = sum(1 for info in infos if info.get("cache_hit"))
    payload = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "pipeline_version": PIPELINE_VERSION,
        "wall_seconds": sweep_seconds,
        "batch": {
            "executor": executor,
            "jobs": args.jobs,
            "wall_seconds": sweep_seconds,
        },
        "cache": {
            "root": str(cache_root) if cache_root else None,
            "hits": hits,
            "misses": len(infos) - hits,
            "entries": (
                len(ArtifactCache(cache_root).entries())
                if cache_root
                else 0
            ),
        },
        "benchmarks": infos,
    }
    out_dir = (
        Path(args.output_dir) if args.output_dir else _repo_root()
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = (
        time.strftime("%Y%m%d-%H%M%S")
        + f"-{int(time.time() * 1000) % 1000:03d}"
    )
    out_path = out_dir / f"BENCH_{stamp}.json"
    out_path.write_text(json.dumps(payload, indent=2))
    if cache_root:
        from repro.service.stats import write_telemetry

        write_telemetry(payload, cache_root)
    print(
        f"\nbench: {sweep_seconds:.2f} s ({executor}), "
        f"{hits}/{len(infos)} cache hits -> {out_path}",
        file=sys.stderr,
    )
    return 1 if failures else 0


def cmd_serve(args) -> int:
    """Run the long-lived compile server (see :mod:`repro.server`)."""
    from repro.server import ServerConfig, serve

    config = ServerConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        cache_root="" if args.no_cache else (
            args.cache_dir or ".repro-cache"
        ),
        batch_jobs=args.batch_jobs,
        drain_seconds=args.drain_seconds,
        degrade=not args.no_degrade,
        gctd_deadline_seconds=args.gctd_deadline,
    )
    if args.workers is not None:
        config.workers = args.workers
    if args.fault_plan:
        from repro.faults import (
            ENABLE_FAULTS_ENV,
            FaultPlanError,
            faults_enabled,
            load_fault_plan,
        )

        if not faults_enabled():
            return _fail(
                "--fault-plan injects failures on purpose; set "
                f"{ENABLE_FAULTS_ENV}=1 in the environment to confirm "
                "this server is allowed to misbehave"
            )
        try:
            load_fault_plan(args.fault_plan)  # fail fast on bad JSON
        except FaultPlanError as exc:
            return _fail(str(exc))
        config.fault_plan_path = args.fault_plan
    try:
        config.validate()
    except ValueError as exc:
        return _fail(str(exc))
    return serve(config)


def cmd_client(args) -> int:
    """Talk to a running server over HTTP (stdlib urllib only)."""
    import urllib.error

    from repro.server.client import (
        TRANSPORT_ERRORS,
        RetryPolicy,
        ServerClient,
    )

    retry = None
    if getattr(args, "retries", 0):
        retry = RetryPolicy(
            retries=args.retries,
            backoff_seconds=args.retry_backoff,
        )
    client = ServerClient(args.url, timeout=args.timeout, retry=retry)
    try:
        if args.action == "health":
            response = client.health()
            print(json.dumps(response.payload, indent=2))
            return 0 if response.ok else 1
        if args.action == "metrics":
            sys.stdout.write(client.metrics_text())
            return 0
        # action == "compile"
        options = {}
        if getattr(args, "no_gctd", False):
            options["gctd"] = False
        response = client.compile(
            _load(args.files),
            entry=args.entry,
            options=options or None,
            deadline_seconds=args.deadline,
            emit_c=args.emit_c,
            verify_plan=args.verify_plan,
        )
    except urllib.error.URLError as exc:
        return _fail(f"cannot reach server at {args.url}: {exc.reason}")
    except TRANSPORT_ERRORS as exc:
        return _fail(str(exc))
    if not response.ok:
        # the server answers non-2xx with a {code, message, detail}
        # envelope; render it as one line and exit nonzero
        return _fail(response.envelope().summary())
    payload = response.payload
    stats = payload["stats"]
    print(f"entry function        : {payload['entry']}")
    print(f"variables at GCTD     : {stats['variables']}")
    print(
        f"subsumed (s/d)        : "
        f"{stats['static_subsumed']}/{stats['dynamic_subsumed']}"
    )
    print(
        f"storage reduction     : {stats['storage_reduction_kb']:.2f} KB"
    )
    print(
        f"colors / groups       : "
        f"{stats['colors']} / {stats['groups']}"
    )
    print(f"stack frame           : {stats['stack_frame_bytes']} B")
    print(f"fingerprint           : {payload['fingerprint'][:16]}…")
    print(f"cache_hit             : {payload['cache_hit']}")
    if payload.get("degraded"):
        print("degraded              : True (mcc all-heap fallback plan)")
    verification = payload.get("verification")
    if verification is not None:
        verdict = "sound" if verification["ok"] else "UNSOUND"
        print(
            f"plan verification     : {verdict} "
            f"({len(verification['violations'])} violations)"
        )
    if args.emit_c:
        sys.stdout.write(payload["c_source"])
    if verification is not None and not verification["ok"]:
        return 1
    return 0


def cmd_chaos(args) -> int:
    """Hammer a running server and check the robustness invariants.

    Sends ``--requests`` concurrent compiles (cycling through the
    benchmark suite, all with ``verify_plan``) through the retrying
    client, then asserts what the failure model promises no matter
    what faults the server injects on itself:

    * every 2xx body parses, reports ``ok``, and carries a *sound*
      verification report (degraded or not);
    * every non-2xx is a typed ``{code, message, detail}`` envelope;
    * the server is still alive (``/readyz``) afterwards.

    Transport-level failures (dropped connections that outlast the
    retry budget) are reported but are not corruption.  Exit 0 iff
    every invariant held.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.bench.suite import BENCHMARK_NAMES, load_sources
    from repro.server.client import (
        TRANSPORT_ERRORS,
        RetryPolicy,
        ServerClient,
    )

    names = list(BENCHMARK_NAMES)
    sources_by_name = {name: load_sources(name) for name in names}
    policy = RetryPolicy(
        retries=args.retries,
        backoff_seconds=args.retry_backoff,
        seed=args.seed,
    )

    def one(index: int):
        name = names[index % len(names)]
        client = ServerClient(args.url, timeout=args.timeout, retry=policy)
        try:
            response = client.compile(
                sources_by_name[name],
                verify_plan=True,
                name=f"chaos-{index}-{name}",
            )
        except TRANSPORT_ERRORS as exc:
            return ("transport", f"request {index} ({name}): {exc}")
        if response.status == 200:
            payload = response.payload
            if not payload or not payload.get("ok"):
                return (
                    "corrupt",
                    f"request {index} ({name}): 2xx body not ok: "
                    f"{response.text[:200]!r}",
                )
            verification = payload.get("verification")
            if not isinstance(verification, dict) or not verification.get(
                "ok"
            ):
                return (
                    "corrupt",
                    f"request {index} ({name}): 2xx without a clean "
                    "verification report",
                )
            return (
                "degraded" if payload.get("degraded") else "ok",
                response.status,
            )
        envelope = response.envelope()
        if not envelope.code or not envelope.message:
            return (
                "corrupt",
                f"request {index} ({name}): non-2xx {response.status} "
                f"without an error envelope: {response.text[:200]!r}",
            )
        return ("refused", response.status)

    with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
        outcomes = list(pool.map(one, range(args.requests)))

    counts: dict[str, int] = {}
    problems: list[str] = []
    transport: list[str] = []
    for outcome in outcomes:
        counts[outcome[0]] = counts.get(outcome[0], 0) + 1
        if outcome[0] == "corrupt":
            problems.append(outcome[1])
        elif outcome[0] == "transport":
            transport.append(outcome[1])

    probe = ServerClient(args.url, timeout=args.timeout, retry=policy)
    try:
        alive = probe.ready().status == 200
    except TRANSPORT_ERRORS:
        alive = False
    if not alive:
        problems.append("server did not answer /readyz after the run")

    summary = ", ".join(
        f"{kind}={counts[kind]}" for kind in sorted(counts)
    )
    print(
        f"chaos: {args.requests} requests x "
        f"{args.concurrency} workers -> {summary or 'nothing ran'}; "
        f"readyz={'ok' if alive else 'DOWN'}"
    )
    for line in transport[:5]:
        print(f"chaos: transport (allowed): {line}", file=sys.stderr)
    for line in problems:
        print(f"chaos: INVARIANT VIOLATED: {line}", file=sys.stderr)
    return 1 if problems else 0


def cmd_stats(args) -> int:
    """Render the most recent telemetry JSON (or a given file)."""
    from repro.service.cache import DEFAULT_CACHE_ROOT
    from repro.service.stats import find_latest_telemetry, render_stats

    if args.file:
        path = Path(args.file)
    else:
        path = find_latest_telemetry(
            cache_root=args.cache_dir or DEFAULT_CACHE_ROOT
        )
    if path is None or not path.is_file():
        print(
            "no telemetry found (run `repro bench` or "
            "`repro compile --cache` first)",
            file=sys.stderr,
        )
        return 1
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"could not read telemetry {path}: {exc}", file=sys.stderr)
        return 1
    print(f"telemetry: {path}")
    sys.stdout.write(render_stats(payload))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GCTD array-storage-coalescing MATLAB compiler "
            "(PLDI 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile M-files and print GCTD statistics"
    )
    p_compile.add_argument("files", nargs="+")
    p_compile.add_argument("--no-gctd", action="store_true")
    p_compile.add_argument("-v", "--verbose", action="store_true")
    p_compile.add_argument(
        "--partial",
        action="store_true",
        help="report §2.1 partial-interference opportunities",
    )
    p_compile.add_argument(
        "--cache",
        action="store_true",
        help="use the content-addressed artifact cache",
    )
    p_compile.add_argument(
        "--cache-dir", help="cache root (default .repro-cache)"
    )
    p_compile.add_argument(
        "--trace",
        action="store_true",
        help="print pass-level telemetry",
    )
    p_compile.add_argument(
        "--verify-plan",
        action="store_true",
        help="run the independent plan checker as a post-pass",
    )
    p_compile.set_defaults(fn=cmd_compile)

    p_verify = sub.add_parser(
        "verify",
        help="check allocation-plan soundness (repro.verify)",
    )
    p_verify.add_argument("files", nargs="*")
    p_verify.add_argument(
        "--suite",
        action="store_true",
        help="verify every benchmark program",
    )
    p_verify.add_argument(
        "--differential",
        action="store_true",
        help="also run all execution models and diff outputs/meters",
    )
    p_verify.add_argument(
        "--mutation",
        action="store_true",
        help="self-test: flip one coalescing decision and require "
        "the checker to flag it",
    )
    p_verify.add_argument("--no-gctd", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_schema = sub.add_parser(
        "api-schema", help="print the typed wire-format schema"
    )
    p_schema.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed api-schema.json",
    )
    p_schema.add_argument(
        "--write",
        action="store_true",
        help="refresh the committed api-schema.json",
    )
    p_schema.set_defaults(fn=cmd_api_schema)

    p_run = sub.add_parser("run", help="compile and execute")
    p_run.add_argument("files", nargs="+")
    p_run.add_argument(
        "--model",
        choices=("mat2c", "mcc", "interp"),
        default="mat2c",
    )
    p_run.add_argument("--seed", type=int, default=20030609)
    p_run.add_argument("--stats", action="store_true")
    p_run.add_argument("--no-gctd", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_emit = sub.add_parser("emit-c", help="print the C translation")
    p_emit.add_argument("files", nargs="+")
    p_emit.add_argument("--no-gctd", action="store_true")
    p_emit.set_defaults(fn=cmd_emit_c)

    p_bench = sub.add_parser(
        "bench", help="regenerate the paper's tables and figures"
    )
    p_bench.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="parallel compile/measure workers (default: cpu count)",
    )
    p_bench.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact cache",
    )
    p_bench.add_argument(
        "--cache-dir", help="cache root (default .repro-cache)"
    )
    p_bench.add_argument(
        "--output-dir",
        help="where to write BENCH_<timestamp>.json (default: cwd)",
    )
    p_bench.set_defaults(fn=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived compile server"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads (default: min(4, cpu count))",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission queue bound; beyond it requests get 429",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        help="default per-request deadline in seconds",
    )
    p_serve.add_argument(
        "--batch-jobs",
        type=int,
        default=1,
        help="default /v1/batch parallelism",
    )
    p_serve.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="graceful-shutdown drain budget",
    )
    p_serve.add_argument("--no-cache", action="store_true")
    p_serve.add_argument(
        "--cache-dir", help="cache root (default .repro-cache)"
    )
    p_serve.add_argument(
        "--fault-plan",
        default="",
        help=(
            "fault-plan JSON for chaos testing; refused unless "
            "REPRO_ENABLE_FAULTS=1 is set"
        ),
    )
    p_serve.add_argument(
        "--no-degrade",
        action="store_true",
        help="error instead of falling back to the mcc plan on "
        "GCTD failure",
    )
    p_serve.add_argument(
        "--gctd-deadline",
        type=float,
        default=0.0,
        help="wall-clock budget for the GCTD pass before degrading "
        "(seconds; 0 = unlimited)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_client = sub.add_parser(
        "client", help="submit work to a running compile server"
    )
    client_sub = p_client.add_subparsers(dest="action", required=True)
    c_compile = client_sub.add_parser(
        "compile", help="compile M-files on the server"
    )
    c_compile.add_argument("files", nargs="+")
    c_compile.add_argument(
        "--url", default="http://127.0.0.1:8765"
    )
    c_compile.add_argument("--entry", default=None)
    c_compile.add_argument("--no-gctd", action="store_true")
    c_compile.add_argument(
        "--emit-c",
        action="store_true",
        help="also print the C translation",
    )
    c_compile.add_argument(
        "--verify-plan",
        action="store_true",
        help="ask the server to run the plan checker",
    )
    c_compile.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (server default: 60)",
    )
    c_compile.add_argument("--timeout", type=float, default=120.0)
    c_compile.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry transient failures (429/5xx/transport) this many "
        "times with jittered exponential backoff",
    )
    c_compile.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        help="base backoff in seconds (doubles per attempt, "
        "full jitter)",
    )
    c_compile.set_defaults(fn=cmd_client)
    for action in ("health", "metrics"):
        c_action = client_sub.add_parser(
            action, help=f"GET the server's {action} endpoint"
        )
        c_action.add_argument(
            "--url", default="http://127.0.0.1:8765"
        )
        c_action.add_argument(
            "--timeout", type=float, default=30.0
        )
        c_action.set_defaults(fn=cmd_client)

    p_chaos = sub.add_parser(
        "chaos",
        help="hammer a running server and check robustness invariants",
    )
    p_chaos.add_argument("--url", default="http://127.0.0.1:8765")
    p_chaos.add_argument(
        "--requests", type=int, default=100, help="total compiles to send"
    )
    p_chaos.add_argument(
        "--concurrency", type=int, default=8, help="client threads"
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="retry-jitter seed"
    )
    p_chaos.add_argument("--timeout", type=float, default=30.0)
    p_chaos.add_argument("--retries", type=int, default=4)
    p_chaos.add_argument("--retry-backoff", type=float, default=0.05)
    p_chaos.set_defaults(fn=cmd_chaos)

    p_stats = sub.add_parser(
        "stats", help="render pass-level telemetry JSON"
    )
    p_stats.add_argument(
        "file",
        nargs="?",
        help="telemetry/BENCH json (default: newest available)",
    )
    p_stats.add_argument(
        "--cache-dir", help="cache root (default .repro-cache)"
    )
    p_stats.set_defaults(fn=cmd_stats)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
