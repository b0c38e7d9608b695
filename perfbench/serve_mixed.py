"""Workload ``serve-mixed``: a compile server under a closed loop.

A ``repro serve`` subprocess gets ``/v1/compile`` requests from two
client threads, each sending its next request when the last one is
answered.  One pass is 110 requests, in blocks of ten drawn by seed
from the 11 suite programs: seven repeats of a primed program (cache
hits) and three unique variants, the entry file plus a comment line (cold
compiles plus a cache store).  Two requests in ten ask for the C
source and one for plan verification.  Every program appears equally
often in every pass and in the same roles, so the mix does not depend
on the seed; only the order does.

The run is pinned to one CPU (see ``run.py``), so the server and the
clients share it.  The server runs one worker thread.  With two, concurrent cold compiles
race on the module-level ``_fresh_context`` of ``repro.typing.shape``
(``set_fresh_context``/``fresh_dim``) and a request fails with
``TypeError: 'NoneType' object does not support item assignment``
about once in a few hundred requests.  That is a defect of the
compiler, not of this benchmark; once it is fixed, ``SERVER_WORKERS``
should become 2.

It is the only workload that runs ``server``, ``api`` and ``service``,
with reads beside writes.  The traced run replays the same schedule in
process, through the public calls the server makes, to split a
request into cache get, compile, verification, cache store and
response serialisation.
"""

from __future__ import annotations

import http.client
import json
import pickle
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from common import (
    WORK_DIR,
    BenchError,
    PassTracer,
    Spans,
    child_env,
    compile_metrics,
    process_hwm_mb,
)
from golden import load_golden, sha256

BLOCKS_PER_PASS = 11
#: per block of ten: repeats (cache hits) and unique variants (misses)
REPEATS, UNIQUES = 7, 3
CLIENTS = 2
#: see the module docstring: two workers crash on a compiler data race
SERVER_WORKERS = 1
REQUEST_TIMEOUT = 120.0
#: reference samples before and after each pass (see common.SpeedProbe)
PROBE_SAMPLES = 8
_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


@dataclass(slots=True)
class _Request:
    program: str
    body: bytes
    expect_hit: bool
    emit_c: bool
    verify_plan: bool


class ServeMixed:
    name = "serve-mixed"
    tail_percentile = 90
    min_passes = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.probe = None
        self.rng = random.Random(seed)
        self.golden: dict = {}
        self.programs: dict[str, dict] = {}
        self.server: subprocess.Popen | None = None
        self.url = ""
        self.run_dir = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.hits = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    # -- server lifecycle ------------------------------------------------

    def setup_once(self) -> None:
        """Boot a server on a fresh cache to ``/readyz``; prime the suite."""
        from repro.bench.suite import BENCHMARK_NAMES, load_sources

        self.golden = load_golden()
        self.programs = {name: load_sources(name) for name in BENCHMARK_NAMES}
        WORK_DIR.mkdir(exist_ok=True)
        self.run_dir = WORK_DIR / f"serve-{time.monotonic_ns()}"
        self.run_dir.mkdir()
        log_path = self.run_dir / "server.log"
        with open(log_path, "wb") as log:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--workers", str(SERVER_WORKERS),
                    "--cache-dir", str(self.run_dir / "cache"),
                    "--deadline", str(REQUEST_TIMEOUT),
                ],
                cwd=str(self.run_dir),
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                preexec_fn=_die_with_parent,
            )
        self.url = self._wait_listening(log_path)
        self._wait_ready()
        conn = self._connect()
        try:
            for name in self.programs:
                status, reply = _post(conn, self._body(name, self.programs[name]))
                if status != 200 or reply.get("cache_hit"):
                    raise BenchError(f"priming {name}: status {status}, {reply}")
        finally:
            conn.close()

    def _wait_listening(self, log_path) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            found = _LISTENING.search(log_path.read_text(errors="replace"))
            if found:
                return found.group(1)
            if self.server.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(
            "server did not report its address: "
            + log_path.read_text(errors="replace")[-2000:]
        )

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            conn = self._connect()
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise BenchError("server never became ready")

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self.url.removeprefix("http://").split(":")
        return http.client.HTTPConnection(host, int(port), timeout=REQUEST_TIMEOUT)

    def close(self) -> None:
        """Stop the server (SIGTERM, then SIGKILL) and drop its files."""
        server, self.server = self.server, None
        if server is not None and server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=30)
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            self.run_dir = None

    def peak_rss_mb(self) -> float:
        return process_hwm_mb(self.server.pid)

    # -- the request mix -------------------------------------------------

    @staticmethod
    def _body(name: str, sources: dict, emit_c=False, verify_plan=False) -> bytes:
        payload = {"sources": sources, "entry": f"{name}_drv", "name": name}
        if emit_c:
            payload["emit_c"] = True
        if verify_plan:
            payload["verify_plan"] = True
        return json.dumps(payload).encode()

    def schedule(self, tag: str) -> list[_Request]:
        """One pass of blocks of ten; the seed only orders them.

        Slot ``k`` of the blocks walks a seeded permutation of the
        programs, so per pass every program is a repeat seven times
        and a unique variant three times, and gets each flag slot once.
        """
        names = list(self.programs)
        slots = []
        for _ in range(REPEATS + UNIQUES):
            order = names[:]
            self.rng.shuffle(order)
            slots.append(order)
        requests = []
        for block in range(BLOCKS_PER_PASS):
            batch = []
            for slot in range(REPEATS + UNIQUES):
                name = slots[slot][block]
                repeat = slot < REPEATS
                # flags: C source on the first repeat and first unique
                # slot, verification on the second unique slot
                emit_c = slot in (0, REPEATS)
                verify = slot == REPEATS + 1
                sources = dict(self.programs[name])
                if not repeat:
                    sources[f"{name}_drv.m"] += f"\n% variant {tag}-{block}-{slot}\n"
                body = self._body(name, sources, emit_c, verify)
                batch.append(_Request(name, body, repeat, emit_c, verify))
            self.rng.shuffle(batch)
            requests += batch
        return requests

    def check_reply(self, request: _Request, status: int, reply: dict) -> str:
        """Empty when the reply is right, else what is wrong with it."""
        name = request.program
        if status != 200 or not reply.get("ok"):
            return f"{name}: status {status}: {reply.get('message', reply)}"
        if reply.get("cache_hit") != request.expect_hit:
            return f"{name}: cache_hit {reply.get('cache_hit')}, expected {request.expect_hit}"
        golden = self.golden["programs"][name]
        plan = golden["plans"]["gctd"]
        stats = reply.get("stats") or {}
        for key in ("colors", "groups"):
            if stats.get(key) != plan[key]:
                return f"{name}: stats.{key} {stats.get(key)}, golden {plan[key]}"
        reduction = plan["storage_reduction_bytes"] / 1024.0
        if stats.get("storage_reduction_kb") != reduction:
            return (
                f"{name}: stats.storage_reduction_kb "
                f"{stats.get('storage_reduction_kb')}, golden {reduction}"
            )
        if request.emit_c and sha256(reply.get("c_source") or "") != golden["c_source_sha256"]:
            return f"{name}: c_source differs from golden"
        if request.verify_plan and not (reply.get("verification") or {}).get("ok"):
            return f"{name}: plan verification {reply.get('verification')}"
        return ""

    # -- timed pass ------------------------------------------------------

    def run_pass(self, spans=None, tracer=None) -> list[float]:
        requests = self.schedule(f"{self.seed}-{self.passes}")
        self.passes += 1
        # the clients run concurrently, so the probe samples before and
        # after them, with the server idle, on the CPU they all share
        if self.probe is not None:
            self.probe.sample(PROBE_SAMPLES)
        latencies: list[float] = []
        cursor = iter(requests)
        threads = [
            threading.Thread(target=self._client, args=(cursor, latencies))
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=len(requests) * REQUEST_TIMEOUT)
            if thread.is_alive():
                raise BenchError("client thread did not finish")
        if self.errors:
            raise BenchError(self.errors[0])
        if self.probe is not None:
            self.probe.sample(PROBE_SAMPLES)
        return latencies

    def _client(self, cursor, latencies: list[float]) -> None:
        try:
            conn = self._connect()
            try:
                while True:
                    with self._lock:
                        request = next(cursor, None)
                    if request is None:
                        return
                    self._send(conn, request, latencies)
            finally:
                conn.close()
        except Exception as exc:  # the pass reports it as a failure
            with self._lock:
                self.errors.append(f"client: {type(exc).__name__}: {exc}")

    def _send(self, conn, request: _Request, latencies: list[float]) -> None:
        start = time.perf_counter()
        try:
            status, reply = _post(conn, request.body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            conn.close()  # reconnects on the next request
            status, reply = 0, {"message": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        problem = self.check_reply(request, status, reply)
        with self._lock:
            self.attempted += 1
            if problem:
                self.failed += 1
                self.errors.append(problem)
            else:
                latencies.append(elapsed)
                self.hits += bool(reply.get("cache_hit"))

    def check(self) -> None:
        """Replies were checked as they arrived; the server must be up."""
        if self.server is None or self.server.poll() is not None:
            raise BenchError("server exited during the run")

    # -- traced run ------------------------------------------------------

    def layer_metrics(self, spans: Spans, tracer: PassTracer) -> dict:
        metrics = self._server_pass_metrics()
        metrics["service.cache_hit_share"] = self.hits / self.attempted
        metrics.update(compile_metrics(spans, tracer))
        for layer in (
            "service.get", "service.put", "service.pickle", "compiler.report",
            "backend.cgen", "api.serialize", "verify.plan",
        ):
            metrics[f"{layer}_s"] = spans.total(layer)
        metrics["service.disk_s"] = metrics["service.put_s"] - sum(
            metrics[f"{layer}_s"]
            for layer in ("service.pickle", "compiler.report", "backend.cgen")
        )
        return metrics

    def _server_pass_metrics(self) -> dict:
        """One more server pass, with ``/metrics`` read around it."""
        before = self._scrape()
        depths = [0.0]
        problems: list[str] = []
        stop = threading.Event()

        def sample_queue_depth():
            try:
                conn = self._connect()
                try:
                    while not stop.wait(0.05):
                        conn.request("GET", "/readyz")
                        reply = json.loads(conn.getresponse().read())
                        depths.append(float(reply["queue_depth"]))
                finally:
                    conn.close()
            except Exception as exc:  # raised below, on the main thread
                problems.append(f"queue sampler: {type(exc).__name__}: {exc}")

        sampler = threading.Thread(target=sample_queue_depth)
        sampler.start()
        try:
            self.run_pass()
        finally:
            stop.set()
            sampler.join(timeout=REQUEST_TIMEOUT)
        if problems:
            raise BenchError(problems[0])
        after = self._scrape()

        def delta(key):
            return after.get(key, 0.0) - before.get(key, 0.0)

        pass_total = sum(
            delta(key) for key in after if key.startswith("repro_pass_seconds_total")
        )
        return {
            "server.request_s_sum": delta(
                'repro_request_seconds_sum{endpoint="/v1/compile"}'
            ),
            "server.queue_depth_max": max(depths),
            "server.shed_total": delta("repro_shed_total"),
            "server.pass_s_total": pass_total,
        }

    def _scrape(self) -> dict:
        conn = self._connect()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                samples[key] = float(value)
        return samples

    def replay(self, spans: Spans | None = None, tracer=None) -> float:
        """The server's request path, in process, over one schedule."""
        from repro.api import CompileRequest, CompileResponse
        from repro.backend.cgen import generate_c
        from repro.compiler.pipeline import compile_program
        from repro.compiler.reports import full_report
        from repro.service.cache import ArtifactCache
        from repro.verify import verify_plan

        cache_dir = WORK_DIR / f"replay-{time.monotonic_ns()}"
        cache = ArtifactCache(cache_dir)
        for name, sources in self.programs.items():
            result = compile_program(sources, f"{name}_drv")
            cache.put_program(sources, f"{name}_drv", None, result)
        span = spans.span if spans else (lambda name: nullcontext())
        start = time.perf_counter()
        try:
            for request in self.schedule(f"replay-{self.seed}-{self.passes}"):
                wire = CompileRequest.from_wire(json.loads(request.body))
                args = (wire.sources, wire.entry, wire.options)
                with span("service.get"):
                    result = cache.get_program(*args)
                if result is None:
                    with tracer.compile(request.program) if tracer else nullcontext():
                        result = compile_program(*args, tracer=tracer)
                    with span("service.put"):
                        cache.put_program(*args, result)
                    if spans:
                        # the parts of a store, timed again one by one
                        with span("service.pickle"):
                            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                        with span("compiler.report"):
                            full_report(result)
                        with span("backend.cgen"):
                            generate_c(result)
                if wire.verify_plan and result.verification is None:
                    with span("verify.plan"):
                        result.verification = verify_plan(
                            result.ssa_func, result.env, result.plan
                        )
                with span("api.serialize"):
                    CompileResponse.from_result(
                        result,
                        name=wire.name,
                        report=full_report(result),
                        emit_c=wire.emit_c,
                    ).to_wire()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return time.perf_counter() - start


def _die_with_parent() -> None:
    """In the server child: have the kernel SIGTERM it if we die first."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    libc.prctl.restype = ctypes.c_int
    libc.prctl(1, signal.SIGTERM)  # 1 = PR_SET_PDEATHSIG


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, dict]:
    conn.request(
        "POST", "/v1/compile", body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())
