"""The compile server: routing, admission, and the compile endpoints.

Request lifecycle for ``POST /v1/compile``::

    asyncio handler ──validate──▶ AdmissionQueue.try_put ──▶ worker
         │                │ full                               │
         │                └────▶ 429 Retry-After               │
         └──── await future (bounded by the request deadline) ◀┘

The event loop only parses/validates and waits; all compilation runs
on the worker pool.  Every terminal path produces a well-formed JSON
response: compile errors are 422, worker crashes 500 (that request
only — the pool respawns the worker), deadline expiry 504, shed load
429, drain-time arrivals 503.

The pipeline is reached exclusively through its injected-deps seams:
``compile_program(…, tracer=, cache=)`` for singles and
``service.driver.compile_many`` for batches, so the server adds no
compiler knowledge of its own.  Tests may replace the whole job body
via the ``compile_impl``/``batch_impl`` constructor hooks.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import sys
import time

from repro.server.config import ServerConfig
from repro.server.httpd import (
    HttpError,
    Request,
    json_response,
    read_request,
    text_response,
)
from repro.server.jobs import CRASH, EXPIRED, OK, AdmissionQueue, Job
from repro.server.metrics import MetricsRegistry
from repro.server.pool import WorkerPool

#: Endpoint label used for unroutable paths, so the metrics label set
#: stays bounded no matter what clients probe.
_OTHER = "other"
_ENDPOINTS = ("/v1/compile", "/v1/batch", "/healthz", "/readyz", "/metrics")


class CompileServer:
    """One daemon: asyncio front end, bounded queue, worker pool."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        cache=None,
        compile_impl=None,
        batch_impl=None,
        injector=None,
    ) -> None:
        self.config = config or ServerConfig()
        self.config.validate()
        self.metrics = MetricsRegistry()
        self._define_metrics()
        self.injector = self._build_injector(injector)
        if cache is not None:
            self.cache = cache
        elif self.config.cache_root:
            from repro.service.cache import ArtifactCache

            self.cache = ArtifactCache(self.config.cache_root)
        else:
            self.cache = None
        self._wire_cache_hooks()
        self._compile_impl = compile_impl or self._do_compile
        self._batch_impl = batch_impl or self._do_batch
        self.queue = AdmissionQueue(
            self.config.queue_limit, depth_gauge=self._queue_depth
        )
        self.pool = WorkerPool(
            self.queue,
            self.config.workers,
            inflight_gauge=self._inflight,
            crash_counter=self._worker_crashes,
            injector=self.injector,
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._started_at = time.time()
        self._ready = False
        self._stopping = False
        self.port: int | None = None

    # -- fault injection --------------------------------------------------

    def _build_injector(self, injector):
        """Resolve the server's injector; default is inert.

        A fault plan from config is double-gated: the path must be set
        *and* ``REPRO_ENABLE_FAULTS=1`` must be in the environment, so
        a copied config file cannot silently put chaos in production.
        An explicitly passed injector (embedded test runner) is
        trusted as-is.
        """
        from repro.faults import (
            ENABLE_FAULTS_ENV,
            FaultInjector,
            faults_enabled,
            load_fault_plan,
        )

        if injector is None and self.config.fault_plan_path:
            if not faults_enabled():
                raise ValueError(
                    "fault_plan_path is set but fault injection is "
                    f"not enabled; export {ENABLE_FAULTS_ENV}=1 to "
                    "confirm this server should misbehave on purpose"
                )
            injector = FaultInjector(
                load_fault_plan(self.config.fault_plan_path)
            )
        if injector is None:
            injector = FaultInjector()
        if injector.on_fire is None:
            injector.on_fire = lambda fault: self._faults_injected.inc(
                site=fault.site, kind=fault.kind
            )
        return injector

    def _wire_cache_hooks(self) -> None:
        if self.cache is None:
            return
        if getattr(self.cache, "on_quarantine", None) is None:
            self.cache.on_quarantine = (
                lambda fingerprint: self._cache_quarantined.inc()
            )
        if (
            self.injector.enabled
            and getattr(self.cache, "injector", None) is None
        ):
            self.cache.injector = self.injector

    # -- metrics ---------------------------------------------------------

    def _define_metrics(self) -> None:
        m = self.metrics
        self._requests = m.counter(
            "repro_requests_total",
            "HTTP requests by endpoint and status code.",
            ("endpoint", "status"),
        )
        self._latency = m.histogram(
            "repro_request_seconds",
            "End-to-end request latency by endpoint.",
            ("endpoint",),
        )
        self._queue_depth = m.gauge(
            "repro_queue_depth", "Jobs waiting for a worker."
        )
        self._inflight = m.gauge(
            "repro_inflight_jobs", "Jobs currently executing."
        )
        self._shed = m.counter(
            "repro_shed_total",
            "Requests refused with 429 because the queue was full.",
        )
        self._deadline_expired = m.counter(
            "repro_deadline_expired_total",
            "Requests that hit their deadline (queued or running).",
        )
        self._worker_crashes = m.counter(
            "repro_worker_crashes_total",
            "Worker threads lost to crashing jobs (and respawned).",
        )
        self._compiles = m.counter(
            "repro_compiles_total",
            "Compilations by result.",
            ("result",),  # ok | error
        )
        self._cache_hits = m.counter(
            "repro_cache_hits_total", "Artifact-cache hits."
        )
        self._cache_misses = m.counter(
            "repro_cache_misses_total", "Artifact-cache misses."
        )
        self._pass_seconds = m.counter(
            "repro_pass_seconds_total",
            "Cumulative wall time per compiler pass.",
            ("pass",),
        )
        self._pass_calls = m.counter(
            "repro_pass_calls_total",
            "Executions per compiler pass.",
            ("pass",),
        )
        self._batch_items = m.counter(
            "repro_batch_items_total",
            "Batch items by disposition.",
            ("disposition",),  # compiled | cache_hit | deduped | error
        )
        self._verifications = m.counter(
            "repro_plan_verifications_total",
            "Plan verifications by verdict.",
            ("verdict",),  # ok | unsound
        )
        self._verify_violations = m.counter(
            "repro_plan_violations_total",
            "Plan-verifier violations by check.",
            ("check",),
        )
        self._degraded = m.counter(
            "repro_degraded_total",
            "Compilations degraded to the mcc all-heap fallback plan.",
        )
        self._cache_quarantined = m.counter(
            "repro_cache_quarantined_total",
            "Corrupt cache entries quarantined instead of served.",
        )
        self._faults_injected = m.counter(
            "repro_faults_injected_total",
            "Faults injected by site and kind (chaos runs only).",
            ("site", "kind"),
        )

    def _record_trace(self, tracer) -> None:
        self._cache_hits.inc(tracer.cache_hits)
        self._cache_misses.inc(tracer.cache_misses)
        for record in tracer.passes:
            name = record.name
            self._pass_calls.inc(1, **{"pass": name})
            self._pass_seconds.inc(
                record.wall_seconds, **{"pass": name}
            )

    # -- job bodies (run on worker threads) ------------------------------

    def _do_compile(self, payload: dict) -> dict:
        from repro.api import CompileRequest, CompileResponse
        from repro.compiler.pipeline import compile_program
        from repro.compiler.reports import full_report
        from repro.service.fingerprint import fingerprint_request
        from repro.service.telemetry import Tracer

        request = CompileRequest.from_wire(payload)
        tracer = Tracer(label=request.name or "server")
        start = time.perf_counter()
        try:
            result = compile_program(
                request.sources,
                request.entry,
                request.options,
                tracer=tracer,
                cache=self.cache,
                verify_plan=request.verify_plan,
                degrade=self.config.degrade,
                gctd_deadline_seconds=(
                    self.config.gctd_deadline_seconds or None
                ),
                injector=self.injector if self.injector.enabled else None,
            )
        except Exception:
            self._compiles.inc(result="error")
            self._record_trace(tracer)
            raise
        wall = time.perf_counter() - start
        self._compiles.inc(result="ok")
        self._record_trace(tracer)
        if getattr(result, "degraded", False):
            self._degraded.inc()
        if result.verification is not None:
            verdict = "ok" if result.verification.ok else "unsound"
            self._verifications.inc(verdict=verdict)
            for violation in result.verification.violations:
                self._verify_violations.inc(check=violation.check)
        if self.cache is not None:
            fingerprint = self.cache.fingerprint(
                request.sources, request.entry, request.options
            )
        else:
            fingerprint = fingerprint_request(
                request.sources, request.entry, request.options
            )
        response = CompileResponse.from_result(
            result,
            name=request.name,
            fingerprint=fingerprint,
            cache_hit=tracer.cache_hits > 0,
            wall_seconds=wall,
            report=full_report(result),
            emit_c=request.emit_c,
        )
        if not request.verify_plan:
            # a cached artifact may carry a report from an earlier
            # verify run; only answer what this request asked for
            response.verification = None
        return response.to_wire()

    def _parse_batch(self, payload: dict):
        """Validate a batch payload; HttpError(400) on bad requests.

        Called once on the event loop (so malformed batches are
        rejected before admission) and again by the worker to build
        the actual :class:`CompileRequest` list.
        """
        from repro.api import ApiValidationError, BatchRequest

        try:
            batch = BatchRequest.from_wire(payload)
        except ApiValidationError as exc:
            raise HttpError(400, str(exc)) from None
        requests = batch.items
        jobs = batch.jobs or self.config.batch_jobs
        try:
            jobs = max(1, min(int(jobs), os.cpu_count() or 1))
        except (TypeError, ValueError):
            raise HttpError(400, "jobs must be an integer") from None
        return requests, jobs

    def _do_batch(self, payload: dict) -> dict:
        from repro.service.driver import compile_many

        requests, jobs = self._parse_batch(payload)
        result = compile_many(requests, jobs=jobs, cache=self.cache)
        for item in result.items:
            if item.error is not None:
                disposition = "error"
            elif item.deduped:
                disposition = "deduped"
            elif item.cache_hit:
                disposition = "cache_hit"
            else:
                disposition = "compiled"
            self._batch_items.inc(disposition=disposition)
        summary = result.to_dict()
        for entry in summary["items"]:
            entry["ok"] = entry.get("error") is None
        summary["ok"] = result.ok
        return summary

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self.pool.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready = True

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain, then exit.

        Order matters: flip readiness (load balancers stop routing),
        close the listener (no new connections), let the pool finish
        everything already admitted, then wait for the open
        connections to write their responses.
        """
        self._ready = False
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.pool.stop, self.config.drain_seconds
        )
        open_connections = [
            task for task in self._connections if not task.done()
        ]
        if open_connections:
            await asyncio.wait(
                open_connections, timeout=self.config.drain_seconds
            )

    # -- connection handling ---------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except HttpError as exc:
                    writer.write(self._error_bytes(exc, _OTHER))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._stopping
                data = await self._respond(request, keep_alive)
                rule = (
                    self.injector.pick("http.response")
                    if self.injector.enabled
                    else None
                )
                if rule is not None and rule.kind == "drop_connection":
                    break  # close without writing the response
                if rule is not None and rule.kind == "delay":
                    await asyncio.sleep(rule.delay_seconds)
                writer.write(data)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _error_bytes(
        self, exc: HttpError, endpoint: str, keep_alive: bool = False
    ) -> bytes:
        from repro.api import ErrorEnvelope, code_for_status

        self._requests.inc(endpoint=endpoint, status=str(exc.status))
        envelope = ErrorEnvelope(
            code=exc.code or code_for_status(exc.status),
            message=exc.message,
            detail=exc.detail or {},
            status=exc.status,
        )
        return json_response(
            exc.status,
            envelope.to_wire(),
            extra_headers=exc.headers,
            keep_alive=keep_alive,
        )

    async def _respond(self, request: Request, keep_alive: bool) -> bytes:
        endpoint = (
            request.path if request.path in _ENDPOINTS else _OTHER
        )
        start = time.perf_counter()
        try:
            status, payload, headers, text = await self._dispatch(request)
        except HttpError as exc:
            self._latency.observe(
                time.perf_counter() - start, endpoint=endpoint
            )
            return self._error_bytes(exc, endpoint, keep_alive)
        self._latency.observe(
            time.perf_counter() - start, endpoint=endpoint
        )
        self._requests.inc(endpoint=endpoint, status=str(status))
        if text is not None:
            return text_response(status, text, keep_alive=keep_alive)
        return json_response(
            status, payload, extra_headers=headers, keep_alive=keep_alive
        )

    async def _dispatch(self, request: Request):
        """Route; returns ``(status, json_payload, headers, text)``."""
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET")
            return 200, {
                "ok": True,
                "uptime_seconds": time.time() - self._started_at,
                "workers_alive": self.pool.alive(),
            }, None, None
        if path == "/readyz":
            if method != "GET":
                raise HttpError(405, "use GET")
            if not self._ready:
                raise HttpError(
                    503,
                    "draining" if self._stopping else "starting",
                )
            return 200, {
                "ready": True,
                "queue_depth": self.queue.depth(),
                "workers_alive": self.pool.alive(),
            }, None, None
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET")
            return 200, None, None, self.metrics.render()
        if path == "/v1/compile":
            if method != "POST":
                raise HttpError(405, "use POST")
            payload = request.json()
            self._validate_compile(payload)  # 400 before admission
            return await self._submit(
                "/v1/compile",
                functools.partial(self._compile_impl, payload),
                self._deadline_from(payload),
            )
        if path == "/v1/batch":
            if method != "POST":
                raise HttpError(405, "use POST")
            payload = request.json()
            self._parse_batch(payload)  # 400 before admission
            return await self._submit(
                "/v1/batch",
                functools.partial(self._batch_impl, payload),
                self._deadline_from(payload),
            )
        raise HttpError(404, f"no route for {method} {path}")

    def _validate_compile(self, payload: dict) -> None:
        """Typed validation on the event loop; HttpError(400) early."""
        from repro.api import ApiValidationError, CompileRequest

        try:
            CompileRequest.from_wire(payload)
        except ApiValidationError as exc:
            raise HttpError(400, str(exc)) from None

    # -- admission and outcome mapping -----------------------------------

    def _deadline_from(self, payload: dict) -> float:
        seconds = payload.get("deadline_seconds")
        if seconds is None:
            seconds = self.config.default_deadline
        try:
            seconds = float(seconds)
        except (TypeError, ValueError):
            raise HttpError(400, "deadline_seconds must be a number")
        if seconds <= 0:
            raise HttpError(400, "deadline_seconds must be > 0")
        return min(seconds, self.config.max_deadline)

    async def _submit(self, kind: str, fn, deadline_seconds: float):
        if self._stopping or not self._ready:
            raise HttpError(503, "server is draining")
        loop = asyncio.get_running_loop()
        job = Job(
            kind=kind,
            fn=fn,
            loop=loop,
            future=loop.create_future(),
            deadline=time.monotonic() + deadline_seconds,
        )
        if not self.queue.try_put(job):
            self._shed.inc()
            raise HttpError(
                429,
                "compile queue is full, retry later",
                headers={
                    "Retry-After": f"{self.config.retry_after:g}"
                },
                detail={
                    "retry_after_seconds": self.config.retry_after
                },
            )
        try:
            tag, value = await asyncio.wait_for(
                job.future, timeout=deadline_seconds
            )
        except asyncio.TimeoutError:
            job.abandoned.set()
            self._deadline_expired.inc()
            raise HttpError(
                504,
                f"deadline of {deadline_seconds:g}s exceeded",
                detail={"deadline_seconds": deadline_seconds},
            ) from None
        except asyncio.CancelledError:
            job.abandoned.set()
            raise
        if tag == OK:
            return 200, value, None, None
        if tag == EXPIRED:
            self._deadline_expired.inc()
            raise HttpError(
                504,
                f"deadline of {deadline_seconds:g}s exceeded in queue",
                detail={
                    "deadline_seconds": deadline_seconds,
                    "where": "queue",
                },
            )
        if tag == CRASH:
            raise HttpError(500, value)
        raise HttpError(422, value)


async def _serve_async(config: ServerConfig) -> None:
    server = CompileServer(config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        try:
            loop.add_signal_handler(
                getattr(signal, signame), stop.set
            )
        except (NotImplementedError, OSError, AttributeError):
            pass  # platform without loop signal handlers
    print(
        f"repro server listening on {server.url} "
        f"(workers={config.workers}, queue={config.queue_limit}, "
        f"cache={config.cache_root or 'off'})",
        file=sys.stderr,
        flush=True,
    )
    serve_task = asyncio.ensure_future(server.serve_forever())
    await stop.wait()
    print("repro server draining…", file=sys.stderr, flush=True)
    serve_task.cancel()
    try:
        await serve_task
    except asyncio.CancelledError:
        pass
    await server.stop()
    print("repro server stopped", file=sys.stderr, flush=True)


def serve(config: ServerConfig | None = None) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    try:
        asyncio.run(_serve_async(config or ServerConfig()))
    except KeyboardInterrupt:
        pass  # signal handler unavailable: Ctrl-C lands here instead
    return 0
