"""Tests for the long-lived compile server (:mod:`repro.server`).

Fast lane, no gcc: every compile here is compile-only (the server
never executes programs).  Robustness scenarios — deadline expiry,
worker crashes, load shedding, graceful drain — inject tiny job
bodies through the ``compile_impl`` seam so they run in milliseconds;
the end-to-end compile paths use the real pipeline on small programs.
"""

import asyncio
import functools
import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api import BatchRequest, CompileRequest
from repro.compiler.pipeline import CompilerOptions
from repro.core.gctd import GCTDOptions
from repro.faults import (
    ENABLE_FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    load_fault_plan,
)
from repro.server import (
    CompileServer,
    ServerClient,
    ServerConfig,
    ServerThread,
)
from repro.server.metrics import MetricsRegistry
from repro.server.pool import CRASH, ERROR, OK, Job, WorkerPool

PROGRAM = "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"
OTHER_PROGRAM = "x = zeros(5); y = x + 3; disp(sum(sum(y)));\n"
NO_GCTD = CompilerOptions(gctd=GCTDOptions(enabled=False))
#: tiny requests for the robustness tests' ``compile_impl`` seams
TINY = CompileRequest({"p.m": "x = 1;"})
CRASHER = CompileRequest({"p.m": "% CRASH\n"})
CHAOS_PLAN = str(
    Path(__file__).resolve().parents[1]
    / "examples" / "faultplans" / "chaos-smoke.json"
)


def make_config(tmp_path, **overrides) -> ServerConfig:
    values = {
        "port": 0,
        "workers": 2,
        "queue_limit": 8,
        "cache_root": str(tmp_path / "cache"),
        "drain_seconds": 5.0,
    }
    values.update(overrides)
    return ServerConfig(**values)


@pytest.fixture
def server(tmp_path):
    with ServerThread(make_config(tmp_path)) as handle:
        yield handle


@pytest.fixture
def client(server):
    return ServerClient(server.url, timeout=30.0)


# --------------------------------------------------------------------------
# Metrics registry
# --------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_labels_and_render(self):
        registry = MetricsRegistry()
        requests = registry.counter(
            "requests_total", "Requests.", ("endpoint",)
        )
        requests.inc(endpoint="/a")
        requests.inc(2, endpoint="/b")
        text = registry.render()
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{endpoint="/a"} 1' in text
        assert 'requests_total{endpoint="/b"} 2' in text

    def test_counter_rejects_negative_and_bad_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.", ("x",))
        with pytest.raises(ValueError):
            counter.inc(-1, x="a")
        with pytest.raises(ValueError):
            counter.inc(y="a")

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "Depth.")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4
        assert "depth 4" in registry.render()

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = registry.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert hist.count() == 3

    def test_duplicate_metric_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(ValueError):
            registry.counter("x_total", "again")


# --------------------------------------------------------------------------
# Health, readiness, routing
# --------------------------------------------------------------------------


class TestPlumbing:
    def test_healthz(self, client):
        response = client.health()
        assert response.status == 200
        assert response.payload["ok"] is True
        assert response.payload["workers_alive"] == 2

    def test_readyz(self, client):
        response = client.ready()
        assert response.status == 200
        assert response.payload["ready"] is True

    def test_unknown_route_is_404(self, client):
        response = client.get("/nope")
        assert response.status == 404
        assert response.payload["ok"] is False

    def test_wrong_method_is_405(self, client):
        response = client.post_json("/healthz", {})
        assert response.status == 405

    def test_bad_json_is_400(self, server):
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/compile",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        client = ServerClient(server.url)
        response = client._send(request)
        assert response.status == 400
        assert "JSON" in response.payload["error"]

    def test_missing_sources_is_400(self, client):
        response = client.post_json("/v1/compile", {"entry": "x"})
        assert response.status == 400
        assert "sources" in response.payload["error"]

    def test_unknown_option_is_400(self, client):
        response = client.post_json(
            "/v1/compile",
            {"sources": {"a.m": "x = 1;"}, "options": {"frob": 1}},
        )
        assert response.status == 400
        assert "frob" in response.payload["error"]

    def test_job_hooks_receive_the_parsed_request(self, tmp_path):
        seen = []

        def record(request):
            seen.append(request)
            return {"ok": True}

        config = make_config(tmp_path)
        with ServerThread(
            config, compile_impl=record, batch_impl=record
        ) as server:
            client = ServerClient(server.url, timeout=30.0)
            assert client.compile(
                CompileRequest({"p.m": PROGRAM}, name="c")
            ).ok
            assert client.batch(
                BatchRequest([CompileRequest({"p.m": PROGRAM})])
            ).ok
        single, batch = seen
        assert isinstance(single, CompileRequest) and single.name == "c"
        assert isinstance(batch, BatchRequest)
        assert batch.items[0].name == "request-0"


# --------------------------------------------------------------------------
# Compile endpoint (real pipeline, compile-only)
# --------------------------------------------------------------------------


class TestCompileEndpoint:
    def test_compile_reports_stats(self, client):
        response = client.compile(CompileRequest({"prog.m": PROGRAM}))
        assert response.ok
        payload = response.payload
        assert payload["entry"] == "prog"
        assert payload["stats"]["variables"] > 0
        assert payload["stats"]["stack_frame_bytes"] > 0
        assert len(payload["fingerprint"]) == 64
        assert "report" in payload
        assert "c_source" not in payload

    def test_emit_c(self, client):
        response = client.compile(
            CompileRequest({"prog.m": PROGRAM}, emit_c=True)
        )
        assert response.ok
        assert "int main(void)" in response.payload["c_source"]

    def test_repeat_submission_hits_cache(self, client):
        first = client.compile(CompileRequest({"prog.m": PROGRAM}))
        second = client.compile(CompileRequest({"prog.m": PROGRAM}))
        assert first.payload["cache_hit"] is False
        assert second.payload["cache_hit"] is True
        assert (
            first.payload["fingerprint"]
            == second.payload["fingerprint"]
        )

    def test_options_change_fingerprint(self, client):
        default = client.compile(CompileRequest({"prog.m": PROGRAM}))
        nogctd = client.compile(
            CompileRequest({"prog.m": PROGRAM}, options=NO_GCTD)
        )
        assert nogctd.payload["cache_hit"] is False
        assert (
            default.payload["fingerprint"]
            != nogctd.payload["fingerprint"]
        )
        assert nogctd.payload["stats"]["static_subsumed"] == 0

    def test_compile_error_is_422(self, client):
        response = client.compile(
            CompileRequest({"prog.m": "x = ) nope"})
        )
        assert response.status == 422
        assert "MatlabSyntaxError" in response.payload["error"]

    def test_cache_metrics_exposed(self, client):
        client.compile(CompileRequest({"prog.m": PROGRAM}))
        client.compile(CompileRequest({"prog.m": PROGRAM}))
        text = client.metrics_text()
        samples = MetricsRegistry().parse_rendered(text)
        assert samples["repro_cache_hits_total"] == 1
        assert samples["repro_cache_misses_total"] == 1
        assert (
            samples['repro_compiles_total{result="ok"}'] == 2
        )
        # Pass telemetry aggregates into per-pass counters.
        assert any(
            name.startswith("repro_pass_seconds_total")
            for name in samples
        )


# --------------------------------------------------------------------------
# Batch endpoint
# --------------------------------------------------------------------------


class TestBatchEndpoint:
    def test_batch_dedups_and_reports_items(self, server, client):
        response = client.batch(
            BatchRequest([
                CompileRequest({"p.m": PROGRAM}, name="one"),
                CompileRequest({"p.m": PROGRAM}, name="two"),
                CompileRequest({"q.m": OTHER_PROGRAM}, name="three"),
            ])
        )
        assert response.status == 200
        items = {
            item["name"]: item for item in response.payload["items"]
        }
        assert response.payload["ok"] is True
        assert items["two"]["deduped"] is True
        assert items["one"]["deduped"] is False
        assert items["three"]["fingerprint"] != items["one"]["fingerprint"]
        # only the leaders compiled: one stored entry per fingerprint
        assert len(server.server.cache.entries()) == 2
        # `degraded` is additive: absent unless the plan is the fallback
        assert not any("degraded" in item for item in items.values())

    def test_batch_partial_failure_reported_per_item(self, client):
        response = client.batch(
            BatchRequest([
                CompileRequest({"p.m": PROGRAM}, name="good"),
                CompileRequest({"q.m": "x = ) nope"}, name="bad"),
            ])
        )
        assert response.status == 200
        assert response.payload["ok"] is False
        items = {
            item["name"]: item for item in response.payload["items"]
        }
        assert items["good"]["ok"] is True
        assert items["bad"]["ok"] is False
        assert "MatlabSyntaxError" in items["bad"]["error"]

    def test_batch_validation_error_is_400(self, client):
        response = client.post_json("/v1/batch", {"requests": []})
        assert response.status == 400

    def test_legacy_jobs_field_is_ignored(self, client):
        # schema version 1 carried a no-op ``jobs``; a body that still
        # sends it gets the same items as one without it
        body = BatchRequest([
            CompileRequest({"p.m": PROGRAM}),
            CompileRequest({"q.m": OTHER_PROGRAM}),
        ]).to_wire()
        legacy = client.post_json("/v1/batch", {**body, "jobs": 2})
        assert legacy.status == 200
        assert legacy.payload["executor"] == "serial"
        assert "jobs" not in legacy.payload
        current = client.post_json("/v1/batch", body)
        assert current.status == 200

        def same(items):
            return [
                (item["name"], item["fingerprint"], item["ok"])
                for item in items
            ]

        assert same(legacy.payload["items"]) == same(
            current.payload["items"]
        )

    def test_request_order_preserved(self, client):
        response = client.batch(
            BatchRequest([
                CompileRequest({"q.m": OTHER_PROGRAM}, name="b"),
                CompileRequest({"p.m": PROGRAM}, name="a"),
            ])
        )
        names = [item["name"] for item in response.payload["items"]]
        assert names == ["b", "a"]

    def test_distinct_options_not_deduped(self, client):
        response = client.batch(
            BatchRequest([
                CompileRequest({"p.m": PROGRAM}, name="on"),
                CompileRequest({"p.m": PROGRAM}, name="off", options=NO_GCTD),
            ])
        )
        on, off = response.payload["items"]
        assert not off["deduped"]
        assert on["fingerprint"] != off["fingerprint"]

    def test_batch_items_feed_server_metrics_and_cache(
        self, server, client
    ):
        response = client.batch(
            BatchRequest([
                CompileRequest({"p.m": PROGRAM}, name="a"),
                CompileRequest({"q.m": OTHER_PROGRAM}, name="b"),
            ])
        )
        assert response.payload["ok"] is True
        samples = MetricsRegistry().parse_rendered(client.metrics_text())
        assert samples['repro_compiles_total{result="ok"}'] == 2
        assert samples['repro_pass_calls_total{pass="parse"}'] == 2
        assert samples["repro_cache_misses_total"] == 2
        assert samples["repro_cache_hits_total"] == 0
        assert samples[
            'repro_batch_items_total{disposition="compiled"}'
        ] == 2
        stats = server.server.cache.stats
        assert stats.stores == 2
        # the batch filled the server's in-memory LRU
        single = client.compile(CompileRequest({"p.m": PROGRAM}))
        assert single.payload["cache_hit"] is True
        assert stats.memory_hits == 1

    def test_batch_item_degrades_under_gctd_crash(self, tmp_path):
        from repro.faults import FaultInjector, FaultPlan, FaultRule

        injector = FaultInjector(
            FaultPlan(seed=1, rules=(FaultRule("gctd.run", "crash"),))
        )
        with ServerThread(
            make_config(tmp_path), injector=injector
        ) as server:
            client = ServerClient(server.url, timeout=30.0)
            response = client.batch(
                BatchRequest([
                    CompileRequest({"p.m": PROGRAM}, name="one"),
                    CompileRequest({"p.m": PROGRAM}, name="two"),
                ])
            )
            samples = MetricsRegistry().parse_rendered(
                client.metrics_text()
            )
        assert response.payload["ok"] is True
        one, two = response.payload["items"]
        assert one["ok"] and one["degraded"] is True
        assert two["deduped"] and two["degraded"] is True
        assert samples["repro_degraded_total"] == 1


# --------------------------------------------------------------------------
# Deadlines and cancellation
# --------------------------------------------------------------------------


class TestDeadlines:
    def test_running_job_deadline_expires(self, tmp_path):
        def slow_impl(request):
            time.sleep(3.0)
            return {"ok": True}

        config = make_config(tmp_path, workers=1)
        with ServerThread(config, compile_impl=slow_impl) as server:
            client = ServerClient(server.url, timeout=30.0)
            start = time.monotonic()
            response = client.compile(
                CompileRequest({"p.m": "x = 1;"}, deadline_seconds=0.2)
            )
            elapsed = time.monotonic() - start
            assert response.status == 504
            assert "deadline" in response.payload["error"]
            assert elapsed < 2.0  # answered at the deadline, not after

    def test_queued_job_expires_without_running(self, tmp_path):
        ran = []

        def impl(request):
            if request.name == "blocker":
                time.sleep(1.0)
            ran.append(request.name)
            return {"ok": True, "name": request.name}

        config = make_config(tmp_path, workers=1)
        with ServerThread(config, compile_impl=impl) as server:
            client = ServerClient(server.url, timeout=30.0)
            blocker = threading.Thread(
                target=client.compile,
                args=(CompileRequest({"p.m": "x = 1;"}, name="blocker"),),
            )
            blocker.start()
            time.sleep(0.2)  # let the blocker occupy the only worker
            response = client.compile(
                CompileRequest(
                    {"p.m": "y = 2;"}, name="victim", deadline_seconds=0.1
                )
            )
            blocker.join()
            assert response.status == 504
            assert "victim" not in ran  # skipped, never executed

    def test_deadline_metric_counted(self, tmp_path):
        def slow_impl(request):
            time.sleep(1.0)
            return {"ok": True}

        config = make_config(tmp_path, workers=1)
        with ServerThread(config, compile_impl=slow_impl) as server:
            client = ServerClient(server.url, timeout=30.0)
            client.compile(
                CompileRequest({"p.m": "x = 1;"}, deadline_seconds=0.1)
            )
            samples = MetricsRegistry().parse_rendered(
                client.metrics_text()
            )
            assert samples["repro_deadline_expired_total"] >= 1

    def test_invalid_deadline_is_400(self, client):
        response = client.post_json(
            "/v1/compile",
            {"sources": {"a.m": "x = 1;"}, "deadline_seconds": -1},
        )
        assert response.status == 400


# --------------------------------------------------------------------------
# Worker crash recovery
# --------------------------------------------------------------------------


class _InjectedCrash(BaseException):
    """Not an Exception: simulates a worker-killing failure."""


class TestWorkerCrashRecovery:
    def test_crash_errors_request_but_not_server(self, tmp_path):
        def impl(request):
            if "CRASH" in next(iter(request.sources.values())):
                raise _InjectedCrash("boom")
            return {"ok": True, "survived": True}

        config = make_config(tmp_path, workers=2)
        with ServerThread(config, compile_impl=impl) as server:
            client = ServerClient(server.url, timeout=30.0)
            crashed = client.compile(CRASHER)
            assert crashed.status == 500
            assert "crash" in crashed.payload["error"].lower()

            # The server keeps serving and capacity is restored.
            for _ in range(4):
                response = client.compile(TINY)
                assert response.status == 200
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                health = client.health()
                if health.payload["workers_alive"] == 2:
                    break
                time.sleep(0.05)
            assert health.payload["workers_alive"] == 2
            samples = MetricsRegistry().parse_rendered(
                client.metrics_text()
            )
            assert samples["repro_worker_crashes_total"] == 1

    def test_every_worker_crashing_still_recovers(self, tmp_path):
        def impl(request):
            if "CRASH" in next(iter(request.sources.values())):
                raise _InjectedCrash("boom")
            return {"ok": True}

        config = make_config(tmp_path, workers=2)
        with ServerThread(config, compile_impl=impl) as server:
            client = ServerClient(server.url, timeout=30.0)
            for _ in range(4):
                assert (
                    client.compile(CRASHER).status == 500
                )
            assert client.compile(TINY).status == 200

    def test_injected_worker_death_fails_only_that_job(self, tmp_path):
        injector = FaultInjector(
            FaultPlan(
                rules=(
                    FaultRule("pool.worker", "worker_death", max_fires=2),
                )
            )
        )
        config = make_config(tmp_path, workers=1)
        with ServerThread(
            config, compile_impl=lambda request: {"ok": True},
            injector=injector,
        ) as server:
            client = ServerClient(server.url, timeout=30.0)
            for _ in range(2):
                response = client.compile(TINY)
                assert response.status == 500
                assert "worker death" in response.payload["error"]
            assert client.compile(TINY).status == 200
            assert client.health().payload["workers_alive"] == 1
            samples = MetricsRegistry().parse_rendered(
                client.metrics_text()
            )
            assert samples["repro_worker_crashes_total"] == 2


class TestWorkerPool:
    def test_stress_loses_no_worker_outcome_or_count(self):
        # more workers than cores, a tiny switch interval, and every
        # third job crashing: no worker may be lost, every job answered
        # with its own outcome, and every gauge back at rest
        registry = MetricsRegistry()
        depth = registry.gauge("depth", "queued")
        inflight = registry.gauge("inflight", "running")
        crashes = registry.counter("crashes", "crashed jobs")
        pool = WorkerPool(
            8, 600, depth_gauge=depth, inflight_gauge=inflight,
            crash_counter=crashes, injector=FaultInjector(),
        )

        def body(n):
            if n % 3 == 0:
                raise _InjectedCrash(n)
            if n % 3 == 1:
                raise ValueError(n)
            return n

        async def drive():
            loop = asyncio.get_running_loop()
            jobs = [
                Job(
                    functools.partial(body, n), loop,
                    loop.create_future(), time.monotonic() + 60.0,
                )
                for n in range(600)
            ]
            for job in jobs:
                assert pool.try_put(job)
            futures = asyncio.gather(*(job.future for job in jobs))
            return await asyncio.wait_for(futures, 30.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool.start()
        try:
            outcomes = asyncio.run(drive())
            alive, idle_depth = pool.alive(), depth.value()
        finally:
            sys.setswitchinterval(interval)
            stopped = pool.stop(10.0)
        assert stopped and pool.alive() == 0
        assert alive == 8
        assert [tag for tag, _ in outcomes] == [
            (CRASH, ERROR, OK)[n % 3] for n in range(600)
        ]
        assert [value for tag, value in outcomes if tag == OK] == list(
            range(2, 600, 3)
        )
        assert crashes.value() == 200
        assert inflight.value() == 0
        assert idle_depth == 0  # every job taken: nothing is queued


# --------------------------------------------------------------------------
# Load shedding
# --------------------------------------------------------------------------


class TestAdmissionControl:
    def test_full_queue_sheds_with_retry_after(self, tmp_path):
        release = threading.Event()

        def impl(request):
            release.wait(10.0)
            return {"ok": True}

        config = make_config(tmp_path, workers=1, queue_limit=1)
        with ServerThread(config, compile_impl=impl) as server:
            client = ServerClient(server.url, timeout=30.0)
            statuses = []
            threads = [
                threading.Thread(
                    target=lambda: statuses.append(
                        client.compile(TINY).status
                    )
                )
                for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            # Wait until the worker + queue slots are pinned and the
            # overflow requests have been shed.
            deadline = time.monotonic() + 5.0
            while (
                len(statuses) < 4 and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            release.set()
            for thread in threads:
                thread.join(10.0)
            assert len(statuses) == 6
            assert statuses.count(429) >= 1
            assert statuses.count(200) >= 1
            assert set(statuses) <= {200, 429}
            samples = MetricsRegistry().parse_rendered(
                client.metrics_text()
            )
            assert samples["repro_shed_total"] == statuses.count(429)

    def test_shed_response_carries_retry_after(self, tmp_path):
        release = threading.Event()

        def impl(request):
            release.wait(10.0)
            return {"ok": True}

        config = make_config(tmp_path, workers=1, queue_limit=1)
        with ServerThread(config, compile_impl=impl) as server:
            client = ServerClient(server.url, timeout=30.0)

            def occupy():
                # Retry on shed: right after startup the worker may
                # not have drained the first filler yet, in which
                # case one of these is legitimately refused.
                while client.compile(TINY).status == 429:
                    time.sleep(0.02)

            background = [
                threading.Thread(target=occupy) for _ in range(2)
            ]
            for thread in background:
                thread.start()
            # Wait until the only worker is busy and the queue slot is
            # taken, so the next submission must be shed.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                ready = client.ready()
                if ready.payload.get("queue_depth", 0) >= 1:
                    break
                time.sleep(0.02)
            shed = None
            while time.monotonic() < deadline:
                response = client.compile(
                    CompileRequest({"p.m": "x = 1;"}, deadline_seconds=0.2)
                )
                if response.status == 429:
                    shed = response
                    break
                time.sleep(0.02)
            release.set()
            for thread in background:
                thread.join(10.0)
            assert shed is not None, "queue never filled"
            headers = {
                name.lower(): value
                for name, value in shed.headers.items()
            }
            assert "retry-after" in headers


# --------------------------------------------------------------------------
# Graceful shutdown
# --------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_inflight_request_completes_during_drain(self, tmp_path):
        started = threading.Event()

        def impl(request):
            started.set()
            time.sleep(0.5)
            return {"ok": True, "drained": True}

        config = make_config(tmp_path, workers=1)
        server = ServerThread(config, compile_impl=impl).start()
        client = ServerClient(server.url, timeout=30.0)
        result: dict = {}

        def submit():
            result["response"] = client.compile(TINY)

        submitter = threading.Thread(target=submit)
        submitter.start()
        assert started.wait(5.0)
        server.stop()
        submitter.join(10.0)
        response = result["response"]
        assert response.status == 200
        assert response.payload["drained"] is True

    def test_full_queue_drains_on_stop(self, tmp_path):
        started = threading.Event()
        release = threading.Event()

        def impl(request):
            started.set()
            release.wait(10.0)
            return {"ok": True, "name": request.name}

        config = make_config(tmp_path, workers=1, queue_limit=2)
        server = ServerThread(config, compile_impl=impl).start()
        client = ServerClient(server.url, timeout=30.0)
        statuses: dict = {}

        def submit(name):
            request = CompileRequest({"p.m": "x = 1;"}, name=name)
            statuses[name] = client.compile(request).status

        running = threading.Thread(target=submit, args=("running",))
        running.start()
        assert started.wait(5.0)  # the only worker is held
        queued = [
            threading.Thread(target=submit, args=(f"queued-{n}",))
            for n in range(2)
        ]
        for thread in queued:
            thread.start()
        deadline = time.monotonic() + 5.0
        while client.ready().payload.get("queue_depth") != 2:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.02)
        assert client.compile(TINY).status == 429  # at its bound

        stopper = threading.Thread(target=server.stop)
        begun = time.monotonic()
        stopper.start()
        time.sleep(0.2)  # shutdown now waits behind the full queue
        release.set()
        stopper.join(config.drain_seconds)
        elapsed = time.monotonic() - begun
        for thread in (running, *queued):
            thread.join(10.0)
        assert not stopper.is_alive()
        assert elapsed < config.drain_seconds
        assert statuses == {
            "running": 200, "queued-0": 200, "queued-1": 200
        }

    def test_stopped_server_refuses_connections(self, tmp_path):
        import urllib.error

        server = ServerThread(make_config(tmp_path)).start()
        url = server.url
        client = ServerClient(url, timeout=5.0)
        assert client.health().status == 200
        server.stop()
        with pytest.raises(urllib.error.URLError):
            client.health()


# --------------------------------------------------------------------------
# CLI integration (serve is covered by CI smoke; client runs here)
# --------------------------------------------------------------------------


class TestServeCli:
    def test_flags_map_onto_config_and_unset_ones_keep_its_defaults(
        self, monkeypatch
    ):
        import repro.server

        configs = []
        monkeypatch.setattr(
            repro.server, "serve", lambda config: configs.append(config)
        )
        main(["serve"])
        main(
            [
                "serve", "--port", "0", "--workers", "3",
                "--queue-limit", "5", "--deadline", "7",
                "--drain-seconds", "2", "--cache-dir", "c",
            ]
        )
        main(["serve", "--no-cache"])
        default, flagged, uncached = configs
        assert default == ServerConfig()
        assert flagged == ServerConfig(
            port=0, workers=3, queue_limit=5, default_deadline=7.0,
            drain_seconds=2.0, cache_root="c",
        )
        assert uncached.cache_root == ""

    @pytest.fixture
    def served(self, monkeypatch):
        import repro.server

        configs = []
        monkeypatch.setattr(
            repro.server, "serve", lambda config: configs.append(config)
        )
        return configs

    def test_fault_plan_needs_the_environment_gate(
        self, served, monkeypatch, capsys
    ):
        monkeypatch.delenv(ENABLE_FAULTS_ENV, raising=False)
        assert main(["serve", "--fault-plan", CHAOS_PLAN]) == 1
        assert ENABLE_FAULTS_ENV in capsys.readouterr().err
        assert served == []
        monkeypatch.setenv(ENABLE_FAULTS_ENV, "1")
        main(["serve", "--fault-plan", CHAOS_PLAN])
        assert served[0].fault_plan_path == CHAOS_PLAN

    def test_server_refuses_a_fault_plan_without_the_gate(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(ENABLE_FAULTS_ENV, raising=False)
        config = make_config(tmp_path, fault_plan_path=CHAOS_PLAN)
        with pytest.raises(ValueError, match=ENABLE_FAULTS_ENV):
            CompileServer(config)

    @pytest.mark.parametrize(
        "text",
        ["{not json", '{"rules": [{"site": "pool.worker", "kind": "x"}]}'],
    )
    def test_malformed_fault_plan_is_refused(
        self, tmp_path, served, monkeypatch, capsys, text
    ):
        monkeypatch.setenv(ENABLE_FAULTS_ENV, "1")
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        assert main(["serve", "--fault-plan", str(plan)]) == 1
        assert "repro: error:" in capsys.readouterr().err
        assert served == []
        config = make_config(tmp_path, fault_plan_path=str(plan))
        with pytest.raises(FaultPlanError):
            CompileServer(config)

    @pytest.mark.parametrize(
        "plan, culprit",
        [
            ({"rules": [{"site": 5, "kind": "crash"}]}, "'site'"),
            ({"rules": [{"site": "cache.wrte", "kind": "crash"}]},
             "'cache.wrte'"),
            ({"rules": [{"site": "gctd.run", "kind": 1}]}, "'kind'"),
            ({"rules": [{"site": "gctd.run", "kind": "crash",
                         "rate": "0.5"}]}, "'rate'"),
            ({"rules": [{"site": "gctd.run", "kind": "crash",
                         "rate": True}]}, "'rate'"),
            ({"rules": [{"site": "gctd.run", "kind": "crash",
                         "max_fires": 2.9}]}, "'max_fires'"),
            ({"rules": [{"site": "gctd.run", "kind": "hang",
                         "delay_seconds": "0.1"}]}, "'delay_seconds'"),
            ({"seed": True, "rules": []}, "'seed'"),
            ({"name": 3, "rules": []}, "'name'"),
        ],
    )
    def test_mistyped_fault_plan_is_refused(
        self, tmp_path, served, monkeypatch, capsys, plan, culprit
    ):
        monkeypatch.setenv(ENABLE_FAULTS_ENV, "1")
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        with pytest.raises(FaultPlanError, match=re.escape(culprit)):
            load_fault_plan(path)
        assert main(["serve", "--fault-plan", str(path)]) == 1
        assert culprit in capsys.readouterr().err
        assert served == []

    def test_serve_reads_the_fault_plan_once(self, monkeypatch):
        import repro.server.app as app
        import repro.server.config as config_module

        loads = []
        load = config_module.load_fault_plan
        monkeypatch.setattr(
            config_module,
            "load_fault_plan",
            lambda path: loads.append(path) or load(path),
        )
        built = []

        async def build_only(config):
            built.append(CompileServer(config))

        monkeypatch.setattr(app, "_serve_async", build_only)
        monkeypatch.setenv(ENABLE_FAULTS_ENV, "1")
        argv = ["serve", "--no-cache", "--fault-plan", CHAOS_PLAN]
        assert main(argv) == 0
        assert loads == [CHAOS_PLAN]
        assert built[0].injector.enabled


class TestClientCli:
    @pytest.fixture
    def mfile(self, tmp_path):
        path = tmp_path / "prog.m"
        path.write_text(PROGRAM)
        return str(path)

    def test_client_compile_round_trip(self, server, mfile, capsys):
        assert (
            main(["client", "compile", mfile, "--url", server.url])
            == 0
        )
        out = capsys.readouterr().out
        assert "variables at GCTD" in out
        assert "cache_hit             : False" in out
        assert (
            main(["client", "compile", mfile, "--url", server.url])
            == 0
        )
        out = capsys.readouterr().out
        assert "cache_hit             : True" in out

    @pytest.mark.parametrize("flags", [[], ["--no-gctd"]])
    def test_client_prints_the_same_stats_as_compile(
        self, server, mfile, capsys, flags
    ):
        # one renderer, fed locally by the result and remotely by the
        # wire reply; --no-gctd checks the options cross the wire too
        assert main(["compile", mfile, *flags]) == 0
        local = capsys.readouterr().out.splitlines()[:6]
        assert (
            main(["client", "compile", mfile, "--url", server.url, *flags])
            == 0
        )
        remote = capsys.readouterr().out.splitlines()[:6]
        assert remote == local
        assert local[0] == "entry function        : prog"
        gctd_on = not flags
        assert (local[2] == "subsumed (s/d)        : 0/0") != gctd_on

    def test_client_emit_c(self, server, mfile, capsys):
        main(
            [
                "client", "compile", mfile,
                "--url", server.url, "--emit-c",
            ]
        )
        assert "int main(void)" in capsys.readouterr().out

    def test_client_compile_error_exits_nonzero(
        self, server, tmp_path, capsys
    ):
        bad = tmp_path / "bad.m"
        bad.write_text("x = ) nope\n")
        code = main(
            ["client", "compile", str(bad), "--url", server.url]
        )
        assert code == 1
        assert "422" in capsys.readouterr().err

    def test_client_health_and_metrics(self, server, capsys):
        assert main(["client", "health", "--url", server.url]) == 0
        assert '"ok": true' in capsys.readouterr().out
        assert main(["client", "metrics", "--url", server.url]) == 0
        assert "repro_requests_total" in capsys.readouterr().out

    def test_client_unreachable_server_exits_nonzero(self, capsys):
        code = main(
            [
                "client", "health",
                "--url", "http://127.0.0.1:9",  # discard port
                "--timeout", "2",
            ]
        )
        assert code == 1
        assert "cannot reach server" in capsys.readouterr().err
