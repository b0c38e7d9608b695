"""Scripted load test for the compile server (acceptance criterion).

Drives 224 requests from 32 concurrent client threads through a real
server with a deliberately small admission queue (workers=2,
queue_limit=4).  Every request must come back as a well-formed JSON
response — 200 or 429, never a hang and never a 500 — some load must
actually be shed, repeat submissions must hit the artifact cache, and
``/metrics`` must agree with the client-side tally afterwards.

Real pipeline, compile-only (no gcc, no execution): fast lane.
"""

import collections
import threading
import time

from repro.api import CompileRequest
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.metrics import MetricsRegistry

CLIENTS = 32
REQUESTS_PER_CLIENT = 7  # 32 × 7 = 224 ≥ 200
DISTINCT_PROGRAMS = 8


def program(index: int, name: str = "") -> CompileRequest:
    # Same shape, different constants: distinct fingerprints, so the
    # suite exercises both cold compiles and cache hits.
    text = (
        f"a = ones({2 + index});\n"
        f"b = a * {index + 1};\n"
        "c = b + a;\n"
        "disp(sum(sum(c)));\n"
    )
    return CompileRequest({f"prog{index}.m": text}, name=name)


def test_load_shedding_cache_and_metrics(tmp_path):
    config = ServerConfig(
        port=0,
        workers=2,
        queue_limit=4,
        cache_root=str(tmp_path / "cache"),
        default_deadline=60.0,
        drain_seconds=15.0,
    )
    outcomes: list[tuple[int, dict]] = []
    record_lock = threading.Lock()

    with ServerThread(config) as server:
        url = server.url

        def client_main(client_index: int) -> None:
            client = ServerClient(url, timeout=60.0)
            for n in range(REQUESTS_PER_CLIENT):
                index = (client_index + n) % DISTINCT_PROGRAMS
                response = client.compile(
                    program(index, name=f"c{client_index}-r{n}")
                )
                with record_lock:
                    outcomes.append((response.status, response.payload))

        threads = [
            threading.Thread(target=client_main, args=(i,))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            # A hang is a failure: join with a bounded timeout.
            thread.join(120.0)
        assert all(not t.is_alive() for t in threads), "client hang"

        total = CLIENTS * REQUESTS_PER_CLIENT
        assert len(outcomes) == total

        by_status = collections.Counter(
            status for status, _payload in outcomes
        )
        # Never a 500, never anything but success or shed.
        assert set(by_status) <= {200, 429}, by_status
        assert by_status[200] >= 1
        assert by_status[429] >= 1, "bounded queue never shed load"

        # Every response is well-formed JSON with the expected shape.
        for status, payload in outcomes:
            if status == 200:
                assert payload["ok"] is True
                assert len(payload["fingerprint"]) == 64
                assert "stats" in payload
            else:
                assert payload["ok"] is False
                assert "error" in payload

        # Repeat submissions hit the artifact cache: the 8 distinct
        # programs were submitted ~28 times each, so far more 200s
        # than cold compiles — everything beyond the first compile of
        # each program must be a hit, and a direct resubmission now
        # definitely is.
        client = ServerClient(url, timeout=60.0)
        repeat = client.compile(program(0))
        assert repeat.status == 200
        assert repeat.payload["cache_hit"] is True
        hits_seen = sum(
            1
            for status, payload in outcomes
            if status == 200 and payload.get("cache_hit")
        )
        cold_compiles = by_status[200] - hits_seen
        assert cold_compiles >= DISTINCT_PROGRAMS  # one per program
        if by_status[200] > 2 * DISTINCT_PROGRAMS:
            assert hits_seen > 0

        # /metrics agrees with the client-side tally.  The worker
        # decrements the in-flight gauge just after delivering its
        # result, so give the counters a moment to quiesce.
        deadline = time.monotonic() + 5.0
        while True:
            samples = MetricsRegistry().parse_rendered(
                client.metrics_text()
            )
            settled = (
                samples["repro_queue_depth"] == 0
                and samples["repro_inflight_jobs"] == 0
            )
            if settled or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        ok_count = samples.get(
            'repro_requests_total{endpoint="/v1/compile", '
            'status="200"}',
            0,
        )
        shed_count = samples.get(
            'repro_requests_total{endpoint="/v1/compile", '
            'status="429"}',
            0,
        )
        assert ok_count == by_status[200] + 1  # + the repeat probe
        assert shed_count == by_status[429]
        assert samples["repro_shed_total"] == by_status[429]
        hits = samples["repro_cache_hits_total"]
        misses = samples["repro_cache_misses_total"]
        assert hits + misses == samples.get(
            'repro_compiles_total{result="ok"}', 0
        )
        assert hits >= 1
        assert samples["repro_queue_depth"] == 0
        assert samples["repro_inflight_jobs"] == 0
        latency_count = samples.get(
            'repro_request_seconds_count{endpoint="/v1/compile"}', 0
        )
        assert latency_count == total + 1
