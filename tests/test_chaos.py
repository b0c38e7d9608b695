"""Chaos suite: the compile server under seeded fault schedules.

A :class:`FaultInjector` running :func:`chaos_plan` is wired into a
real :class:`ServerThread` while retrying clients hammer it from
several threads.  Whatever the schedule does — torn cache writes,
GCTD crashes, dead workers, dropped connections — the invariants must
hold:

* the server survives the run and still answers ``/readyz``;
* every 2xx body parses, reports ``ok``, and carries a clean
  verification report (degraded or not — never corrupt);
* every non-2xx is a typed error envelope with ``code`` + ``message``;
* quarantined cache entries are never served again.

The schedules themselves are deterministic: with serial consultation,
the same seed injects exactly the same faults, so any failure here
replays from the seed in the test name.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import CompileRequest, ErrorEnvelope
from repro.faults import ALL_SITES, FaultInjector, chaos_plan
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.client import TRANSPORT_ERRORS, RetryPolicy

PROGRAMS = [
    "a = ones(4); b = a * 2; disp(sum(sum(b)));\n",
    "x = zeros(5); y = x + 3; disp(sum(sum(y)));\n",
    "p = ones(3); q = p + p; r = q * 2; disp(sum(sum(r)));\n",
]


def make_config(tmp_path, **overrides) -> ServerConfig:
    values = {
        "port": 0,
        "workers": 2,
        "queue_limit": 16,
        "cache_root": str(tmp_path / "cache"),
        "drain_seconds": 5.0,
    }
    values.update(overrides)
    return ServerConfig(**values)


def make_client(url, seed=0):
    return ServerClient(
        url,
        timeout=30.0,
        retry=RetryPolicy(
            retries=6, backoff_seconds=0.01,
            max_backoff_seconds=0.1, seed=seed,
        ),
    )


def check_response(response, failures, index):
    """Apply the per-response invariants; record violations."""
    if response.status == 200:
        if not response.payload.get("ok"):
            failures.append(f"request {index}: 2xx without ok=true")
        verification = response.payload.get("verification")
        if not isinstance(verification, dict) or not verification.get(
            "ok"
        ):
            failures.append(
                f"request {index}: 2xx without clean verification: "
                f"{verification!r}"
            )
        # a corrupt body would have failed json parsing inside the
        # client; re-serialize to prove the payload is well-formed
        json.dumps(response.payload)
    else:
        envelope = response.envelope()
        if not isinstance(envelope, ErrorEnvelope):
            failures.append(f"request {index}: non-2xx without envelope")
        elif not envelope.code or not envelope.message:
            failures.append(
                f"request {index}: envelope missing code/message: "
                f"{response.payload!r}"
            )


class TestChaos:
    def test_plan_covers_the_required_surface(self):
        plan = chaos_plan(0)
        assert len({r.site for r in plan.rules}) >= 4
        assert len({r.kind for r in plan.rules}) >= 5

    @pytest.mark.parametrize("seed", [20030609, 7])
    def test_server_survives_concurrent_chaos(self, tmp_path, seed):
        injector = FaultInjector(chaos_plan(seed, rate=0.25))
        config = make_config(tmp_path / f"s{seed}")
        failures: list[str] = []
        with ServerThread(config, injector=injector) as server:
            def one(index):
                client = make_client(server.url, seed=index)
                program = PROGRAMS[index % len(PROGRAMS)]
                try:
                    response = client.compile(
                        CompileRequest(
                            {"main.m": program},
                            name=f"chaos-{index}",
                            verify_plan=True,
                        )
                    )
                except TRANSPORT_ERRORS:
                    return  # retry budget lost to dropped connections
                check_response(response, failures, index)

            with ThreadPoolExecutor(max_workers=6) as pool:
                list(pool.map(one, range(30)))

            # the server must still be standing and answering; the
            # probe retries because the injector can drop its replies
            probe = make_client(server.url)
            ready = probe.ready()
            assert ready.status == 200, ready.text
            metrics = probe.metrics_text()

        assert not failures, "\n".join(failures)
        # the run was a real chaos run, not a quiet one
        assert injector.injected, "no faults fired; rate/seed too tame"
        fired_sites = {site for site, _ in injector.counts()}
        assert fired_sites & set(ALL_SITES)
        assert "repro_faults_injected_total" in metrics

    def test_quarantined_entries_are_never_served(self, tmp_path):
        from repro.service.cache import ArtifactCache

        # drive cache.write hard so torn/corrupt payloads land on disk
        injector = FaultInjector(chaos_plan(99, rate=0.6))
        config = make_config(tmp_path)
        with ServerThread(config, injector=injector) as server:
            client = make_client(server.url)
            for program in PROGRAMS * 2:
                try:
                    client.compile(
                        CompileRequest({"main.m": program}, verify_plan=True)
                    )
                except TRANSPORT_ERRORS:
                    continue
            cache_root = server.server.cache.root

        # first sweep over the survivors quarantines anything corrupt
        sweep = ArtifactCache(cache_root)
        for fingerprint in sweep.entries():
            sweep.load(fingerprint)
        for name in sweep.quarantined_entries():
            assert (sweep.quarantine_dir() / name).is_dir()

        # second sweep: everything still in served position is clean —
        # no load quarantines, and whatever loads really unpickled
        clean = ArtifactCache(cache_root)
        for fingerprint in clean.entries():
            clean.load(fingerprint)
        assert clean.stats.quarantined == 0
        assert clean.stats.repairs == 0

    def test_same_seed_replays_the_same_schedule(self, tmp_path):
        """Serial consultation: identical runs inject identical faults."""

        def run(tag):
            injector = FaultInjector(chaos_plan(4242, rate=0.3))
            config = make_config(tmp_path / tag, workers=1)
            with ServerThread(config, injector=injector) as server:
                client = make_client(server.url)
                for index in range(8):
                    program = PROGRAMS[index % len(PROGRAMS)]
                    try:
                        client.compile(
                            CompileRequest(
                                {"main.m": program}, verify_plan=True
                            )
                        )
                    except TRANSPORT_ERRORS:
                        pass
            return injector.counts()

        first = run("one")
        second = run("two")
        assert first == second
        assert first, "schedule fired nothing; not a chaos replay"
