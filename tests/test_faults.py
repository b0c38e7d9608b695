"""Tests for :mod:`repro.faults` and every hardened injection path.

Covers the fault-plan data model, injector determinism, the cache's
checksum/quarantine machinery, the cc-backend injection point, the
retrying client (through the ``_attempt`` seam, no sockets), and
graceful degradation to the mcc all-heap plan — including the property that the fallback verifies clean on every
benchmark and that degraded responses round-trip over the wire.
"""

import errno
import json
import pickle

import pytest
import urllib.error
from hypothesis import given, settings, strategies as st

from repro.bench.suite import BENCHMARK_NAMES, load_sources
from repro.compiler.pipeline import compile_program
from repro.core.gctd import mcc_fallback_result
from repro.faults import (
    ALL_KINDS,
    ALL_SITES,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    chaos_plan,
    load_fault_plan,
)
from repro.server.client import ClientResponse, RetryPolicy, ServerClient
from repro.service.cache import ArtifactCache
from repro.verify.checker import verify_plan

PROGRAM = "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"
SOURCES = {"main.m": PROGRAM}


def gctd_crash_injector(seed: int = 1, **rule_kw) -> FaultInjector:
    return FaultInjector(
        FaultPlan(
            seed=seed,
            rules=(FaultRule("gctd.run", "crash", **rule_kw),),
        )
    )


# --------------------------------------------------------------------------
# Fault plans
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = chaos_plan(42, rate=0.25)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert load_fault_plan(path) == plan

    def test_dict_round_trip_every_kind(self):
        for kind in ALL_KINDS:
            rule = FaultRule("cache.write", kind, rate=0.5, max_fires=2)
            assert FaultRule.from_dict(rule.to_dict()) == rule

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule("cache.write", "meteor_strike").validate()

    def test_bad_rate_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule("cache.write", "crash", rate=1.5).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 1, "surprise": True})
        with pytest.raises(FaultPlanError):
            FaultRule.from_dict(
                {"site": "cache.write", "kind": "crash", "oops": 1}
            )

    def test_bad_file_rejected(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(FaultPlanError):
            load_fault_plan(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultPlanError):
            load_fault_plan(bad)

    def test_chaos_plan_covers_the_required_surface(self):
        plan = chaos_plan(7)
        sites = {rule.site for rule in plan.rules}
        kinds = {rule.kind for rule in plan.rules}
        assert len(sites) >= 4
        assert len(kinds) >= 5
        assert sites <= set(ALL_SITES)


# --------------------------------------------------------------------------
# Injector
# --------------------------------------------------------------------------


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        schedule = []
        for _ in range(2):
            injector = FaultInjector(chaos_plan(11, rate=0.4))
            for _ in range(50):
                injector.pick("cache.write")
            schedule.append(
                [fault.to_dict() for fault in injector.injected]
            )
        assert schedule[0] == schedule[1]
        assert schedule[0]  # something actually fired

    def test_different_seed_different_schedule(self):
        def run(seed):
            injector = FaultInjector(chaos_plan(seed, rate=0.4))
            for _ in range(50):
                injector.pick("cache.write")
            return [fault.to_dict() for fault in injector.injected]

        assert run(1) != run(2)

    def test_disabled_injector_never_fires(self):
        injector = FaultInjector()
        assert not injector.enabled
        assert injector.pick("cache.write") is None
        injector.interrupt("gctd.run")  # no-op
        assert injector.mangle("cache.write", b"abc") == b"abc"

    def test_max_fires_caps_a_rule(self):
        injector = FaultInjector(
            FaultPlan(
                seed=0,
                rules=(
                    FaultRule("x", "crash", rate=1.0, max_fires=3),
                ),
            )
        )
        fired = sum(
            injector.pick("x") is not None for _ in range(10)
        )
        assert fired == 3

    def test_interrupt_crash_raises(self):
        injector = gctd_crash_injector()
        with pytest.raises(FaultInjected):
            injector.interrupt("gctd.run")

    def test_interrupt_enospc_raises_oserror(self):
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule("s", "enospc"),))
        )
        with pytest.raises(OSError) as info:
            injector.interrupt("s")
        assert info.value.errno == errno.ENOSPC

    def test_interrupt_hang_sleeps(self):
        naps = []
        injector = FaultInjector(
            FaultPlan(
                rules=(
                    FaultRule("s", "hang", delay_seconds=0.125),
                )
            ),
            sleep=naps.append,
        )
        injector.interrupt("s")
        assert naps == [0.125]

    def test_mangle_torn_and_corrupt(self):
        torn = FaultInjector(
            FaultPlan(rules=(FaultRule("s", "torn_write"),))
        )
        assert torn.mangle("s", b"0123456789") == b"01234"
        corrupt = FaultInjector(
            FaultPlan(rules=(FaultRule("s", "corrupt_bytes"),))
        )
        data = b"0123456789" * 10
        mangled = corrupt.mangle("s", data)
        assert mangled != data and len(mangled) == len(data)

    def test_on_fire_hook_and_counts(self):
        seen = []
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule("s", "crash", max_fires=2),)),
            on_fire=seen.append,
        )
        for _ in range(5):
            injector.pick("s")
        assert len(seen) == 2
        assert injector.counts() == {("s", "crash"): 2}


# --------------------------------------------------------------------------
# Cache hardening: checksums, quarantine, ENOSPC tolerance
# --------------------------------------------------------------------------


class TestCacheHardening:
    def _store_one(self, cache):
        result = compile_program(SOURCES, cache=cache)
        fingerprint = cache.fingerprint(SOURCES, None, None)
        assert cache.object_dir(fingerprint).is_dir()
        return result, fingerprint

    def test_meta_records_checksums(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        _, fingerprint = self._store_one(cache)
        meta = json.loads(
            (cache.object_dir(fingerprint) / "meta.json").read_text()
        )
        assert set(meta["checksums"]) == {"plan"}

    def test_corrupt_plan_is_quarantined_not_served(self, tmp_path):
        quarantined = []
        cache = ArtifactCache(
            tmp_path / "cache", on_quarantine=quarantined.append
        )
        _, fingerprint = self._store_one(cache)
        plan_path = cache.object_dir(fingerprint) / "plan"
        # flip bytes but keep it a valid pickle prefix-wise: the
        # checksum must catch it even if unpickling might not
        plan_path.write_bytes(b"\xff" + plan_path.read_bytes()[1:])

        fresh = ArtifactCache(
            tmp_path / "cache", on_quarantine=quarantined.append
        )
        assert fresh.load(fingerprint) is None
        assert fresh.stats.quarantined == 1
        assert fresh.stats.misses == 1
        assert quarantined == [fingerprint]
        # the entry moved aside — preserved for autopsy, never served
        assert not fresh.object_dir(fingerprint).exists()
        assert fresh.quarantined_entries() == [f"{fingerprint}-0"]
        # recompile transparently re-derives a clean entry
        compile_program(SOURCES, cache=fresh)
        assert fresh.load(fingerprint) is not None
        assert fresh.quarantined_entries() == [f"{fingerprint}-0"]

    def test_injected_torn_write_round_trips_to_quarantine(
        self, tmp_path
    ):
        """End to end: fault on write -> checksum catches it on load."""
        injector = FaultInjector(
            FaultPlan(
                rules=(
                    FaultRule(
                        "cache.write", "torn_write", max_fires=1
                    ),
                )
            )
        )
        cache = ArtifactCache(tmp_path / "cache", injector=injector)
        _, fingerprint = self._store_one(cache)
        assert injector.injected  # the write really was torn
        fresh = ArtifactCache(tmp_path / "cache")
        assert fresh.load(fingerprint) is None
        assert fresh.stats.quarantined == 1

    def test_injected_enospc_degrades_to_memory_only(self, tmp_path):
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule("cache.write", "enospc"),))
        )
        cache = ArtifactCache(tmp_path / "cache", injector=injector)
        result = compile_program(SOURCES, cache=cache)
        fingerprint = cache.fingerprint(SOURCES, None, None)
        assert cache.stats.write_errors >= 1
        # no disk entry, but the same process still serves from memory
        assert not cache.object_dir(fingerprint).exists()
        assert cache.load(fingerprint) is result

    def test_entry_without_checksum_is_repaired(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        _, fingerprint = self._store_one(cache)
        meta_path = cache.object_dir(fingerprint) / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["checksums"]
        meta_path.write_text(json.dumps(meta))
        fresh = ArtifactCache(tmp_path / "cache")
        # nothing vouches for the plan: a repairable miss, not corruption
        assert fresh.load(fingerprint) is None
        assert fresh.stats.misses == 1 and fresh.stats.repairs == 1
        assert fresh.stats.quarantined == 0
        assert fresh.quarantined_entries() == []
        assert not fresh.object_dir(fingerprint).exists()
        # the recompile stores a clean, checksummed entry
        compile_program(SOURCES, cache=fresh)
        meta = json.loads(meta_path.read_text())
        assert set(meta["checksums"]) == {"plan"}
        again = ArtifactCache(tmp_path / "cache")
        assert again.load(fingerprint) is not None
        assert again.stats.hits == 1 and again.stats.repairs == 0


# --------------------------------------------------------------------------
# cc backend injection
# --------------------------------------------------------------------------


class TestCCInjection:
    def test_injected_crash_preempts_compile(self):
        from repro.backend.cc import compile_and_run

        injector = FaultInjector(
            FaultPlan(rules=(FaultRule("cc.compile", "crash"),))
        )
        with pytest.raises(FaultInjected):
            compile_and_run("int main(void){return 0;}",
                            injector=injector)

    def test_injected_hang_delays_then_proceeds_or_fails_cleanly(self):
        naps = []
        injector = FaultInjector(
            FaultPlan(
                rules=(
                    FaultRule(
                        "cc.compile", "hang", delay_seconds=0.01
                    ),
                )
            ),
            sleep=naps.append,
        )
        from repro.backend.cc import CCompilerUnavailable, compile_and_run

        try:
            compile_and_run("int main(void){return 0;}",
                            injector=injector)
        except CCompilerUnavailable:
            pass  # no host cc in this environment; the hang still fired
        assert naps == [0.01]


# --------------------------------------------------------------------------
# Retrying client (through the _attempt seam — no sockets)
# --------------------------------------------------------------------------


class ScriptedClient(ServerClient):
    """ServerClient whose attempts follow a canned script."""

    def __init__(self, script, **kwargs):
        kwargs.setdefault("sleep", self._record_sleep)
        super().__init__("http://test.invalid", **kwargs)
        self.script = list(script)
        self.attempts = 0
        self.naps = []

    def _record_sleep(self, seconds):
        self.naps.append(seconds)

    def _attempt(self, request):
        self.attempts += 1
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def _response(status, payload=None, headers=None):
    payload = payload if payload is not None else {"ok": status == 200}
    return ClientResponse(
        status=status,
        payload=payload,
        text=json.dumps(payload),
        headers=headers or {},
    )


class TestRetryPolicy:
    def test_no_policy_means_single_attempt(self):
        client = ScriptedClient([_response(503)])
        assert client.get("/readyz").status == 503
        assert client.attempts == 1

    def test_retries_until_success(self):
        client = ScriptedClient(
            [
                urllib.error.URLError("refused"),
                _response(503),
                _response(200),
            ],
            retry=RetryPolicy(retries=3, backoff_seconds=0.01, seed=7),
        )
        assert client.get("/readyz").status == 200
        assert client.attempts == 3
        assert len(client.naps) == 2

    def test_budget_exhaustion_returns_last_response(self):
        client = ScriptedClient(
            [_response(503), _response(503)],
            retry=RetryPolicy(retries=1, backoff_seconds=0.0),
        )
        assert client.get("/readyz").status == 503
        assert client.attempts == 2

    def test_budget_exhaustion_raises_last_transport_error(self):
        client = ScriptedClient(
            [
                urllib.error.URLError("a"),
                urllib.error.URLError("b"),
            ],
            retry=RetryPolicy(retries=1, backoff_seconds=0.0),
        )
        with pytest.raises(urllib.error.URLError):
            client.get("/readyz")

    def test_hard_4xx_is_not_retried(self):
        client = ScriptedClient(
            [_response(400)],
            retry=RetryPolicy(retries=5, backoff_seconds=0.0),
        )
        assert client.get("/readyz").status == 400
        assert client.attempts == 1

    def test_retry_after_header_overrides_backoff(self):
        client = ScriptedClient(
            [
                _response(429, headers={"Retry-After": "0.25"}),
                _response(200),
            ],
            retry=RetryPolicy(retries=1, backoff_seconds=99.0,
                              max_backoff_seconds=99.0),
        )
        assert client.get("/readyz").status == 200
        assert client.naps == [0.25]

    def test_retry_after_detail_overrides_backoff(self):
        payload = {
            "ok": False,
            "detail": {"retry_after_seconds": 0.125},
        }
        client = ScriptedClient(
            [_response(429, payload=payload), _response(200)],
            retry=RetryPolicy(retries=1, backoff_seconds=99.0,
                              max_backoff_seconds=99.0),
        )
        assert client.get("/readyz").status == 200
        assert client.naps == [0.125]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(
            retries=3, backoff_seconds=0.1, max_backoff_seconds=0.5,
            seed=3,
        )

        def schedule():
            client = ScriptedClient(
                [_response(503)] * 3 + [_response(200)], retry=policy
            )
            client.get("/readyz")
            return client.naps

        first, second = schedule(), schedule()
        assert first == second
        for attempt, nap in enumerate(first):
            assert 0.0 <= nap <= min(0.5, 0.1 * 2**attempt)


# --------------------------------------------------------------------------
# Graceful degradation
# --------------------------------------------------------------------------


class TestDegradation:
    def test_injected_crash_degrades_and_verifies(self):
        result = compile_program(
            SOURCES, degrade=True, injector=gctd_crash_injector(),
            verify_plan=True,
        )
        assert result.degraded
        assert "gctd failed" in result.degraded_reason
        assert result.verification.ok
        assert not any(g.is_stack for g in result.plan.groups)

    def test_without_degrade_the_crash_propagates(self):
        with pytest.raises(FaultInjected):
            compile_program(SOURCES, injector=gctd_crash_injector())

    def test_degraded_results_are_not_cached(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        injector = gctd_crash_injector(max_fires=1)
        degraded = compile_program(
            SOURCES, degrade=True, injector=injector, cache=cache
        )
        assert degraded.degraded
        fingerprint = cache.fingerprint(SOURCES, None, None)
        assert cache.load(fingerprint) is None
        # the next compile (fault budget spent) is clean and cached
        clean = compile_program(
            SOURCES, degrade=True, injector=injector, cache=cache
        )
        assert not clean.degraded
        assert cache.load(fingerprint) is not None

    def test_degraded_executes_like_the_real_plan(self):
        real = compile_program(SOURCES)
        degraded = compile_program(
            SOURCES, degrade=True, injector=gctd_crash_injector()
        )
        assert degraded.run_mat2c(aliased=True).output == \
            real.run_mat2c(aliased=True).output

    def test_old_pickles_without_the_field_read_as_undegraded(self):
        result = compile_program(SOURCES)
        clone = pickle.loads(pickle.dumps(result))
        assert getattr(clone, "degraded", False) is False


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_mcc_fallback_verifies_clean_on_every_benchmark(name):
    """The degradation target is sound for the whole paper suite."""
    result = compile_program(load_sources(name))
    fallback = mcc_fallback_result(result.ssa_func, result.env)
    report = verify_plan(result.ssa_func, result.env, fallback.plan)
    assert report.ok, report.summary()
    assert not any(g.is_stack for g in fallback.plan.groups)


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_degradation_under_random_fault_seeds_is_always_sound(seed):
    """Whatever the schedule does to GCTD, the result verifies."""
    injector = FaultInjector(chaos_plan(seed, rate=0.5))
    result = compile_program(
        SOURCES, degrade=True, injector=injector, verify_plan=True
    )
    assert result.verification.ok
    if result.degraded:
        assert not any(g.is_stack for g in result.plan.groups)


@settings(max_examples=30)
@given(
    degraded=st.booleans(),
    name=st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd")
        ),
        max_size=12,
    ),
    wall=st.floats(
        min_value=0.0, max_value=1e3, allow_nan=False
    ),
)
def test_degraded_responses_round_trip_the_wire(degraded, name, wall):
    from repro.api import CompileResponse, CompileStats

    response = CompileResponse(
        name=name,
        fingerprint="f" * 64,
        entry="main",
        wall_seconds=wall,
        stats=CompileStats(variables=3, degraded=degraded),
        report="r",
        degraded=degraded,
    )
    wire = response.to_wire()
    assert ("degraded" in wire) == degraded
    assert ("degraded" in wire["stats"]) == degraded
    clone = CompileResponse.from_wire(
        json.loads(json.dumps(wire))
    )
    assert clone.degraded == degraded
    assert clone.stats.degraded == degraded
    assert clone.to_wire() == wire
