"""Tests for the typed API facade (:mod:`repro.api`).

Three layers: the options' canonical form (property-based), the wire
types against committed golden fixtures (so the `/v1` format cannot
drift silently), and the server's error envelope on every refusal
path (429/500/504 via the ``compile_impl`` seam)."""

import json
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.api import (
    ApiValidationError,
    BatchRequest,
    CompileRequest,
    CompileResponse,
    CompileStats,
    ErrorEnvelope,
    code_for_status,
    options_from_wire,
    options_to_wire,
)
from repro.compiler.pipeline import CompilerOptions
from repro.core.gctd import GCTDOptions
from repro.core.opsem import OpsemConfig
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.service.fingerprint import canonical_options

FIXTURES = Path(__file__).parent / "fixtures"

PROGRAM = "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"


def fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


# --------------------------------------------------------------------------
# options canonical form
# --------------------------------------------------------------------------


def option_sets():
    opsem = st.builds(
        OpsemConfig,
        use_type_info=st.booleans(),
        enabled=st.booleans(),
    )
    gctd = st.builds(
        GCTDOptions,
        enabled=st.booleans(),
        opsem=opsem,
        phi_coalescing=st.booleans(),
        phase2_symbolic=st.booleans(),
        verify=st.booleans(),
    )
    return st.builds(
        CompilerOptions,
        gctd=gctd,
        enable_cse=st.booleans(),
        enable_constfold=st.booleans(),
        enable_shapefold=st.booleans(),
        max_steps=st.integers(min_value=1, max_value=10**9),
    )


@given(option_sets())
def test_canonical_options_is_asdict(options):
    assert canonical_options(options) == asdict(options)


# --------------------------------------------------------------------------
# wire options
# --------------------------------------------------------------------------


class TestWireOptions:
    def test_defaults(self):
        assert options_from_wire(None) == CompilerOptions()
        assert options_from_wire({}) == CompilerOptions()
        assert options_to_wire(CompilerOptions()) == {}
        assert options_to_wire(None) == {}

    def test_unknown_key_message_matches_server(self):
        with pytest.raises(ApiValidationError) as exc:
            options_from_wire({"frob": 1})
        assert str(exc.value) == "unknown options: ['frob']"

    def test_round_trip(self):
        wire = {"gctd": False, "cse": False}
        options = options_from_wire(wire)
        assert not options.gctd.enabled
        assert not options.enable_cse
        assert options_to_wire(options) == {"gctd": False, "cse": False}


# --------------------------------------------------------------------------
# golden fixtures
# --------------------------------------------------------------------------


class TestGoldenFixtures:
    def golden_request(self) -> CompileRequest:
        return CompileRequest(
            sources={"main.m": "a = ones(3); disp(sum(sum(a)));\n"},
            entry="main",
            options=options_from_wire({"gctd": False, "cse": False}),
            name="golden",
            verify_plan=True,
            deadline_seconds=12.5,
        )

    def test_compile_request_matches_golden(self):
        assert self.golden_request().to_wire() == fixture(
            "compile_request.json"
        )

    def test_compile_request_round_trips(self):
        wire = fixture("compile_request.json")
        assert CompileRequest.from_wire(wire).to_wire() == wire

    def test_batch_request_matches_golden(self):
        batch = BatchRequest(items=[self.golden_request()])
        assert batch.to_wire() == fixture("batch_request.json")
        rebuilt = BatchRequest.from_wire(fixture("batch_request.json"))
        assert rebuilt.to_wire() == fixture("batch_request.json")

    def test_compile_response_matches_golden(self):
        response = CompileResponse(
            ok=True,
            name="golden",
            fingerprint="f" * 64,
            cache_hit=False,
            entry="main",
            wall_seconds=0.25,
            stats=CompileStats(
                variables=12,
                static_subsumed=4,
                dynamic_subsumed=1,
                storage_reduction_kb=0.5,
                colors=3,
                groups=5,
                stack_frame_bytes=96,
            ),
            report="== report ==",
            verification={
                "ok": True,
                "checks": {},
                "variables": 12,
                "groups": 5,
                "violations": [],
            },
        )
        assert response.to_wire() == fixture("compile_response.json")
        rebuilt = CompileResponse.from_wire(
            fixture("compile_response.json")
        )
        assert rebuilt.to_wire() == fixture("compile_response.json")

    def test_response_key_order_is_stable(self):
        # the pre-facade server emitted exactly this order; clients
        # diffing raw JSON depend on it staying put
        wire = CompileResponse(
            ok=True, stats=CompileStats()
        ).to_wire()
        assert list(wire) == [
            "ok",
            "name",
            "fingerprint",
            "cache_hit",
            "entry",
            "wall_seconds",
            "stats",
            "report",
        ]

    def test_error_envelope_matches_golden(self):
        envelope = ErrorEnvelope(
            code="queue_full",
            message="compile queue is full, retry later",
            detail={"retry_after_seconds": 1.0},
            status=429,
        )
        assert envelope.to_wire() == fixture("error_envelope.json")

    def test_error_envelope_keeps_legacy_keys(self):
        wire = ErrorEnvelope(code="bad_request", message="nope").to_wire()
        assert wire["ok"] is False
        assert wire["error"] == "nope"  # pre-envelope clients read this


# --------------------------------------------------------------------------
# request validation and envelope parsing
# --------------------------------------------------------------------------


class TestValidation:
    def test_missing_sources(self):
        with pytest.raises(ApiValidationError) as exc:
            CompileRequest.from_wire({})
        assert "missing 'sources'" in str(exc.value)

    def test_bad_source_types(self):
        with pytest.raises(ApiValidationError) as exc:
            CompileRequest.from_wire({"sources": {"a.m": 3}})
        assert "'sources' must map str -> str" in str(exc.value)

    def test_bad_entry(self):
        with pytest.raises(ApiValidationError):
            CompileRequest.from_wire(
                {"sources": {"a.m": "x = 1\n"}, "entry": 7}
            )

    def test_name_is_a_string_or_absent(self):
        # str() used to coerce it: true became the name "True"
        sources = {"a.m": "x = 1\n"}
        for value in (True, 3, {"a": 1}, ["x"]):
            body = {"sources": sources, "name": value}
            with pytest.raises(ApiValidationError, match="'name' must be"):
                CompileRequest.from_wire(body)
            with pytest.raises(ApiValidationError, match="'name' must be"):
                BatchRequest.from_wire({"requests": [body]})
        assert CompileRequest.from_wire({"sources": sources}).name == ""
        null = {"sources": sources, "name": None}
        assert CompileRequest.from_wire(null).name == ""
        batch = BatchRequest.from_wire({"requests": [null]})
        assert batch.items[0].name == "request-0"

    def test_batch_missing_requests(self):
        with pytest.raises(ApiValidationError) as exc:
            BatchRequest.from_wire({})
        assert "missing 'requests'" in str(exc.value)

    def test_batch_names_defaulted_by_index(self):
        batch = BatchRequest.from_wire(
            {
                "requests": [
                    {"sources": {"a.m": "x = 1\n"}},
                    {"sources": {"b.m": "x = 2\n"}, "name": "named"},
                ]
            }
        )
        assert [item.name for item in batch.items] == [
            "request-0",
            "named",
        ]

    def test_envelope_from_legacy_body(self):
        envelope = ErrorEnvelope.from_wire(
            {"ok": False, "error": "kaput"}, 500
        )
        assert envelope.code == "internal_error"
        assert envelope.message == "kaput"
        assert envelope.status == 500

    def test_envelope_from_empty_body(self):
        envelope = ErrorEnvelope.from_wire(None, 504)
        assert envelope.code == "deadline_exceeded"
        assert "504" in envelope.message
        assert ErrorEnvelope.from_wire({}).message == "unknown error"

    def test_envelope_message_without_status(self):
        envelope = ErrorEnvelope.from_wire({"message": "boom"})
        assert envelope.message == "boom"
        legacy = ErrorEnvelope.from_wire({"ok": False, "error": "kaput"})
        assert legacy.message == "kaput"

    def test_batch_ignores_legacy_jobs(self):
        # schema version 1 carried a no-op ``jobs``; old bodies still
        # parse, to the same request as without it
        body = {"requests": [{"sources": {"a.m": "x = 1\n"}}]}
        for jobs in (2, "many", None):
            legacy = BatchRequest.from_wire({**body, "jobs": jobs})
            assert legacy == BatchRequest.from_wire(body)
            assert "jobs" not in legacy.to_wire()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    @pytest.mark.parametrize("key", ["gctd", "cse", "constfold", "shapefold"])
    def test_wire_options_must_be_booleans(self, key, value):
        with pytest.raises(ApiValidationError) as exc:
            options_from_wire({key: value})
        assert f"'{key}' must be true or false" in str(exc.value)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, {}])
    @pytest.mark.parametrize("key", ["emit_c", "verify_plan"])
    def test_request_flags_must_be_booleans(self, key, value):
        body = {"sources": {"a.m": "x = 1\n"}, key: value}
        with pytest.raises(ApiValidationError) as exc:
            CompileRequest.from_wire(body)
        assert f"'{key}' must be true or false" in str(exc.value)
        with pytest.raises(ApiValidationError):
            BatchRequest.from_wire({"requests": [body]})

    @pytest.mark.parametrize("value", [True, "2", 0, -1, [], float("nan")])
    def test_deadline_must_be_a_positive_number(self, value):
        # float(True) is 1.0 and float("2") is 2.0: neither is a number
        body = {"sources": {"a.m": "x = 1\n"}, "deadline_seconds": value}
        with pytest.raises(ApiValidationError) as exc:
            CompileRequest.from_wire(body)
        assert "'deadline_seconds' must be a number > 0" in str(exc.value)
        with pytest.raises(ApiValidationError):
            BatchRequest.from_wire(
                {"requests": [{"sources": body["sources"]}],
                 "deadline_seconds": value}
            )
        with pytest.raises(ApiValidationError):
            BatchRequest.from_wire({"requests": [body]})

    @pytest.mark.parametrize("value", [None, 2, 0.25, 1e9])
    def test_deadline_parses_as_sent(self, value):
        body = {"sources": {"a.m": "x = 1\n"}, "deadline_seconds": value}
        assert CompileRequest.from_wire(body).deadline_seconds == value
        batch = BatchRequest.from_wire(
            {"requests": [{"sources": body["sources"]}],
             "deadline_seconds": value}
        )
        assert batch.deadline_seconds == value

    def test_boolean_flags_parse_as_sent(self):
        request = CompileRequest.from_wire(
            {
                "sources": {"a.m": "x = 1\n"},
                "options": {"gctd": False, "cse": True},
                "emit_c": False,
                "verify_plan": True,
            }
        )
        assert not request.options.gctd.enabled
        assert request.options.enable_cse
        assert not request.emit_c and request.verify_plan

    def test_code_for_status_covers_server_statuses(self):
        for status in (400, 404, 405, 413, 422, 429, 500, 503, 504):
            assert not code_for_status(status).startswith("http_")
        assert code_for_status(418) == "http_418"

    def test_summary_mentions_status_code_and_message(self):
        envelope = ErrorEnvelope.from_wire(
            {"code": "queue_full", "message": "full",
             "detail": {"retry_after_seconds": 2}},
            429,
        )
        line = envelope.summary()
        assert "429" in line
        assert "queue_full" in line
        assert "full" in line
        assert "retry after 2s" in line


# --------------------------------------------------------------------------
# server refusal paths carry the envelope
# --------------------------------------------------------------------------


def make_config(tmp_path, **overrides) -> ServerConfig:
    values = {
        "port": 0,
        "workers": 1,
        "queue_limit": 8,
        "cache_root": str(tmp_path / "cache"),
        "drain_seconds": 5.0,
    }
    values.update(overrides)
    return ServerConfig(**values)


def assert_envelope(response, status: int, code: str) -> ErrorEnvelope:
    assert response.status == status
    payload = response.payload
    # legacy keys stay for pre-envelope clients…
    assert payload["ok"] is False
    assert payload["error"] == payload["message"]
    # …and the typed envelope rides along
    assert payload["code"] == code
    assert isinstance(payload["detail"], dict)
    envelope = response.envelope()
    assert envelope.code == code
    assert envelope.status == status
    return envelope


class _InjectedCrash(BaseException):
    """Not an Exception: simulates a worker-killing failure."""


class TestServerErrorEnvelopes:
    def test_429_queue_full_envelope(self, tmp_path):
        release = threading.Event()

        def impl(request):
            release.wait(10.0)
            return {"ok": True}

        config = make_config(tmp_path, queue_limit=1)
        with ServerThread(config, compile_impl=impl) as server:
            client = ServerClient(server.url, timeout=30.0)
            responses = []
            threads = [
                threading.Thread(
                    target=lambda: responses.append(
                        client.compile(CompileRequest({"m.m": PROGRAM}))
                    )
                )
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            # wait until the overflow requests have been shed
            deadline = time.monotonic() + 5.0
            while (
                len(responses) < 4 and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            release.set()
            for t in threads:
                t.join(10.0)
            shed = [r for r in responses if r.status == 429]
            assert shed, "expected at least one shed request"
            envelope = assert_envelope(shed[0], 429, "queue_full")
            assert envelope.detail["retry_after_seconds"] > 0
            assert "retry after" in envelope.summary()

    def test_500_crash_envelope(self, tmp_path):
        def impl(request):
            raise _InjectedCrash("boom")

        with ServerThread(
            make_config(tmp_path), compile_impl=impl
        ) as server:
            client = ServerClient(server.url, timeout=30.0)
            response = client.compile(CompileRequest({"m.m": PROGRAM}))
            assert_envelope(response, 500, "internal_error")

    def test_504_deadline_envelope(self, tmp_path):
        def impl(request):
            time.sleep(5.0)
            return {"ok": True}

        with ServerThread(
            make_config(tmp_path), compile_impl=impl
        ) as server:
            client = ServerClient(server.url, timeout=30.0)
            response = client.compile(
                CompileRequest({"m.m": PROGRAM}, deadline_seconds=0.2)
            )
            envelope = assert_envelope(
                response, 504, "deadline_exceeded"
            )
            assert envelope.detail["deadline_seconds"] == 0.2

    def test_400_bad_options_envelope(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as server:
            client = ServerClient(server.url, timeout=30.0)
            response = client.post_json(
                "/v1/compile",
                {"sources": {"m.m": PROGRAM}, "options": {"frob": 1}},
            )
            envelope = assert_envelope(response, 400, "bad_request")
            assert "frob" in envelope.message

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/compile", {"options": {"gctd": "false"}}),
            ("/v1/compile", {"options": {"cse": 0}}),
            ("/v1/compile", {"emit_c": "false"}),
            ("/v1/compile", {"verify_plan": 1}),
            ("/v1/batch", {"options": {"shapefold": "no"}}),
        ],
    )
    def test_400_non_boolean_flag_envelope(self, tmp_path, path, body):
        # bool("false") is True: a string must not switch a flag on
        compile_body = {"sources": {"m.m": PROGRAM}, **body}
        if path == "/v1/batch":
            compile_body = {"requests": [compile_body]}
        with ServerThread(make_config(tmp_path)) as server:
            client = ServerClient(server.url, timeout=30.0)
            response = client.post_json(path, compile_body)
            envelope = assert_envelope(response, 400, "bad_request")
            assert "must be true or false" in envelope.message

    @pytest.mark.parametrize("path", ["/v1/compile", "/v1/batch"])
    def test_400_bad_deadline_envelope(self, tmp_path, path):
        # the server used to coerce with float(): true ran as 1 s, "2"
        # as 2 s
        with ServerThread(make_config(tmp_path)) as server:
            client = ServerClient(server.url, timeout=30.0)
            for value in (True, "2", 0, -1, []):
                body = {"sources": {"m.m": PROGRAM}}
                if path == "/v1/batch":
                    body = {"requests": [body]}
                body["deadline_seconds"] = value
                response = client.post_json(path, body)
                envelope = assert_envelope(response, 400, "bad_request")
                assert "deadline_seconds" in envelope.message

    @pytest.mark.parametrize("path", ["/v1/compile", "/v1/batch"])
    def test_400_non_string_name_envelope(self, tmp_path, path):
        body = {"sources": {"m.m": PROGRAM}, "name": True}
        if path == "/v1/batch":
            body = {"requests": [{"sources": {"m.m": PROGRAM}}, body]}
        with ServerThread(make_config(tmp_path)) as server:
            client = ServerClient(server.url, timeout=30.0)
            response = client.post_json(path, body)
            envelope = assert_envelope(response, 400, "bad_request")
            assert "'name' must be a string" in envelope.message

    def test_422_compile_error_envelope(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as server:
            client = ServerClient(server.url, timeout=30.0)
            response = client.compile(CompileRequest({"m.m": "x = (((\n"}))
            assert_envelope(response, 422, "compile_error")


# --------------------------------------------------------------------------
# the facade's request type keeps its constructor
# --------------------------------------------------------------------------


class TestDriverUsesFacadeRequest:
    def test_positional_construction_still_works(self):
        request = CompileRequest(
            {"a.m": "x = 1\n"}, options=None, name="r"
        )
        assert request.sources == {"a.m": "x = 1\n"}
        assert request.name == "r"
        assert replace(request, name="s").name == "s"
