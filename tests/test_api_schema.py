"""Drift tests for the committed `/v1` schema (``api-schema.json``).

Two gates: the committed golden must equal the schema the facade
currently derives (catches *any* drift, compatible or not), and
:func:`schema_compatibility_problems` must classify synthetic breaking
changes correctly (so the gate itself is trusted)."""

import copy
import json
from pathlib import Path

from repro.__main__ import main
from repro.api import (
    api_schema,
    schema_compatibility_problems,
    schema_text,
)

GOLDEN_PATH = Path(__file__).parent.parent / "api-schema.json"


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenSchema:
    def test_golden_file_exists_and_parses(self):
        doc = golden()
        assert doc["schema_version"] == 2
        assert "/v1/compile" in doc["endpoints"]

    def test_schema_matches_golden_exactly(self):
        assert api_schema() == golden(), (
            "api-schema.json is stale; regenerate with "
            "`python -m repro api-schema --write` and review the diff"
        )

    def test_schema_text_matches_golden_bytes(self):
        assert schema_text() == GOLDEN_PATH.read_text()

    def test_no_compatibility_problems_against_golden(self):
        assert schema_compatibility_problems(golden(), api_schema()) == []

    def test_schema_is_json_normalized(self):
        doc = api_schema()
        assert doc == json.loads(json.dumps(doc))

    def test_all_wire_types_described(self):
        types = api_schema()["types"]
        for name in (
            "CompileRequest",
            "BatchRequest",
            "CompileResponse",
            "CompileStats",
            "ErrorEnvelope",
        ):
            assert name in types
            assert types[name]["fields"]

    def test_sources_is_the_only_required_request_field(self):
        fields = api_schema()["types"]["CompileRequest"]["fields"]
        required = [n for n, f in fields.items() if f["required"]]
        assert required == ["sources"]


class TestCompatibilityChecker:
    def test_removed_type_flagged(self):
        old, new = golden(), api_schema()
        del new["types"]["CompileStats"]
        problems = schema_compatibility_problems(old, new)
        assert "type removed: CompileStats" in problems

    def test_removed_field_flagged(self):
        old, new = golden(), api_schema()
        del new["types"]["CompileResponse"]["fields"]["fingerprint"]
        problems = schema_compatibility_problems(old, new)
        assert any("field removed" in p for p in problems)

    def test_changed_field_type_flagged(self):
        old, new = golden(), api_schema()
        new["types"]["CompileStats"]["fields"]["colors"]["type"] = "str"
        problems = schema_compatibility_problems(old, new)
        assert any("field type changed" in p for p in problems)

    def test_new_required_field_flagged(self):
        old, new = golden(), api_schema()
        new["types"]["CompileRequest"]["fields"]["token"] = {
            "type": "str",
            "required": True,
        }
        problems = schema_compatibility_problems(old, new)
        assert "new field is required: CompileRequest.token" in problems

    def test_new_optional_field_is_compatible(self):
        old, new = golden(), api_schema()
        new["types"]["CompileRequest"]["fields"]["hint"] = {
            "type": "str | None",
            "required": False,
        }
        assert schema_compatibility_problems(old, new) == []

    def test_repurposed_error_code_flagged(self):
        old, new = golden(), api_schema()
        new["error_codes"]["429"] = "too_many_requests"
        problems = schema_compatibility_problems(old, new)
        assert any("error code repurposed: 429" in p for p in problems)

    def test_removed_error_code_flagged(self):
        old, new = golden(), api_schema()
        del new["error_codes"]["504"]
        problems = schema_compatibility_problems(old, new)
        assert any("error code removed: 504" in p for p in problems)

    def test_removed_wire_option_key_flagged(self):
        old, new = golden(), api_schema()
        new["wire_option_keys"].remove("cse")
        problems = schema_compatibility_problems(old, new)
        assert "wire option key removed: cse" in problems

    def test_removed_endpoint_flagged(self):
        old, new = golden(), api_schema()
        del new["endpoints"]["/v1/batch"]
        problems = schema_compatibility_problems(old, new)
        assert "endpoint removed: /v1/batch" in problems

    def test_endpoint_method_change_flagged(self):
        old, new = golden(), api_schema()
        new["endpoints"]["/healthz"]["method"] = "POST"
        problems = schema_compatibility_problems(old, new)
        assert any(
            "endpoint method changed: /healthz" in p for p in problems
        )

    def test_drift_is_asymmetric(self):
        # removing a field breaks old->new but adding one (the reverse
        # direction) is fine
        old = golden()
        new = copy.deepcopy(old)
        del new["types"]["CompileResponse"]["fields"]["report"]
        assert schema_compatibility_problems(old, new)
        assert schema_compatibility_problems(new, old) == []


class TestCli:
    def test_api_schema_check_passes(self, capsys):
        assert main(["api-schema", "--check"]) == 0

    def test_api_schema_prints_json(self, capsys):
        assert main(["api-schema"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == api_schema()
