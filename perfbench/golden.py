"""Golden modelled results of the suite matrix, and the check against them.

The golden file holds, for each of the 11 suite programs, what the
paper's figures are computed from: per model (mat2c, mcc, interp,
mat2c without GCTD) the output digest, modelled execution seconds,
average and peak KB, kcore-min, steps, mallocs and frees; per plan
(GCTD on and off) colors, groups and storage reduction; and the digest
of the generated C.  Wall times, timestamps and fingerprints stay out,
so the file is a pure function of the program.

Regenerate it (about 30 s) with::

    python3 perfbench/golden.py > perfbench/golden_suite.json
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

from common import SUITE_SEED, BenchError, bootstrap

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_suite.json"

MODELS = ("mat2c", "mcc", "interp", "mat2c_nogctd")

_REPORT_FIELDS = (
    "execution_seconds",
    "avg_stack_kb",
    "avg_heap_kb",
    "avg_dynamic_kb",
    "peak_dynamic_kb",
    "avg_virtual_kb",
    "avg_resident_kb",
    "kcore_min",
    "mallocs",
    "frees",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_record(result) -> dict:
    """Modelled numbers of one execution (no wall times)."""
    record = {"output_sha256": sha256(result.output), "steps": result.steps}
    for name in _REPORT_FIELDS:
        record[name] = getattr(result.report, name)
    return record


def plan_record(compilation) -> dict:
    stats = compilation.report
    return {
        "colors": stats.color_count,
        "groups": stats.group_count,
        "storage_reduction_bytes": stats.storage_reduction_bytes,
        "static_subsumed": stats.static_subsumed,
        "dynamic_subsumed": stats.dynamic_subsumed,
    }


def program_record(on, off, runs: dict) -> dict:
    """Golden entry of one program from its two compiles and four runs."""
    return {
        "c_source_sha256": sha256(on.generate_c()),
        "plans": {"gctd": plan_record(on), "nogctd": plan_record(off)},
        "models": {model: model_record(runs[model]) for model in MODELS},
    }


def check_oracle(name: str, runs: dict) -> None:
    """Every model must print what the interpreter prints."""
    oracle = runs["interp"].output
    for model in MODELS:
        if runs[model].output != oracle:
            raise BenchError(
                f"{name}: {model} output differs from the interpreter "
                f"oracle ({len(runs[model].output)} vs {len(oracle)} chars)"
            )


def first_difference(expected, actual, path: str = "") -> str | None:
    """Path and values of the first field where two records differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in list(expected) + [k for k in actual if k not in expected]:
            if key not in expected or key not in actual:
                return f"{path}{key}: present on one side only"
            found = first_difference(expected[key], actual[key], f"{path}{key}.")
            if found:
                return found
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path.rstrip('.')}: golden {expected!r}, got {actual!r}"
    return None


def check_against(golden: dict, name: str, record: dict) -> None:
    """Raise naming the program and first differing field on mismatch."""
    expected = golden["programs"].get(name)
    if expected is None:
        raise BenchError(f"{name}: not in the golden file")
    found = first_difference(expected, record)
    if found:
        raise BenchError(f"{name}: modelled result differs at {found}")


def load_golden() -> dict:
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden.get("seed") != SUITE_SEED:
        raise BenchError(f"golden file was made with seed {golden.get('seed')}")
    return golden


def self_check(golden: dict, name: str, record: dict) -> None:
    """Show that a perturbed golden value is caught by the check."""
    for path in (("models", "mat2c", "execution_seconds"), ("plans", "gctd", "colors")):
        tampered = copy.deepcopy(golden)
        entry = tampered["programs"][name]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = entry[path[-1]] * 2 + 1
        try:
            check_against(tampered, name, record)
        except BenchError:
            continue
        raise BenchError(f"self-check: perturbed golden {'.'.join(path)} not caught")


def build_golden() -> dict:
    bootstrap()
    from suite import compile_pair, load_suite, run_models

    programs = {}
    for name, sources in load_suite():
        on, off = compile_pair(name, sources)
        runs = run_models(on, off)
        check_oracle(name, runs)
        programs[name] = program_record(on, off, runs)
    return {"seed": SUITE_SEED, "programs": programs}


if __name__ == "__main__":
    json.dump(build_golden(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
