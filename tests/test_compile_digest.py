"""Compile output against a committed digest.

``tests/fixtures/compile_digest.json`` holds, for each of the 11 suite
programs and for ``genprog`` seeds 1–3 at 100 and 400 statements, each
compiled with GCTD on and off, the SHA-256 of the full report, the C
translation, the pickled allocation plan and the IR (the SSA function
GCTD saw, then the executable one).  A refactor of the compiler must
leave every one of them equal, bit for bit.  Regenerate the file (only
for a change that is meant to move the compile output) with::

    PYTHONPATH=src python tests/test_compile_digest.py --write
"""

import hashlib
import importlib.util
import json
import pickle
import sys
from pathlib import Path

import pytest

from repro.bench.suite import BENCHMARK_NAMES, load_sources
from repro.compiler.pipeline import CompilerOptions, compile_program
from repro.compiler.reports import full_report
from repro.core.gctd import GCTDOptions

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "compile_digest.json"
GENERATED = [(seed, size) for seed in (1, 2, 3) for size in (100, 400)]
#: generated programs compiled only under ``-m slow``
SLOW_GENERATED = [(1, 800)]


def _genprog():
    path = ROOT / "perfbench" / "genprog.py"
    spec = importlib.util.spec_from_file_location("genprog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(sources: dict[str, str], entry: str, gctd: bool) -> dict:
    options = CompilerOptions(gctd=GCTDOptions(enabled=gctd))
    result = compile_program(sources, entry, options)
    ir = f"{result.ssa_func}\n\n{result.exec_func}"
    return {
        "report": _sha(full_report(result).encode()),
        "c": _sha(result.generate_c().encode()),
        "plan": _sha(pickle.dumps(result.plan, protocol=5)),
        "ir": _sha(ir.encode()),
    }


def suite_digest(name: str, gctd: bool) -> dict:
    return _digest(load_sources(name), f"{name}_drv", gctd)


def generated_digest(seed: int, size: int, gctd: bool) -> dict:
    sources, entry = _genprog().program_sources(seed, size)
    return _digest(sources, entry, gctd)


def _gctd_key(gctd: bool) -> str:
    return "gctd" if gctd else "nogctd"


def _suite_key(name: str, gctd: bool) -> str:
    return f"suite-{name}-{_gctd_key(gctd)}"


def _generated_key(seed: int, size: int, gctd: bool) -> str:
    return f"seed{seed}-{size}-{_gctd_key(gctd)}"


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("gctd", [True, False], ids=_gctd_key)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_compiles_to_the_digest(expected, name, gctd):
    assert suite_digest(name, gctd) == expected[_suite_key(name, gctd)]


@pytest.mark.parametrize("gctd", [True, False], ids=_gctd_key)
@pytest.mark.parametrize(
    "seed, size",
    GENERATED
    + [pytest.param(*case, marks=pytest.mark.slow) for case in SLOW_GENERATED],
)
def test_generated_programs_compile_to_the_digest(expected, seed, size, gctd):
    got = generated_digest(seed, size, gctd)
    assert got == expected[_generated_key(seed, size, gctd)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {}
    for gctd in (True, False):
        for name in BENCHMARK_NAMES:
            table[_suite_key(name, gctd)] = suite_digest(name, gctd)
        for seed, size in GENERATED + SLOW_GENERATED:
            table[_generated_key(seed, size, gctd)] = generated_digest(
                seed, size, gctd
            )
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
