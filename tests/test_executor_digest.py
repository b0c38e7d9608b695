"""Every executor against a committed digest of generated programs.

``tests/fixtures/executor_digest.json`` holds, for ``genprog`` seeds
1–3 at 100 and 400 statements, every :class:`~repro.memsim.MemoryReport`
field, the step count and the output digest of mat2c, the aliased
mat2c run, mat2c without GCTD, mcc (priced beside both mat2c plans in
one three-meter ``run_meters`` evaluation) and the interpreter.  A
change to how the executors represent or compute values must leave
every one of them equal, bit for bit.  Regenerate the file (only for a
change that is meant to move the modelled results) with::

    PYTHONPATH=src python tests/test_executor_digest.py --write
"""

import hashlib
import importlib.util
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.compiler.pipeline import CompilerOptions, compile_program
from repro.core.gctd import GCTDOptions
from repro.mccsim.executor import MccMeter
from repro.runtime.builtins import RuntimeContext
from repro.vm.executor import Mat2CMeter

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "executor_digest.json"
CASES = [(seed, size) for seed in (1, 2, 3) for size in (100, 400)]


def _genprog():
    path = ROOT / "perfbench" / "genprog.py"
    spec = importlib.util.spec_from_file_location("genprog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(result) -> dict:
    record = asdict(result.report)
    record["steps"] = result.steps
    record["output_sha256"] = hashlib.sha256(
        result.output.encode("utf-8")
    ).hexdigest()
    return record


def digest(seed: int, size: int) -> dict:
    """The records of every executor on one generated program."""
    sources, entry = _genprog().program_sources(seed, size)
    on = compile_program(sources, entry)
    off = compile_program(
        sources, entry, CompilerOptions(gctd=GCTDOptions(enabled=False))
    )
    meters = on.run_meters(
        [
            Mat2CMeter(on.exec_func, on.plan),
            Mat2CMeter(on.exec_func, off.plan),
            MccMeter(on.exec_func),
        ],
        RuntimeContext(seed=seed),
    )
    return {
        "mat2c": _record(on.run_mat2c(RuntimeContext(seed=seed))),
        "mat2c_aliased": _record(
            on.run_mat2c(RuntimeContext(seed=seed), aliased=True)
        ),
        "mat2c_nogctd": _record(off.run_mat2c(RuntimeContext(seed=seed))),
        "meters": [_record(result) for result in meters],
        "interp": _record(on.run_interpreter(RuntimeContext(seed=seed))),
    }


def _key(seed: int, size: int) -> str:
    return f"seed{seed}-{size}"


@pytest.mark.parametrize(
    "seed, size",
    [
        (seed, size) if size < 400
        else pytest.param(seed, size, marks=pytest.mark.slow)
        for seed, size in CASES
    ],
)
def test_executors_match_the_digest(seed, size):
    expected = json.loads(FIXTURE.read_text())[_key(seed, size)]
    got = digest(seed, size)
    assert got == expected
    # the three-meter evaluation prices mat2c exactly as the one-meter runs
    assert got["meters"][:2] == [got["mat2c"], got["mat2c_nogctd"]]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {_key(seed, size): digest(seed, size) for seed, size in CASES}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
