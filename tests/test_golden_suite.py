"""Two suite programs against the committed golden modelled results.

``perfbench/golden_suite.json`` pins, for every suite program and model
(mat2c, mcc, the interpreter and mat2c without GCTD), the output digest,
step count, every :class:`~repro.memsim.MemoryReport` field, mallocs and
frees.  The benchmark's correctness gate checks all 11 programs; this
test checks adpt (stack groups only), nb1d (heap groups), fdtd (whose
rank-3 1×1×1 values the executors keep boxed) and fiff (the most
scalar traffic) so that a local test run catches a moved bit too.  It
only reads the file.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.bench.suite import compile_benchmark
from repro.compiler.pipeline import CompilerOptions
from repro.core.gctd import GCTDOptions
from repro.runtime.builtins import RuntimeContext

GOLDEN = json.loads(
    (
        Path(__file__).resolve().parent.parent
        / "perfbench"
        / "golden_suite.json"
    ).read_text()
)


def _record(result) -> dict:
    record = asdict(result.report)
    record["steps"] = result.steps
    record["output_sha256"] = hashlib.sha256(
        result.output.encode("utf-8")
    ).hexdigest()
    return record


@pytest.mark.parametrize("name", ["adpt", "nb1d", "fdtd", "fiff"])
def test_modelled_results_match_the_golden_file(name):
    on = compile_benchmark(name)
    off = compile_benchmark(
        name, CompilerOptions(gctd=GCTDOptions(enabled=False))
    )
    runs = {
        "mat2c": on.run_mat2c,
        "mcc": on.run_mcc,
        "interp": on.run_interpreter,
        "mat2c_nogctd": off.run_mat2c,
    }
    expected = GOLDEN["programs"][name]["models"]
    for model, run in runs.items():
        got = _record(run(RuntimeContext(seed=GOLDEN["seed"])))
        assert got == expected[model], model
