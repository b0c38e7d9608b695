"""Compiles are re-entrant and independent of process history.

Each ``compile_program`` call draws fresh dimensions from its own
source, so concurrent compiles cannot disturb each other, and a
program's report, C translation and plan are the same whatever the
process compiled before.
"""

import hashlib
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.suite import BENCHMARK_NAMES, load_sources
from repro.compiler.pipeline import compile_program
from repro.compiler.reports import full_report


def _compile(name):
    return compile_program(load_sources(name), f"{name}_drv")


def _digest(result) -> tuple[str, str, str]:
    """(report, C, plan) of one compile, as SHA-256 hex digests."""
    return (
        hashlib.sha256(full_report(result).encode()).hexdigest(),
        hashlib.sha256(result.generate_c().encode()).hexdigest(),
        hashlib.sha256(pickle.dumps(result.plan, protocol=5)).hexdigest(),
    )


@pytest.fixture(scope="module")
def serial():
    return {name: _digest(_compile(name)) for name in BENCHMARK_NAMES}


def test_threads_compiling_the_suite_match_serial(serial):
    names = list(BENCHMARK_NAMES) * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: races show up
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            digests = list(
                pool.map(
                    lambda name: _digest(_compile(name)), names, timeout=300
                )
            )
    finally:
        sys.setswitchinterval(interval)
    for name, digest in zip(names, digests):
        assert digest == serial[name], name


@pytest.mark.parametrize("name", ["capr", "edit", "nb1d", "nb3d", "adpt"])
def test_compile_after_others_matches_compile_alone(serial, name):
    for other in BENCHMARK_NAMES:
        if other != name:
            _compile(other)
    assert _digest(_compile(name)) == serial[name]
