"""Shared fixtures for the table/figure regeneration harness.

The measurement pass (11 benchmarks × 2 compiles × 4 runs) is
:func:`repro.bench.experiments.collect_all`, the same sweep `repro
bench` prints: it fans over a process pool and degrades to serial if
the pool cannot start.  Its records land in the per-process memo, so
the per-figure files share this one sweep.
"""

import pytest

from repro.bench.experiments import collect_all


@pytest.fixture(scope="session")
def records():
    records, infos, _executor = collect_all()
    failures = [f"{i['name']}: {i['error']}" for i in infos if "error" in i]
    assert not failures, failures
    return records
