"""The IR execution engine and the mat2c meter (GCTD-allocated storage)."""

from repro.vm.base import Engine, ExecutionLimitExceeded, ExecutionResult
from repro.vm.executor import Mat2CMeter
from repro.vm.work import computation_work

__all__ = [
    "Engine",
    "ExecutionLimitExceeded",
    "ExecutionResult",
    "Mat2CMeter",
    "computation_work",
]
