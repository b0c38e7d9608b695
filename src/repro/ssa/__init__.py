"""SSA construction, inversion, and verification."""

from repro.ssa.construct import base_name, construct_ssa
from repro.ssa.invert import invert_ssa, split_critical_edges
from repro.ssa.verify import verify_ssa

__all__ = [
    "base_name",
    "construct_ssa",
    "invert_ssa",
    "split_critical_edges",
    "verify_ssa",
]
