"""Differential-execution harness: the plan's dynamic cross-check.

Runs one compiled program under every execution model the repo has —
the AST interpreter (the semantic oracle), one name-keyed VM
evaluation priced by both the mat2c and the mcc meter (so those two
share their output by construction), and the storage-aliased mat2c
run — and diffs the printed outputs.  The aliased run is the sharp
one: reads and writes go through the shared group buffers, so an
unsound coalescing decision corrupts values and shows up as an output
mismatch.

It also cross-checks the memory meter against the plan: the mat2c
stack segment must equal the page-rounded environment-plus-frame size
predicted by ``plan.stack_frame_bytes()``, and every heap allocation
must be freed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsim.heap import PAGE_SIZE
from repro.memsim.stack import INITIAL_STACK_BYTES
from repro.mccsim.executor import MccMeter
from repro.runtime.builtins import RuntimeContext
from repro.vm.executor import FRAME_OVERHEAD_BYTES, Mat2CMeter

#: the default RNG seed every model runs under (same as the bench suite)
DEFAULT_SEED = 20030609


@dataclass(slots=True)
class DifferentialReport:
    """Agreement matrix for one program."""

    name: str = ""
    models_run: tuple[str, ...] = ()
    problems: list[str] = field(default_factory=list)
    steps: dict[str, int] = field(default_factory=dict)
    predicted_stack_bytes: int = 0
    observed_stack_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "name": self.name,
            "models_run": list(self.models_run),
            "problems": list(self.problems),
            "steps": dict(self.steps),
            "predicted_stack_bytes": self.predicted_stack_bytes,
            "observed_stack_bytes": self.observed_stack_bytes,
        }

    def summary(self) -> str:
        label = self.name or "program"
        if self.ok:
            return (
                f"{label}: {len(self.models_run)} models agree, "
                f"meter matches plan "
                f"({self.observed_stack_bytes} B stack)"
            )
        lines = [f"{label}: {len(self.problems)} problem(s)"]
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)


def _page_round(size: int) -> int:
    return (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


def run_differential(
    result,
    *,
    name: str = "",
    seed: int = DEFAULT_SEED,
    check_meter: bool = True,
) -> DifferentialReport:
    """Execute ``result`` under all models and diff against the oracle.

    ``result`` is a :class:`repro.compiler.pipeline.CompilationResult`;
    every evaluation gets its own :class:`RuntimeContext` with the
    same seed, so ``rand`` streams are identical across models.
    """
    report = DifferentialReport(name=name)

    oracle = result.run_interpreter(RuntimeContext(seed=seed))
    mat2c, mcc = result.run_meters(
        [Mat2CMeter(result.exec_func, result.plan),
         MccMeter(result.exec_func)],
        RuntimeContext(seed=seed),
    )
    aliased = result.run_mat2c(RuntimeContext(seed=seed), aliased=True)
    report.models_run = ("interp", "mat2c", "mat2c-aliased", "mcc")
    for model, run in zip(report.models_run, (oracle, mat2c, aliased, mcc)):
        report.steps[model] = run.steps
    for model, run in (("mat2c", mat2c), ("mat2c-aliased", aliased)):
        if run.output != oracle.output:
            report.problems.append(
                f"{model} output diverges from the interpreter oracle "
                f"({_diff_hint(run.output, oracle.output)})"
            )
    if not oracle.output.strip():
        report.problems.append(
            "program printed nothing; differential comparison is vacuous"
        )

    if check_meter:
        _check_meter(result, mat2c, report)
    return report


def _check_meter(result, mat2c_run, report: DifferentialReport) -> None:
    """Meter totals must match the plan's predicted footprint."""
    predicted = _page_round(
        INITIAL_STACK_BYTES
        + result.plan.stack_frame_bytes()
        + FRAME_OVERHEAD_BYTES
    )
    observed = round(mat2c_run.report.avg_stack_kb * 1024)
    report.predicted_stack_bytes = predicted
    report.observed_stack_bytes = observed
    if observed != predicted:
        report.problems.append(
            f"mat2c stack segment is {observed} B but the plan "
            f"predicts {predicted} B "
            f"(frame {result.plan.stack_frame_bytes()} B)"
        )
    mem = mat2c_run.report
    if mem.mallocs != mem.frees:
        report.problems.append(
            f"mat2c heap leaks: {mem.mallocs} mallocs vs "
            f"{mem.frees} frees"
        )


def _diff_hint(got: str, want: str) -> str:
    """First differing line, for a readable one-line diagnosis."""
    got_lines = got.splitlines()
    want_lines = want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"first diff at line {i + 1}: {g!r} != {w!r}"
    return (
        f"line counts differ: {len(got_lines)} vs {len(want_lines)}"
    )
