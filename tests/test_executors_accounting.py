"""Unit tests for the execution models' accounting (not just outputs):
box lifetimes in the mcc model, group buffers in the mat2c VM, and the
shared work estimator."""

import pytest

from repro.compiler.pipeline import CompilerOptions, compile_source
from repro.ir.instr import Instr
from repro.mccsim.executor import MXARRAY_HEADER_BYTES, MccMeter
from repro.runtime.builtins import RuntimeContext
from repro.runtime.marray import MArray
from repro.vm.work import computation_work


def compiled(text, **kw):
    return compile_source(text, options=CompilerOptions(**kw))


class TestWorkEstimator:
    def scalar(self, v=1.0):
        return MArray.from_scalar(v)

    def matrix(self, r, c):
        import numpy as np

        return MArray.from_numpy(np.ones((r, c)))

    def test_elementwise_work_is_numel(self):
        instr = Instr(op="add", results=["x"])
        work = computation_work(
            instr, [self.matrix(3, 4), self.matrix(3, 4)],
            [self.matrix(3, 4)],
        )
        assert work == 12

    def test_matmul_work_is_mkn(self):
        instr = Instr(op="mul", results=["x"])
        work = computation_work(
            instr, [self.matrix(3, 4), self.matrix(4, 5)],
            [self.matrix(3, 5)],
        )
        assert work == 3 * 4 * 5

    def test_scalar_matmul_cheap(self):
        instr = Instr(op="mul", results=["x"])
        work = computation_work(
            instr, [self.scalar(), self.matrix(4, 5)],
            [self.matrix(4, 5)],
        )
        assert work == 20

    def test_transcendental_surcharge(self):
        from repro.ir.instr import Var

        instr = Instr(op="call:sin", results=["x"], args=[Var("a")])
        work = computation_work(
            instr, [self.matrix(2, 2)], [self.matrix(2, 2)]
        )
        assert work == 4 * 150

    def test_subsasgn_expansion_charges_copy(self):
        instr = Instr(op="subsasgn", results=["x"])
        small = self.matrix(2, 2)
        grown = self.matrix(4, 4)
        work = computation_work(
            instr, [small, self.scalar(), self.scalar(4),
                    self.scalar(4)], [grown]
        )
        assert work >= grown.numel  # the old elements were copied

    def test_solve_work_cubic(self):
        instr = Instr(op="ldiv", results=["x"])
        work = computation_work(
            instr, [self.matrix(6, 6), self.matrix(6, 1)],
            [self.matrix(6, 1)],
        )
        assert work == pytest.approx(6**3 / 3)


class TestMccModelAccounting:
    def run_mcc(self, text):
        result = compile_source(text)
        meter = MccMeter(result.exec_func)
        [run] = result.run_meters([meter], RuntimeContext(seed=1))
        return meter, run

    def test_array_allocations_include_header(self):
        meter, run = self.run_mcc(
            "a = rand(10); disp(sum(sum(a)));"
        )
        # some allocation must be header + 10*10*8 payload
        assert any(
            size >= MXARRAY_HEADER_BYTES + 800
            for size in [meter.heap.brk]
        )
        assert run.report.mallocs >= 1

    def test_scalar_arithmetic_not_boxed(self):
        meter, run = self.run_mcc("x = 1 + 2 + 3 + 4; disp(x);")
        # folded scalars stay in C doubles: no boxes for the adds
        boxed = run.report.mallocs
        meter2, run2 = self.run_mcc(
            "a = rand(2); b = a + 1; disp(sum(sum(b)));"
        )
        assert run2.report.mallocs > boxed

    def test_named_arrays_persist_temps_die(self):
        meter, run = self.run_mcc(
            "a = rand(8);\n"
            "for k = 1:5\n t = sum(sum(a .* a));\nend\n"
            "disp(t);"
        )
        # temporaries were freed along the way: frees track mallocs
        assert run.report.frees > 0

    def test_flat_stack(self):
        _, run = self.run_mcc("a = rand(30); disp(sum(sum(a)));")
        assert run.report.avg_stack_kb == 16.0


class TestMat2CAccounting:
    def test_stack_program_no_heap(self):
        result = compile_source(
            "a = rand(10); b = a + 1; disp(sum(sum(b)));"
        )
        run = result.run_mat2c(RuntimeContext(seed=1))
        assert run.report.mallocs == 0

    def test_heap_program_single_buffer_per_group(self):
        result = compile_source(
            "n = floor(rand(1) * 5) + 3;\n"
            "a = zeros(n, n); b = a + 1; c = b * 2;\n"
            "disp(sum(sum(c)));"
        )
        run = result.run_mat2c(RuntimeContext(seed=1))
        from repro.core.allocation import StorageClass

        heap_groups = sum(
            1
            for g in result.plan.groups
            if g.storage is StorageClass.HEAP
        )
        # one malloc per heap group touched (plus reallocs, not counted
        # here as fresh mallocs only grow)
        assert 1 <= run.report.mallocs <= heap_groups + 2

    def test_identity_copy_costs_nothing(self):
        # two compilations: one where the copy folds (same group), one
        # with GCTD off (separate storage ⇒ data moves)
        text = (
            "q = rand(1); a = rand(20);\n"
            "if q > 0.5\n b = a + 1;\nelse\n b = a - 1;\nend\n"
            "disp(sum(sum(b)));"
        )
        on = compile_source(text)
        from repro.core.gctd import GCTDOptions

        off = compile_source(
            text, options=CompilerOptions(gctd=GCTDOptions(enabled=False))
        )
        run_on = on.run_mat2c(RuntimeContext(seed=1))
        run_off = off.run_mat2c(RuntimeContext(seed=1))
        assert (
            run_on.report.execution_seconds
            < run_off.report.execution_seconds
        )

    def test_resize_marks_drive_behavior(self):
        # a ∘-marked chain must not realloc between members
        result = compile_source(
            "n = floor(rand(1) * 6) + 3;\n"
            "t0 = rand(n, n); t1 = t0 - 1.0; t2 = t1 * 2.0;\n"
            "disp(sum(sum(t2)));"
        )
        run = result.run_mat2c(RuntimeContext(seed=1))
        # the chain shares one buffer: exactly one heap malloc for it
        assert run.report.mallocs <= 3
