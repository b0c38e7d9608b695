"""Regenerate EXPERIMENTS.md from a full measurement sweep.

Usage:  python benchmarks/generate_report.py > EXPERIMENTS.md
"""

from __future__ import annotations

import sys

from repro.bench.experiments import (
    collect_all,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    fig5_rows,
    fig6_rows,
    table1_rows,
    table2_rows,
)


def md_table(rows: list[dict]) -> str:
    headers = list(rows[0])
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(row[h]) for h in headers) + " |")
    return "\n".join(out)


HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in *Static Array Storage
Optimization in MATLAB* (Joisha & Banerjee, PLDI 2003).  All numbers
below are regenerated by `pytest benchmarks/` (or this script); the
substrate is the deterministic simulator described in DESIGN.md, so a
re-run reproduces them exactly.

**Reading guide.**  Absolute values are not comparable to the paper's
440 MHz UltraSPARC-IIi/Solaris numbers: our benchmark inputs are scaled
so the whole suite executes in seconds under three Python-hosted
execution models (the paper's fiff used ~451×451 grids; ours are
41×41), and times come from a cycle-accurate *cost model*, not a wall
clock.  What the reproduction is accountable for — and what the
benchmark harness asserts — is the **shape** of every result: who wins,
by roughly what factor, and where the crossovers fall.
"""

SECTIONS = [
    (
        "Table 1 — Benchmark Suite Description",
        table1_rows,
        """Same 11 programs, same organization (a driver invoking the
main routine, FALCON-style), same origins.  Our line counts differ from
the paper's (we rewrote each program in the supported MATLAB subset;
the originals are not distributed), but every program preserves its
documented array-behaviour profile: `fdtd`/`nb3d` use rank-3 arrays,
the FALCON solvers are element-loop codes, `clos`/`diff` are
whole-array codes, and `adpt`/`capr`/`edit`/`nb1d`/`nb3d` obtain their
extents from data-dependent computations (symbolic shapes).""",
    ),
    (
        "Table 2 — Array Storage Coalescing Reductions",
        table2_rows,
        """Shape reproduced: the five benchmarks the paper reports as
fully statically inferred (`clos`, `crni`, `dich`, `fdtd`, `fiff`)
show `d = 0` — MAGICA-style inference resolves every shape, and GCTD
stack-allocates everything.  The symbolically-shaped benchmarks show
`d > 0`: variables with statically *inestimable* sizes still coalesce
through the storage-size partial order's second criterion.  `fiff` has
the largest static reduction (its "large coalescent arrays"), and the
scalar-dominated benchmarks (`adpt`, `nb1d`, `nb3d`, `edit`, `capr`)
reduce under a kilobyte, exactly as in the paper.  Absolute KB are
smaller than the paper's because our grids are scaled down.""",
    ),
    (
        "Figure 2 — Average Stack and Stack+Heap Levels",
        fig2_rows,
        """Shape reproduced: (1) the mcc model's stack segment is flat
at 16 KB on every benchmark ("grows to 16KB and stays at that"); (2)
mat2c's stack peaks exactly on `clos`, `crni`, `fdtd`, `fiff` — the
fully-static benchmarks whose arrays all live in the activation frame;
(3) mat2c's average dynamic data (stack+heap) beats mcc's on every
benchmark, >20% on most (paper: 7 of 11), >100% on some (paper: over
half of those); (4) kcore-min — the time-integrated memory metric of
§4.5.2.1 — favours mat2c everywhere because its executions are also
shorter.""",
    ),
    (
        "Figure 3 — Average Virtual Memory Levels",
        fig3_rows,
        """Shape reproduced: mcc's virtual-memory level includes its
mapped MATLAB math library, so mat2c wins on all 11 benchmarks even
though its inlined binary image is the larger of the two (the paper
notes both effects).  Most savings fall in the paper's 51–139% band.""",
    ),
    (
        "Figure 4 — Average Resident Set Levels",
        fig4_rows,
        """Shape reproduced: resident sets count only touched pages, so
both systems sit below their virtual-memory levels, and mat2c's RSS is
smaller on every benchmark (paper: savings from 5.5% for capr to
279.6% for dich).""",
    ),
    (
        "Figure 5 — Comparative Execution Times",
        fig5_rows,
        """Shape reproduced: mat2c beats the mcc model on every
benchmark; the element-loop FALCON solvers (`crni`, `dich`, `fiff`)
are the order-of-magnitude club (the paper's 82.6×, 257.9×, 91.1×; we
measure the same two-orders regime because library-call compilation
pays run-time checks per *element* there); the whole-array codes
(`clos`, `fdtd`, `diff`) stay in the small-speedup band; `adpt` — all
scalars, which mcc folds to native doubles — is near the bottom, the
paper's "only marginal speedup" case.  Known deviation: our `edit`,
`capr`, `nb1d` and `nb3d` sit higher than the paper's 6.2×/2.1×/11.4×/
1.7× because our rewrites are more subscript-intensive than the (not
distributed) originals.  The interpreter never beats mat2c.""",
    ),
    (
        "Figure 6 — Effect of the GCTD Pass on Execution Times",
        fig6_rows,
        """Shape reproduced: disabling GCTD (every variable its own
storage; SSA-inversion copies stay) never changes program output,
always costs memory, and costs the most time exactly where the paper
says: `fiff`, whose uncoalesced large arrays made the paper's no-GCTD
code "nearly six orders of magnitude slower" (our simulator has no
paging cliff, so the ratio is bounded, but fiff is still the extreme
case), followed by the other large-array and copy-heavy benchmarks.""",
    ),
]


def main() -> None:
    collect_all()  # the one sweep; the row functions read its records
    parts = [HEADER]
    for title, fn, commentary in SECTIONS:
        parts.append(f"## {title}\n")
        parts.append(md_table(fn()))
        parts.append("")
        parts.append(commentary)
        parts.append("")
    parts.append(
        """## Figure 1 — Generated C for the in-place array addition

`benchmarks/test_fig1_codegen.py` regenerates the paper's Figure 1
pattern from a capr-style accumulation `a = a + b`: the emitted C
contains the three-way run-time dispatch (first operand scalar /
second operand scalar / equal shapes) writing through the coalesced
group buffer, and — when a C compiler is available — is compiled and
executed, matching the VM's output byte for byte.

## Reproducing

```
pytest benchmarks/              # regenerate + assert every table/figure
pytest benchmarks/ -s           # also print the tables
python benchmarks/generate_report.py > EXPERIMENTS.md
```
"""
    )
    sys.stdout.write("\n".join(parts))


if __name__ == "__main__":
    main()
