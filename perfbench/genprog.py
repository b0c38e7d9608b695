"""Seeded generator of large MATLAB programs for ``compile-large``.

A program is straight-line code over 3x3 matrices and scalars with
small ``for`` loops and ``if`` blocks mixed in.  Every statement maps
values in [-1.2, 1.2] back into that range (averages, halved products,
``sin``/``cos``, quarter matrix products), so no value overflows to
inf or nan however long the program is.  Operands come from the six
most recently assigned variables of their kind and an assignment
overwrites the least recently assigned one, so live ranges stay short
and the interference graph grows about linearly with program size.

The same ``(seed, statements)`` always gives the same text::

    python3 perfbench/genprog.py --seed 7 --statements 200
"""

from __future__ import annotations

import argparse
import random

#: each template: (format, number of matrix operands, number of scalar operands)
_MATRIX_TEMPLATES = (
    ("{t} = 0.5 * ({m0} + {m1});", 2, 0),
    ("{t} = {m0} .* {m1} / 2;", 2, 0),
    ("{t} = sin({m0}) + 0.1 * {m1};", 2, 0),
    ("{t} = cos({m0}) .* {m1};", 2, 0),
    ("{t} = {m0} * {m1} / 4;", 2, 0),
    ("{t} = {m0}';", 1, 0),
    ("{t} = abs({m0}) - 0.5;", 1, 0),
    ("{t} = {m0} * (0.5 * {s0});", 1, 1),
)
_SCALAR_TEMPLATES = (
    ("{t} = sum(sum({m0})) / 9;", 1, 0),
    ("{t} = {m0}({i}, {j});", 1, 0),
    ("{t} = 0.9 * {s0} + 0.1;", 0, 1),
    ("{t} = sin({s0}) * {s1};", 0, 2),
)
_STORE_TEMPLATE = ("{t}({i}, {j}) = {s0};", 0, 1)


class _Pools:
    """Variable names, most recently assigned last."""

    def __init__(self, rng: random.Random, matrices: int, scalars: int) -> None:
        self.rng = rng
        self.matrices = [f"m{k}" for k in range(1, matrices + 1)]
        self.scalars = [f"s{k}" for k in range(1, scalars + 1)]

    def pick(self, pool: list[str]) -> str:
        return self.rng.choice(pool[-6:])

    @staticmethod
    def touch(pool: list[str], name: str) -> None:
        pool.remove(name)
        pool.append(name)


def _statement(rng: random.Random, pools: _Pools, template) -> str:
    fmt, n_m, n_s = template
    pool = pools.scalars if template in _SCALAR_TEMPLATES else pools.matrices
    fields = {f"m{k}": pools.pick(pools.matrices) for k in range(n_m)}
    fields.update({f"s{k}": pools.pick(pools.scalars) for k in range(n_s)})
    fields["i"], fields["j"] = rng.randint(1, 3), rng.randint(1, 3)
    # assignments overwrite the least recently assigned name, so every
    # value lives for about one turn of its pool
    target = pools.pick(pool) if template is _STORE_TEMPLATE else pool[0]
    fields["t"] = target
    pools.touch(pool, target)
    return fmt.format(**fields)


def generate(seed: int, statements: int) -> str:
    """One program with exactly ``statements`` assignment statements.

    Statements come in decks holding every template once, in seeded
    order; the first two of a deck form a ``for`` loop body and the
    next two the branches of an ``if``.  So programs of one size differ
    in their operands and order but hardly in IR size or graph shape.
    """
    rng = random.Random(f"{seed}:{statements}")
    pools = _Pools(rng, 12, 6)
    lines = [f"{m} = rand(3) - 0.5;" for m in pools.matrices]
    lines += [f"{s} = rand(1);" for s in pools.scalars]
    templates = _MATRIX_TEMPLATES + _SCALAR_TEMPLATES + (_STORE_TEMPLATE,)
    emitted = 0
    while emitted < statements:
        deck = list(templates[: statements - emitted])
        rng.shuffle(deck)
        body = [_statement(rng, pools, template) for template in deck]
        emitted += len(body)
        if len(body) >= 4:
            lines.append(f"for k = 1:{rng.randint(2, 3)}")
            lines += ["  " + body[0], "  " + body[1], "end"]
            lines.append(f"if {pools.pick(pools.scalars)} > 0.5")
            lines += ["  " + body[2], "else", "  " + body[3], "end"]
            body = body[4:]
        lines += body
    for name in pools.matrices[-6:]:
        lines.append(f"fprintf('%.6f\\n', sum(sum({name})));")
    for name in pools.scalars[-3:]:
        lines.append(f"fprintf('%.6f\\n', {name});")
    return "\n".join(lines) + "\n"


def program_sources(seed: int, statements: int) -> tuple[dict[str, str], str]:
    """``(sources, entry)`` as ``compile_program`` takes them."""
    entry = f"gen{statements}_drv"
    return {f"{entry}.m": generate(seed, statements)}, entry


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--statements", type=int, default=100)
    args = parser.parse_args()
    print(generate(args.seed, args.statements), end="")
