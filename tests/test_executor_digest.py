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

The generated programs reach only part of the AST, so the file also
holds the interpreter's records of ``CORPUS``, short hand-written
programs that between them reach every node kind and every pricing
rule of :mod:`repro.interp`.
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
from repro.frontend.parser import parse_program
from repro.interp.interpreter import interpret
from repro.mccsim.executor import MccMeter
from repro.runtime.builtins import RuntimeContext
from repro.vm.executor import Mat2CMeter

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "executor_digest.json"
CASES = [(seed, size) for seed in (1, 2, 3) for size in (100, 400)]

#: name → M-files (the first holds the entry function)
CORPUS = {
    "control": {
        "control.m": """function control
s = 0; k = 0;
while 1
  k = k + 1;
  if k > 20
    break;
  elseif mod(k, 3) == 0
    continue;
  else
    s = s + k;
  end
end
disp(s);
for t = 10:-3:1
  if t < 3, break; end
  if t == 7, continue; end
  s = s - t
end
x = early(5)
y = early(2);
disp(y);
for v = [1 2; 3 4]
  s = s + v;
end
disp(s)
noout(4);
seven
end
function r = early(n)
r = 0;
for q = 1:n
  r = r + q;
  if r > 6
    return;
  end
end
r = -r;
end
function noout(n)
while n > 0
  n = n - 1;
  if n == 1, return; end
end
disp(n);
end
function r = seven
r = 7;
end
""",
    },
    "multi": {
        "multi.m": """function multi
a = [3 1 2; 9 7 8];
[m, n] = size(a);
[s, idx] = sort([4 2 9 1]);
[mx, where] = max([2 8 5]);
[lo, at] = min(a(2, :));
disp(m); disp(n); disp(s); disp(idx);
disp(mx); disp(where); disp(lo); disp(at);
[p, q] = swap(1, 2)
f = fact(6);
disp(f);
[u, w] = fibpair(10);
disp([u, w]);
r = find([0 1; 1 0]);
disp(r');
[g] = fact(3);
disp(g);
end
function [b, a] = swap(a, b)
end
function r = fact(n)
if n <= 1
  r = 1;
else
  r = n * fact(n - 1);
end
end
function [f, g] = fibpair(n)
if n == 0
  f = 0; g = 1;
else
  [a, b] = fibpair(n - 1);
  f = b; g = a + b;
end
end
""",
    },
    "literals": {
        "literals.m": """function literals
a = [1, 2, 3; 4, 5, 6];
b = a';
c = a.';
disp(b); disp(c);
z = [1+2i, 3-4j];
disp(z'); disp(z.');
w = 2i
e = [];
disp(isempty(e));
s = 'hello';
disp(s);
disp(['ab', 'cd']);
h = [a; 7, 8, 9];
disp(h);
k = [a, [10; 11]];
disp(size(k));
disp(abs(3 + 4*i));
disp(-a);
disp(~[1 0 2]);
n = numel(s)
m = [-1.5]
o = ones(2, 2)'
end
""",
    },
    "subscripts": {
        "subscripts.m": """function subscripts
a = reshape(1:24, 4, 6);
disp(a(end, end));
disp(a(2:2:end, end-1));
disp(a(end));
b = 1:3:20;
disp(b(end:-2:1));
disp(a(b(end-5), 1:end-3));
disp(a(min(end, 3), 2));
disp(a(-(-2), ~0 + 1));
a(end+1, :) = 100;
disp(size(a));
v = [];
for t = 1:4
  v(end+1) = t*t;
end
disp(v);
disp(a(:, 2)');
disp(a(3, :));
c = a;
c(2, 3) = -1;
disp(c(2, 3) + a(2, 3));
c(1, 1:2) = [7 8]
x = 3;
disp(x(end));
if x > 2 && x < 5 || x == 10
  disp(1);
end
if x < 0 || (x > 2 && a(1, 1) == 1)
  disp(2);
end
disp(0 || 0);
disp((x > 5) && (x < 9));
disp(1 && 1);
end
""",
    },
    "pricing": {
        "pricing.m": """function pricing
x = linspace(0, 1, 50);
y = sin(x) + exp(-x) .* cos(2*x);
disp(sum(y));
z = x .^ 2 + 2 ^ 3;
disp(z(end));
m = [1 2; 3 4] ^ 2
s = sqrt(abs(y(3))) + log(2) + atan2(1, 2) + tanh(0.5);
disp(s);
r = rand(3, 3);
disp(size(r));
q = r ^ 3;
disp(numel(q));
t = mod(17, 5) + floor(2.5) + x(2)^2;
t
pi
3 + 4;
disp(ans);
a = rand;
disp(a < 1);
x(3)
u = 1:0.25:2
end
""",
    },
}


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


def corpus_record(name: str) -> dict:
    """The interpreter's record of one corpus program."""
    result = interpret(parse_program(CORPUS[name]), RuntimeContext(seed=1))
    return _record(result)


def _key(seed: int, size: int) -> str:
    return f"seed{seed}-{size}"


def _corpus_key(name: str) -> str:
    return f"corpus-{name}"


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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_interpreter_matches_the_corpus_digest(name):
    expected = json.loads(FIXTURE.read_text())[_corpus_key(name)]
    assert corpus_record(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {_key(seed, size): digest(seed, size) for seed, size in CASES}
    table.update((_corpus_key(name), corpus_record(name)) for name in CORPUS)
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
