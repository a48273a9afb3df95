"""The call-depth guard fires at the same depth on every SPMD substrate.

Each IdLite call stacks a bounded number of lowered-closure frames, so
the interpreter sizes its guard (``Interpreter.max_depth``) to fit under
CPython's recursion limit.  Recursion one level short of the guard must
succeed on seq, static, parallel and dist alike; one level deeper must
fail on all four with the guard's structured ``execution`` code — never
with a raw ``RecursionError`` or an opaque worker failure.
"""

import pytest

from repro.api import compile_source
from repro.backend import classify_error, get_backend, render_error
from repro.baseline.sequential import Interpreter
from repro.common.config import DistConfig, ParallelConfig

pytestmark = pytest.mark.conformance

SOURCE = """
function f(k) { r = if k <= 0 then 0 else 1 + f(k - 1); return r; }
function main(n) { return f(n); }
"""

# main is depth 0 and f(n) recurses down to f(0) at depth n + 1.
RUNS = {
    "seq": {},
    "static": {"parallelism": 2},
    "parallel": {"config": ParallelConfig(workers=2, recovery=False,
                                          timeout_s=30.0)},
    "dist": {"config": DistConfig(nodes=2)},
}


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


@pytest.fixture(scope="module")
def limit(program):
    return Interpreter(program.ast).max_depth


@pytest.mark.parametrize("backend", sorted(RUNS))
def test_just_under_the_guard_succeeds(backend, program, limit):
    n = limit - 1
    assert get_backend(backend).run(program, (n,), **RUNS[backend]).value == n


@pytest.mark.parametrize("backend", sorted(RUNS))
def test_just_over_the_guard_fails_structurally(backend, program, limit):
    with pytest.raises(Exception) as excinfo:
        get_backend(backend).run(program, (limit,), **RUNS[backend])
    exc = excinfo.value
    assert classify_error(exc) == "execution"
    assert f"call depth over {limit}" in (
        str(exc) + "".join(f.detail for f in getattr(exc, "failures", [])))
    assert "\n" not in render_error(exc)
