"""Scoping, ``next`` and counting corners of the lowered interpreter.

The golden table pins modeled outputs on the shipped apps; these pin the
lexical cases those apps do not exercise, where resolving names to frame
slots once must agree with binding them per execution.
"""

import pytest

from repro.common.errors import ExecutionError
from repro.lang.parser import parse
from repro.lang.semantics import analyze
from repro.baseline.sequential import Interpreter, run_sequential


def run(src, args=()):
    tree = parse(src)
    analyze(tree)
    return run_sequential(tree, args)


def test_conditional_next_commits_only_when_taken():
    src = """
    function main(n) {
        s = 0;
        for i = 1 to n { if i % 2 == 0 { next s = s + i; } }
        return s;
    }
    """
    assert run(src, (7,)).value == 2 + 4 + 6


def test_next_in_both_branches_and_a_while():
    src = """
    function main(n) {
        a = 0;
        k = 0;
        while k < n {
            if k < 2 { next a = a + 10; } else { next a = a + 1; }
            next k = k + 1;
        }
        return a;
    }
    """
    assert run(src, (5,)).value == 23


def test_body_binding_shadows_outer_name_per_iteration():
    src = """
    function main(n) {
        x = 100;
        s = 0;
        for i = 1 to n {
            y = x + i;
            x = y * 2;
            next s = s + x;
        }
        return s + x;
    }
    """
    # Each iteration's y reads the outer x, never the previous body's.
    assert run(src, (3,)).value == sum(2 * (100 + i) for i in (1, 2, 3)) + 100


def test_next_targets_the_binding_outside_the_loop():
    src = """
    function main(n) {
        t = 1;
        for i = 1 to n {
            t = 50;
            next t = t + i;
        }
        return t;
    }
    """
    # `next t` reads the body's t (50) but rebinds the outer one.
    assert run(src, (3,)).value == 53


def test_float_loop_bounds():
    src = """
    function main() {
        s = 0.0;
        for i = 0.5 to 3 { next s = s + i; }
        return s;
    }
    """
    assert run(src).value == 0.5 + 1.5 + 2.5


def test_return_from_a_branch_and_nested_calls():
    src = """
    function pick(x) {
        if x > 0 { if x > 10 { return 2; } return 1; }
        return 0;
    }
    function main() { return pick(50) * 100 + pick(5) * 10 + pick(-1); }
    """
    assert run(src).value == 210


def test_ifexp_counts_only_the_taken_branch():
    cheap = "function main(c) { return if c then 1 else 2 + 3 * 4; }"
    taken = run(cheap, (True,)).op_count
    other = run(cheap, (False,)).op_count
    assert other - taken == 4  # `2 + 3 * 4` is four nodes, `1` is one


def test_subscripting_a_scalar_fails_structurally():
    src = """
    function get(a) { return a[1]; }
    function main() { return get(3); }
    """
    with pytest.raises(ExecutionError, match="not an array"):
        run(src)


def test_guard_is_sized_from_frames_per_call():
    shallow = parse("function main(n) { return n; }")
    deep = parse("""
    function main(n) {
        for i = 1 to n { for j = 1 to n { for k = 1 to n { } } }
        return n;
    }
    """)
    assert Interpreter(shallow).max_depth > Interpreter(deep).max_depth > 0
