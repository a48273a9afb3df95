"""Lower IdLite functions to nested Python closures, once per run.

The sequential interpreter and every SPMD substrate built on it (static,
parallel, dist) execute the *lowered* form: each function becomes one
closure over a flat per-call frame (a Python list), each statement and
expression a closure that reads and writes frame slots.  What an AST
walk would decide per operation is settled here, once:

* lexical names resolve to frame slots (semantic analysis guarantees one
  binding per name per scope, so a slot per binding is exact; a loop
  body reuses its slots across iterations);
* operators bind their ISA function and their ``(float, int)`` cost pair
  from the timing model;
* op counts are static per block; only the taken branch of an ``IfExp``
  is counted at run time.

Costs are charged through the interpreter's clock one by one, in the
order the program evaluates them: float addition does not associate, so
folding two charges into one would move modeled time.
``tests/baseline/golden_modeled.json`` pins it bit for bit.

The interpreter supplies the substrate through hooks read once per
lowering: ``clock.charge``, ``on_alloc``, ``on_array_read``,
``on_array_write``, ``iter_hook`` (called before every ``for`` iteration
when set), ``distributed_block`` and ``run_distributed`` (Range-Filter
subranges), and the ``in_distributed`` / ``op_count`` attributes.

Errors a compiler would report but semantic analysis already rules out
(undefined names, ``next`` outside a loop, ``return`` inside a loop)
lower to closures that raise when executed, so dead code never fails.
"""

from __future__ import annotations

from operator import itemgetter

from repro.common.errors import CallDepthError, ExecutionError
from repro.graph import ir
from repro.lang import ast_nodes as A
from repro.sim import timing as T
from repro.sim.timing import _BIN_COSTS, _UN_COSTS
from repro.translator.isa import BINARY_FUNCS, UNARY_FUNCS

# The sequential cost model's native constants, microseconds (see
# repro.baseline.sequential).
ARRAY_READ = T.INT_MUL + T.INT_ADD + T.MEM_READ        # 1.8
ARRAY_WRITE = T.INT_MUL + T.INT_ADD + T.MEM_WRITE      # 1.9
LOOP_ITER = T.INT_ADD + T.INT_CMP + T.INT_CMP          # inc + cmp + branch
CALL = 2 * T.CONTEXT_SWITCH                            # CALL + RET
BRANCH = T.INT_CMP

# Frame slot 0 holds the call depth; parameters follow.
DEPTH = 0

# A pending ``next`` value not produced by this iteration.
_UNSET = object()

# Python frames the substrate may stack under the deepest IdLite call
# (array hooks, spin waits, executor start-up); the call-depth guard
# keeps this much of CPython's recursion limit free.
RESERVED_FRAMES = 250


def _fail(message: str):
    def fail(*_):
        raise ExecutionError(message)
    return fail


def _const(value):
    return lambda f: value


def is_istructure(obj) -> bool:
    """Duck-typed check for array-like values (SeqArray, ShmArray, ...)."""
    return callable(getattr(obj, "read", None)) and hasattr(obj, "dims")


# -- static analysis ------------------------------------------------------

def _expr_ops(expr: A.Expr) -> int:
    """Expression nodes evaluated for ``expr``, ``IfExp`` branches excluded
    (they are counted when taken)."""
    if isinstance(expr, A.BinOp):
        return 1 + _expr_ops(expr.left) + _expr_ops(expr.right)
    if isinstance(expr, A.UnOp):
        return 1 + _expr_ops(expr.operand)
    if isinstance(expr, A.IfExp):
        return 1 + _expr_ops(expr.cond)
    if isinstance(expr, (A.Call, A.Index)):
        subs = expr.args if isinstance(expr, A.Call) else expr.indices
        return 1 + sum(_expr_ops(e) for e in subs)
    return 1


def _stmt_ops(stmt: A.Stmt) -> int:
    if isinstance(stmt, (A.Bind, A.NextBind, A.Return)):
        return _expr_ops(stmt.value)
    if isinstance(stmt, A.ArrayWrite):
        return sum(_expr_ops(e) for e in stmt.indices) + _expr_ops(stmt.value)
    if isinstance(stmt, A.If):
        return _expr_ops(stmt.cond)
    if isinstance(stmt, A.For):
        return _expr_ops(stmt.init) + _expr_ops(stmt.limit)
    return 0  # While: its condition is counted per test


def _expr_frames(expr: A.Expr) -> int:
    if isinstance(expr, A.BinOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, A.UnOp):
        children = (expr.operand,)
    elif isinstance(expr, A.IfExp):
        children = (expr.cond, expr.then, expr.other)
    elif isinstance(expr, A.Call):
        # The call closure plus its argument list comprehension.
        return 2 + max((_expr_frames(e) for e in expr.args), default=0)
    elif isinstance(expr, A.Index):
        # The read closure, the subscript builder and its comprehension.
        return 3 + max((_expr_frames(e) for e in expr.indices), default=0)
    else:
        return 1
    return 1 + max(_expr_frames(e) for e in children)


def _body_frames(body: list[A.Stmt]) -> int:
    return 1 + max((_stmt_frames(s) for s in body), default=0)


def _stmt_frames(stmt: A.Stmt) -> int:
    if isinstance(stmt, A.For):
        # run, hook + subrange thunk when distributed, range runner,
        # iteration.
        return 5 + max(_expr_frames(stmt.init), _expr_frames(stmt.limit),
                       _body_frames(stmt.body))
    if isinstance(stmt, A.While):
        return 2 + max(_expr_frames(stmt.cond), _body_frames(stmt.body))
    if isinstance(stmt, A.If):
        return 1 + max(_expr_frames(stmt.cond), _body_frames(stmt.then_body),
                       _body_frames(stmt.else_body))
    if isinstance(stmt, A.ArrayWrite):
        return 3 + max(_expr_frames(e) for e in [*stmt.indices, stmt.value])
    return 1 + _expr_frames(stmt.value)


def frames_per_call(program: A.Program) -> int:
    """An upper bound on the Python frames one IdLite call of ``program``
    stacks between a function's entry and the next nested call's."""
    return max((1 + _body_frames(fn.body)
                for fn in program.functions.values()), default=1)


# -- lowering ---------------------------------------------------------------

class _Scope:
    """Lowering-time lexical scope: name -> frame slot."""

    __slots__ = ("parent", "names")

    def __init__(self, parent: "_Scope | None") -> None:
        self.parent = parent
        self.names: dict[str, int] = {}

    def lookup(self, name: str) -> int | None:
        scope = self
        while scope is not None:
            slot = scope.names.get(name)
            if slot is not None:
                return slot
            scope = scope.parent
        return None


class _Loop:
    """The innermost loop a ``next`` attaches to, while it is lowered."""

    __slots__ = ("outer", "pending", "conditional", "branches")

    def __init__(self, outer: _Scope) -> None:
        self.outer = outer                      # scope at the loop stmt
        self.pending: dict[str, tuple[int, int | None]] = {}
        self.conditional: list[int] = []        # pending slots to reset
        self.branches = 0                       # If nesting inside body


class _FunctionState:
    """Per-function lowering state: slot allocation and loop nesting."""

    def __init__(self) -> None:
        self.nslots = 1  # DEPTH
        self.loop: _Loop | None = None

    def slot(self) -> int:
        self.nslots += 1
        return self.nslots - 1


class Lowering:
    """Lowers ``interp.program`` function by function, on first call."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.functions = interp.program.functions
        self.cells: dict[str, list] = {}
        self.array_classes: set[type] = set()
        self.charge = interp.clock.charge

    def function(self, name: str) -> list:
        """A one-element cell holding function ``name``'s lowered entry
        closure ``(args, depth) -> value``; created before the body is
        lowered, so recursive calls resolve through it."""
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = [None]
            cell[0] = self._function(self.functions[name])
        return cell

    def _function(self, fn: A.Function):
        lo = _FunctionState()
        scope = _Scope(None)
        for p in fn.params:
            scope.names[p] = lo.slot()
        body, ops, _ = self._block(fn.body, scope, lo)
        pad = [None] * (lo.nslots - 1 - len(fn.params))
        interp, charge = self.interp, self.charge

        def call(args, depth):
            if depth > interp.max_depth:
                raise CallDepthError(f"call depth over {interp.max_depth}")
            charge(CALL)
            f = [depth, *args, *pad]
            interp.op_count += ops
            r = body(f)
            return 0 if r is None else r[0]
        return call

    # -- blocks and statements -------------------------------------------

    def _block(self, body: list[A.Stmt], scope: _Scope, lo: _FunctionState):
        """(closure, static op count, may return) for a statement list.
        The closure returns ``(value,)`` when a ``return`` ran, else
        None."""
        stmts, returns = [], False
        ops = 0
        for stmt in body:
            ops += _stmt_ops(stmt)
            fn, may_return = self._stmt(stmt, scope, lo)
            stmts.append(fn)
            returns = returns or may_return
        stmts = tuple(stmts)
        if len(stmts) == 1:
            return stmts[0], ops, returns
        if returns:
            def run(f):
                for s in stmts:
                    r = s(f)
                    if r is not None:
                        return r
        else:
            def run(f):
                for s in stmts:
                    s(f)
        return run, ops, returns

    def _stmt(self, stmt: A.Stmt, scope: _Scope, lo: _FunctionState):
        """(closure, may_return) for one statement."""
        if isinstance(stmt, A.Bind):
            value = self._expr(stmt.value, scope)
            slot = lo.slot()
            scope.names[stmt.name] = slot

            def bind(f):
                f[slot] = value(f)
            return bind, False
        if isinstance(stmt, A.NextBind):
            return self._next(stmt, scope, lo), False
        if isinstance(stmt, A.ArrayWrite):
            return self._array_write(stmt, scope), False
        if isinstance(stmt, A.If):
            return self._if(stmt, scope, lo)
        if isinstance(stmt, A.Return):
            value = self._expr(stmt.value, scope)
            if lo.loop is not None:
                return _fail("'return' inside a loop body"), False
            return (lambda f: (value(f),)), True
        if isinstance(stmt, A.For):
            return self._for(stmt, scope, lo), False
        if isinstance(stmt, A.While):
            return self._while(stmt, scope, lo), False
        return _fail(f"unknown statement {type(stmt).__name__}"), False

    def _next(self, stmt: A.NextBind, scope: _Scope, lo: _FunctionState):
        value = self._expr(stmt.value, scope)
        loop = lo.loop
        if loop is None:
            return _fail("'next' outside loop (interpreter bug)")
        entry = loop.pending.get(stmt.name)
        if entry is None:
            entry = (lo.slot(), loop.outer.lookup(stmt.name))
            loop.pending[stmt.name] = entry
        pend, target = entry
        if target is None:
            return _fail(f"cannot rebind unknown {stmt.name!r}")
        if loop.branches:
            loop.conditional.append(pend)

        def next_(f):
            f[pend] = value(f)
        return next_

    def _if(self, stmt: A.If, scope: _Scope, lo: _FunctionState):
        cond = self._expr(stmt.cond, scope)
        if lo.loop is not None:
            lo.loop.branches += 1
        then, then_ops, then_ret = self._block(stmt.then_body,
                                               _Scope(scope), lo)
        other, other_ops, other_ret = self._block(stmt.else_body,
                                                  _Scope(scope), lo)
        if lo.loop is not None:
            lo.loop.branches -= 1
        interp, charge = self.interp, self.charge

        def if_(f):
            charge(BRANCH)
            if cond(f):
                interp.op_count += then_ops
                return then(f)
            interp.op_count += other_ops
            return other(f)
        return if_, then_ret or other_ret

    def _loop_body(self, body: list[A.Stmt], scope: _Scope, lo: _FunctionState,
                   var: str | None = None):
        """Lower a loop body; returns (var slot, static op count,
        iterate) where ``iterate(f)`` runs the body once and commits its
        ``next`` values."""
        inner = _Scope(scope)
        slot = None
        if var is not None:
            slot = inner.names[var] = lo.slot()
        outer_loop, loop = lo.loop, _Loop(scope)
        lo.loop = loop
        try:
            run, ops, _ = self._block(body, inner, lo)
        finally:
            lo.loop = outer_loop
        commits = tuple((p, t) for p, t in loop.pending.values())
        resets = tuple(dict.fromkeys(loop.conditional))
        if not commits:
            return slot, ops, run

        def iterate(f):
            for p in resets:
                f[p] = _UNSET
            run(f)
            for p, t in commits:
                v = f[p]
                if v is not _UNSET:
                    f[t] = v
        return slot, ops, iterate

    def _for(self, stmt: A.For, scope: _Scope, lo: _FunctionState):
        init = self._expr(stmt.init, scope)
        limit = self._expr(stmt.limit, scope)
        var, ops, iterate = self._loop_body(stmt.body, scope, lo, stmt.var)
        step = -1 if stmt.descending else 1
        interp, charge = self.interp, self.charge
        hook = interp.iter_hook

        def run_range(f, first, last):
            if first.__class__ is int and last.__class__ is int:
                indices = range(first, last + step, step)
            else:
                indices = _float_range(first, last, step)
            n = 0
            for i in indices:
                charge(LOOP_ITER)
                if hook is not None:
                    hook()
                f[var] = i
                iterate(f)
                n += 1
            interp.op_count += ops * n

        block = interp.distributed_block(stmt)
        if block is None:
            return lambda f: run_range(f, init(f), limit(f))

        rf = block.range_filter
        array = self._vid(block, rf.array_vid, scope)
        fixed = [self._vid(block, v, scope) for v in rf.fixed_vids]
        distribute = interp.run_distributed
        descending = stmt.descending

        def run(f):
            first, last = init(f), limit(f)
            if interp.in_distributed:
                run_range(f, first, last)
                return
            distribute(block, descending, array(f),
                       tuple(g(f) for g in fixed), first, last,
                       lambda lo_, hi: run_range(f, lo_, hi))
        return run

    def _vid(self, block, vid: int, scope: _Scope):
        """A frame reader for a Range-Filter input vid of ``block``."""
        d = block.defs[vid]
        if isinstance(d, ir.ConstDef):
            return _const(d.value)
        if isinstance(d, (ir.ParamDef, ir.IndexDef)) and d.name:
            slot = scope.lookup(d.name)
            if slot is not None:
                return itemgetter(slot)
            return _fail(f"undefined name {d.name!r} (interpreter bug)")
        return _fail(f"cannot resolve vid {vid} of {block.name}")

    def _while(self, stmt: A.While, scope: _Scope, lo: _FunctionState):
        cond = self._expr(stmt.cond, scope)
        cond_ops = _expr_ops(stmt.cond)
        _, ops, iterate = self._loop_body(stmt.body, scope, lo)
        interp, charge = self.interp, self.charge

        def run(f):
            guard = 0
            while True:
                charge(BRANCH)
                interp.op_count += cond_ops
                if not cond(f):
                    return
                guard += 1
                if guard > 10_000_000:
                    raise ExecutionError("while loop ran 10M iterations")
                interp.op_count += ops
                iterate(f)
        return run

    def _array_check(self, name: str):
        """Raise unless ``arr`` is an array; remembers good classes, so
        the hot path is one set lookup."""
        known = self.array_classes

        def check(arr):
            if not is_istructure(arr):
                raise ExecutionError(f"{name!r} is not an array")
            known.add(arr.__class__)
        return known, check

    def _indices(self, exprs: list[A.Expr], scope: _Scope):
        """A closure building the subscript tuple."""
        slots = [scope.lookup(e.name) if isinstance(e, A.Var) else None
                 for e in exprs]
        if len(exprs) > 1 and None not in slots:
            return itemgetter(*slots)
        parts = [self._expr(e, scope) for e in exprs]
        if len(parts) == 2:
            a, b = parts
            return lambda f: (a(f), b(f))
        return lambda f: tuple([p(f) for p in parts])

    def _array_write(self, stmt: A.ArrayWrite, scope: _Scope):
        slot = scope.lookup(stmt.array)
        if slot is None:
            return _fail(f"undefined name {stmt.array!r} (interpreter bug)")
        known, check = self._array_check(stmt.array)
        indices = self._indices(stmt.indices, scope)
        value = self._expr(stmt.value, scope)
        write = self.interp.on_array_write

        def array_write(f):
            arr = f[slot]
            if arr.__class__ not in known:
                check(arr)
            write(arr, indices(f), value(f))
        return array_write

    # -- expressions -----------------------------------------------------

    def _expr(self, expr: A.Expr, scope: _Scope):
        """A closure ``f -> value`` for ``expr``."""
        if isinstance(expr, A.Num):
            return _const(expr.value)
        if isinstance(expr, A.Var):
            slot = scope.lookup(expr.name)
            if slot is None:
                return _fail(f"undefined name {expr.name!r} "
                             "(interpreter bug)")
            return itemgetter(slot)
        if isinstance(expr, A.BinOp):
            return self._binop(expr, scope)
        if isinstance(expr, A.UnOp):
            return self._unop(expr.op, self._expr(expr.operand, scope))
        if isinstance(expr, A.IfExp):
            return self._ifexp(expr, scope)
        if isinstance(expr, A.Index):
            return self._index(expr, scope)
        if isinstance(expr, A.Call):
            return self._call(expr, scope)
        return _fail(f"unknown expression {type(expr).__name__}")

    def _index(self, expr: A.Index, scope: _Scope):
        slot = scope.lookup(expr.array)
        if slot is None:
            return _fail(f"undefined name {expr.array!r} (interpreter bug)")
        known, check = self._array_check(expr.array)
        indices = self._indices(expr.indices, scope)
        read = self.interp.on_array_read

        def index(f):
            arr = f[slot]
            if arr.__class__ not in known:
                check(arr)
            return read(arr, indices(f))
        return index

    def _binop(self, expr: A.BinOp, scope: _Scope):
        op, fn, loc = expr.op, BINARY_FUNCS[expr.op], expr.loc
        fcost, icost = _BIN_COSTS[op]
        charge = self.charge
        a, b = self._expr(expr.left, scope), self._expr(expr.right, scope)

        def binop(f):
            x = a(f)
            y = b(f)
            charge(fcost if isinstance(x, float) or isinstance(y, float)
                   else icost)
            try:
                return fn(x, y)
            except TypeError as exc:
                raise ExecutionError(f"{loc}: {op}: {exc}") from None
        return binop

    def _unop(self, op: str, operand):
        fn = UNARY_FUNCS[op]
        fcost, icost = _UN_COSTS[op]
        charge = self.charge

        def unop(f):
            x = operand(f)
            charge(fcost if isinstance(x, float) else icost)
            return fn(x)
        return unop

    def _ifexp(self, expr: A.IfExp, scope: _Scope):
        cond = self._expr(expr.cond, scope)
        then = self._expr(expr.then, scope)
        other = self._expr(expr.other, scope)
        then_ops, other_ops = _expr_ops(expr.then), _expr_ops(expr.other)
        interp, charge = self.interp, self.charge

        def ifexp(f):
            charge(BRANCH)
            if cond(f):
                interp.op_count += then_ops
                return then(f)
            interp.op_count += other_ops
            return other(f)
        return ifexp

    def _call(self, call: A.Call, scope: _Scope):
        args = [self._expr(a, scope) for a in call.args]
        name = call.name
        if name in A.ALLOC_BUILTINS:
            alloc = self.interp.on_alloc
            return lambda f: alloc(tuple([a(f) for a in args]))
        if name in A.UNARY_BUILTINS and len(args) == 1:
            return self._unop(name, args[0])
        if name in A.BINARY_BUILTINS and len(args) == 2:
            fn = BINARY_FUNCS[name]
            fcost, icost = _BIN_COSTS[name]
            a, b = args
            charge = self.charge

            def builtin(f):
                x = a(f)
                y = b(f)
                charge(fcost if isinstance(x, float) or isinstance(y, float)
                       else icost)
                return fn(x, y)
            return builtin
        fn = self.functions.get(name)
        if fn is None:
            return _fail(f"call to unknown {name!r}")
        if len(args) != len(fn.params):
            return _fail(f"{name}() takes {len(fn.params)} argument(s), "
                         f"got {len(args)}")
        cell = self.function(name)

        def call_(f):
            return cell[0]([a(f) for a in args], f[DEPTH] + 1)
        return call_


def _float_range(first, last, step):
    """Loop indices for non-integer bounds: ``first``, stepping by one
    while within ``last``."""
    i = first
    while (i >= last) if step < 0 else (i <= last):
        yield i
        i += step
