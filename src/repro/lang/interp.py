"""The Mini-C interpreter: AST × Defense → execution on the machine.

The interpreter is where "compiling with the plugin" happens:

* function entry calls ``defense.function_enter`` with the declared
  arrays' sizes — the prologue instrumentation (REST arms, ASan
  poisons, plain does nothing);
* every ``Load``/``Store`` goes through ``defense.load``/``defense.
  store`` — the per-access instrumentation point (ASan's checks live
  there; REST's accesses are bare because the hardware checks);
* ``MemcpyStmt`` goes through ``defense.memcpy`` — the interception
  point;
* ``Malloc``/``Free`` go through the defense's allocator.

Memory-safety violations are therefore *not* the interpreter's
concern: an out-of-range ``Index`` just computes an out-of-range
address, and whatever the active defense (and the REST hardware
underneath) does with it, happens.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.defenses.base import Defense
from repro.lang.ast import (
    CELL,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    ExprStatement,
    For,
    Free,
    If,
    Load,
    Malloc,
    MemcpyStmt,
    Program,
    Return,
    Statement,
    Store,
    Var,
    While,
)


class MiniCError(Exception):
    """A language-level error (unknown name, bad program structure).

    Memory-safety violations are *not* MiniCErrors — they surface as
    the defense's exceptions (RestException / AsanViolation), exactly
    as a real miscompiled-upon memory bug would."""


class _ReturnSignal(Exception):
    def __init__(self, value: int) -> None:
        self.value = value


class _Frame:
    """One activation: scalar env + the defense's stack frame."""

    __slots__ = ("env", "defense_frame", "arrays")

    def __init__(self, env, defense_frame, arrays) -> None:
        self.env = env
        self.defense_frame = defense_frame
        self.arrays = arrays


#: Guard against runaway loops in buggy programs.
MAX_STEPS = 1_000_000


class Interpreter:
    """Executes a Program against a Defense."""

    def __init__(self, program: Program, defense: Defense) -> None:
        self.program = program
        self.defense = defense
        self._steps = 0
        self.functions_entered = 0

    # -- public ------------------------------------------------------------

    def run(self, *args: int) -> int:
        """Execute ``main(*args)``; returns its Return value."""
        return self.call_function("main", list(args))

    def call_function(self, name: str, args: List[int]) -> int:
        function = self.program.function(name)
        if len(args) != len(function.params):
            raise MiniCError(
                f"{name}() takes {len(function.params)} args, got {len(args)}"
            )
        buffer_sizes = [decl.bytes for decl in function.arrays]
        frame_handle = self.defense.function_enter(buffer_sizes)
        self.functions_entered += 1
        env: Dict[str, int] = dict(zip(function.params, args))
        arrays: Dict[str, int] = {}
        for decl, buffer in zip(function.arrays, frame_handle.buffers):
            arrays[decl.name] = buffer.address
        # Heap-only defenses may place buffers without protection but
        # must still give each array an address.
        if len(arrays) != len(function.arrays):
            raise MiniCError("defense failed to place all arrays")
        frame = _Frame(env, frame_handle, arrays)
        try:
            self._exec_block(function.body, frame)
            result = 0
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            self.defense.function_exit(frame_handle)
        return result

    # -- statements ----------------------------------------------------------

    def _exec_block(self, body, frame: _Frame) -> None:
        for statement in body:
            self._exec(statement, frame)

    def _exec(self, statement: Statement, frame: _Frame) -> None:
        # _tick() is inlined here and in _eval: these two methods are
        # the trace-generation hot path and run once per AST node step.
        self._steps += 1
        if self._steps > MAX_STEPS:
            raise MiniCError("program exceeded the step budget")
        # Memoized decode: one dict lookup on the node's concrete type
        # replaces the isinstance chain (AST node classes are final).
        handler = _EXEC_DISPATCH.get(statement.__class__)
        if handler is None:
            raise MiniCError(f"unknown statement {statement!r}")
        handler(self, statement, frame)

    def _exec_assign(self, statement: Assign, frame: _Frame) -> None:
        frame.env[statement.name] = self._eval(statement.value, frame)

    def _exec_store(self, statement: Store, frame: _Frame) -> None:
        base = self._eval(statement.base, frame)
        index = self._eval(statement.index, frame)
        value = self._eval(statement.value, frame)
        self.defense.store(
            base + index * CELL,
            (value & (2**64 - 1)).to_bytes(CELL, "little"),
        )

    def _exec_free(self, statement: Free, frame: _Frame) -> None:
        self.defense.free(self._eval(statement.pointer, frame))

    def _exec_memcpy(self, statement: MemcpyStmt, frame: _Frame) -> None:
        self.defense.memcpy(
            self._eval(statement.dst, frame),
            self._eval(statement.src, frame),
            self._eval(statement.length, frame),
        )

    def _exec_if(self, statement: If, frame: _Frame) -> None:
        if self._eval(statement.condition, frame):
            self._exec_block(statement.then_body, frame)
        else:
            self._exec_block(statement.else_body, frame)

    def _exec_while(self, statement: While, frame: _Frame) -> None:
        while self._eval(statement.condition, frame):
            self._exec_block(statement.body, frame)

    def _exec_for(self, statement: For, frame: _Frame) -> None:
        value = self._eval(statement.start, frame)
        end = self._eval(statement.end, frame)
        while value < end:
            frame.env[statement.var] = value
            self._exec_block(statement.body, frame)
            value += 1

    def _exec_expr_statement(self, statement: ExprStatement, frame: _Frame) -> None:
        self._eval(statement.expr, frame)

    def _exec_return(self, statement: Return, frame: _Frame) -> None:
        raise _ReturnSignal(self._eval(statement.value, frame))

    # -- expressions ------------------------------------------------------------

    def _eval(self, expr: Expr, frame: _Frame) -> int:
        self._steps += 1
        if self._steps > MAX_STEPS:
            raise MiniCError("program exceeded the step budget")
        kind = expr.__class__
        if kind is Const:
            return expr.value
        if kind is Var:
            env = frame.env
            name = expr.name
            if name in env:
                return env[name]
            arrays = frame.arrays
            if name in arrays:
                return arrays[name]  # array decays to pointer
            raise MiniCError(f"undefined name {name!r}")
        if kind is BinOp:
            left = self._eval(expr.left, frame)
            right = self._eval(expr.right, frame)
            try:
                return _BINOPS[expr.op](left, right)
            except KeyError:
                raise MiniCError(f"unknown operator {expr.op!r}") from None
        if kind is Load:
            base = self._eval(expr.base, frame)
            index = self._eval(expr.index, frame)
            raw = self.defense.load(base + index * CELL, CELL)
            return int.from_bytes(raw, "little")
        if kind is Malloc:
            return self.defense.malloc(self._eval(expr.size, frame))
        if kind is Call:
            args = [self._eval(argument, frame) for argument in expr.args]
            return self.call_function(expr.name, args)
        raise MiniCError(f"unknown expression {expr!r}")

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > MAX_STEPS:
            raise MiniCError("program exceeded the step budget")


#: Shared operator table (the old implementation rebuilt a dict of
#: closures on every BinOp evaluation).
_BINOPS = {
    "+": lambda left, right: left + right,
    "-": lambda left, right: left - right,
    "*": lambda left, right: left * right,
    "//": lambda left, right: left // right,
    "%": lambda left, right: left % right,
    "<": lambda left, right: int(left < right),
    "<=": lambda left, right: int(left <= right),
    ">": lambda left, right: int(left > right),
    ">=": lambda left, right: int(left >= right),
    "==": lambda left, right: int(left == right),
    "!=": lambda left, right: int(left != right),
}

#: Statement type -> bound handler (memoized decode table).
_EXEC_DISPATCH = {
    Assign: Interpreter._exec_assign,
    Store: Interpreter._exec_store,
    Free: Interpreter._exec_free,
    MemcpyStmt: Interpreter._exec_memcpy,
    If: Interpreter._exec_if,
    While: Interpreter._exec_while,
    For: Interpreter._exec_for,
    ExprStatement: Interpreter._exec_expr_statement,
    Return: Interpreter._exec_return,
}
