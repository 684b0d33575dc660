"""Lowering MiniCT to the machine ISA.

Two pipelines share this code generator:

* ``style="c"``   — every ``if`` becomes a conditional branch (what a C
  compiler does);
* ``style="fact"`` — ``if``s on *secret* conditions are linearised into
  constant-time selects (FaCT's transformation, cf. Fig 10): both arms'
  assignments are evaluated into shadow temporaries and committed with
  ``sel``; stores become read-modify-write selects.

``fences=True`` additionally inserts a speculation barrier at the head
of every branch arm (the Fig 8 mitigation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..asm.builder import ProgramBuilder
from ..core.config import Config
from ..core.errors import CompileError
from ..core.lattice import PUBLIC
from ..core.memory import Memory, Region
from ..core.program import Program
from ..core.values import Value
from .ast import (Assign, BinOp, CallStmt, Const, Expr, FenceStmt, If, Index,
                  Module, Select, Stmt, StoreStmt, UnOp, Var, While)
from .typing import TypeEnv, expr_label

#: Operand the code generator passes around: an immediate or a register
#: name.
Operandish = Union[Value, str]

STACK_BASE = 0xF00
STACK_SIZE = 0x100
STACK_TOP = STACK_BASE + STACK_SIZE - 1
ARRAY_BASE = 0x40


@dataclass
class CompiledModule:
    """A lowered module plus everything needed to run it."""

    module: Module
    program: Program
    style: str
    array_bases: Dict[str, int]
    var_regs: Dict[str, str]
    temp_regs: Tuple[str, ...]

    def memory(self, overrides: Optional[Dict[str, List[int]]] = None
               ) -> Memory:
        """Build the module's memory image (arrays + stack)."""
        overrides = overrides or {}
        mem = Memory()
        for arr in self.module.arrays:
            base = self.array_bases[arr.name]
            init = overrides.get(arr.name,
                                 list(arr.init) if arr.init else None)
            mem = mem.with_region(Region(arr.name, base, arr.size,
                                         arr.label), init)
        mem = mem.with_region(Region("stack", STACK_BASE, STACK_SIZE,
                                     PUBLIC), None)
        return mem

    def initial_config(self,
                       var_overrides: Optional[Dict[str, int]] = None,
                       mem_overrides: Optional[Dict[str, List[int]]] = None
                       ) -> Config:
        """An initial configuration with every register defined."""
        var_overrides = var_overrides or {}
        regs: Dict[str, Value] = {"rsp": Value(STACK_TOP)}
        for decl in self.module.variables:
            reg = self.var_regs[decl.name]
            if reg in regs:
                continue  # shared register: the first declaration wins
            payload = var_overrides.get(decl.name, decl.init)
            regs[reg] = Value(payload, decl.label)
        for t in self.temp_regs:
            regs[t] = Value(0, PUBLIC)
        return Config.initial(regs, self.memory(mem_overrides),
                              pc=self.program.entry)

    def addr_of(self, array: str, offset: int = 0) -> int:
        return self.array_bases[array] + offset


class Lowerer:
    """One-shot code generator for a module."""

    def __init__(self, module: Module, style: str = "c",
                 fences: bool = False):
        if style not in ("c", "fact"):
            raise CompileError(f"unknown style {style!r}")
        self.module = module
        self.style = style
        self.fences = fences
        self.env = TypeEnv.of(module)
        self.b = ProgramBuilder()
        self._temps: List[str] = []
        self._labels = 0
        self.array_bases: Dict[str, int] = {}
        self.var_regs = {v.name: (v.reg_hint or f"v_{v.name}")
                         for v in module.variables}
        self._layout_arrays()

    # -- helpers -------------------------------------------------------------

    def _layout_arrays(self) -> None:
        next_base = ARRAY_BASE
        for arr in self.module.arrays:
            base = arr.base if arr.base is not None else next_base
            self.array_bases[arr.name] = base
            next_base = max(next_base, base + arr.size)

    def _temp(self) -> str:
        name = f"t{len(self._temps)}"
        self._temps.append(name)
        return name

    def _label(self, hint: str) -> str:
        self._labels += 1
        return f".{hint}_{self._labels}"

    # -- expressions ----------------------------------------------------------

    def _expr(self, expr: Expr) -> Operandish:
        """Lower an expression; returns an immediate or a register name."""
        if isinstance(expr, Const):
            return Value(expr.value, expr.label)
        if isinstance(expr, Var):
            if expr.name not in self.var_regs:
                raise CompileError(f"undeclared variable {expr.name!r}")
            return self.var_regs[expr.name]
        if isinstance(expr, BinOp):
            t = self._temp()
            self.b.op(t, expr.op, [self._expr(expr.lhs),
                                   self._expr(expr.rhs)])
            return t
        if isinstance(expr, UnOp):
            t = self._temp()
            self.b.op(t, expr.op, [self._expr(expr.arg)])
            return t
        if isinstance(expr, Select):
            t = self._temp()
            self.b.op(t, "sel", [self._expr(expr.cond),
                                 self._expr(expr.then),
                                 self._expr(expr.other)])
            return t
        if isinstance(expr, Index):
            base = self.array_bases[expr.array]
            t = self._temp()
            self.b.load(t, [base, self._expr(expr.index)])
            return t
        raise CompileError(f"unknown expression {expr!r}")

    # -- statements ------------------------------------------------------------

    def _stmts(self, stmts: Tuple[Stmt, ...]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.b.op(self.var_regs[stmt.name], "mov",
                      [self._expr(stmt.expr)])
        elif isinstance(stmt, StoreStmt):
            base = self.array_bases[stmt.array]
            value = self._expr(stmt.value)
            index = self._expr(stmt.index)
            self.b.store(value, [base, index])
        elif isinstance(stmt, If):
            secret_cond = not expr_label(stmt.cond, self.env).is_public()
            if secret_cond and self.style == "fact":
                self._linearise_if(stmt)
            else:
                self._branchy_if(stmt)
        elif isinstance(stmt, While):
            self._while(stmt)
        elif isinstance(stmt, CallStmt):
            self.b.call(f"f_{stmt.func}")
        elif isinstance(stmt, FenceStmt):
            self.b.fence()
        else:
            raise CompileError(f"unknown statement {stmt!r}")

    def _branchy_if(self, stmt: If) -> None:
        then_l = self._label("then")
        else_l = self._label("else")
        join_l = self._label("join")
        cond = self._expr(stmt.cond)
        self.b.br("ne", [cond, 0], then_l, else_l)
        self.b.label(then_l)
        if self.fences:
            self.b.fence()
        self._stmts(stmt.then)
        self.b.br("eq", [0, 0], join_l, join_l)
        self.b.label(else_l)
        if self.fences:
            self.b.fence()
        self._stmts(stmt.other)
        self.b.label(join_l)

    def _while(self, stmt: While) -> None:
        loop_l = self._label("loop")
        body_l = self._label("body")
        done_l = self._label("done")
        self.b.label(loop_l)
        cond = self._expr(stmt.cond)
        self.b.br("ne", [cond, 0], body_l, done_l)
        self.b.label(body_l)
        if self.fences:
            self.b.fence()
        self._stmts(stmt.body)
        self.b.br("eq", [0, 0], loop_l, loop_l)
        self.b.label(done_l)

    # -- the FaCT transformation ------------------------------------------------

    def _linearise_if(self, stmt: If) -> None:
        """Compile a secret ``if`` to straight-line selects.

        Assignments in each arm run into shadow temporaries (reads see
        earlier shadow writes); afterwards every written variable commits
        via ``sel(cond, then_value, else_value)``.  Stores become
        load-select-store read-modify-writes.  Nested control flow inside
        a secret branch is rejected, as in FaCT.
        """
        cond = self._expr(stmt.cond)
        then_map = self._shadow_arm(stmt.then, cond, positive=True)
        else_map = self._shadow_arm(stmt.other, cond, positive=False)
        for name in dict.fromkeys(list(then_map) + list(else_map)):
            then_v = then_map.get(name, self.var_regs[name])
            else_v = else_map.get(name, self.var_regs[name])
            self.b.op(self.var_regs[name], "sel", [cond, then_v, else_v])

    def _shadow_arm(self, stmts: Tuple[Stmt, ...], cond: Operandish,
                    positive: bool) -> Dict[str, str]:
        shadow: Dict[str, str] = {}

        def read(name: str) -> str:
            return shadow.get(name, self.var_regs[name])

        def shadow_expr(expr: Expr) -> Operandish:
            if isinstance(expr, Var):
                return read(expr.name)
            if isinstance(expr, Const):
                return Value(expr.value, expr.label)
            if isinstance(expr, BinOp):
                t = self._temp()
                self.b.op(t, expr.op, [shadow_expr(expr.lhs),
                                       shadow_expr(expr.rhs)])
                return t
            if isinstance(expr, UnOp):
                t = self._temp()
                self.b.op(t, expr.op, [shadow_expr(expr.arg)])
                return t
            if isinstance(expr, Select):
                t = self._temp()
                self.b.op(t, "sel", [shadow_expr(expr.cond),
                                     shadow_expr(expr.then),
                                     shadow_expr(expr.other)])
                return t
            if isinstance(expr, Index):
                t = self._temp()
                self.b.load(t, [self.array_bases[expr.array],
                                shadow_expr(expr.index)])
                return t
            raise CompileError(f"unknown expression {expr!r}")

        for stmt in stmts:
            if isinstance(stmt, Assign):
                t = self._temp()
                self.b.op(t, "mov", [shadow_expr(stmt.expr)])
                shadow[stmt.name] = t
            elif isinstance(stmt, StoreStmt):
                # read-modify-write: keep the old value on the other arm.
                base = self.array_bases[stmt.array]
                index = shadow_expr(stmt.index)
                old = self._temp()
                self.b.load(old, [base, index])
                new = shadow_expr(stmt.value)
                out = self._temp()
                args = [cond, new, old] if positive else [cond, old, new]
                self.b.op(out, "sel", args)
                self.b.store(out, [base, index])
            elif isinstance(stmt, FenceStmt):
                self.b.fence()
            else:
                raise CompileError(
                    "FaCT linearisation supports only assignments and "
                    f"stores inside secret branches, got {stmt!r}")
        return shadow

    # -- functions / module -------------------------------------------------------

    def lower(self) -> CompiledModule:
        entry = self.module.func(self.module.entry)
        others = [f for f in self.module.funcs if f.name != entry.name]
        # Entry first: its first instruction is the program entry.
        self.b.label(f"f_{entry.name}")
        self._stmts(entry.body)
        self.b.halt()
        for func in others:
            self.b.label(f"f_{func.name}")
            self._stmts(func.body)
            self.b.ret()
        program = self.b.build(entry=f"f_{entry.name}")
        return CompiledModule(self.module, program, self.style,
                              dict(self.array_bases), dict(self.var_regs),
                              tuple(self._temps))
