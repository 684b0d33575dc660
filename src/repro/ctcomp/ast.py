"""AST of MiniCT — a small imperative language with labelled data.

MiniCT stands in for the paper's two source languages:

* **C** — compiled naïvely: every ``if`` becomes a conditional branch;
* **FaCT** [8] — "a DSL for timing-sensitive computation": branches on
  *secret* conditions are linearised into constant-time selects, exactly
  the transformation shown in Fig 10's commentary ("The FaCT compiler
  transforms the branch at lines 5-7 into straight-line constant-time
  code, since the variable pad is considered secret").

The language is deliberately small: integers, labelled arrays, functions
without parameters (module-level variables act as the environment) —
enough to express the audited crypto kernels of §4.2 structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.lattice import Label, PUBLIC


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    """Base class of expressions."""


@dataclass(frozen=True)
class Const(Expr):
    """An integer literal with an optional explicit label."""

    value: int
    label: Label = PUBLIC


@dataclass(frozen=True)
class Var(Expr):
    """A module-level variable reference."""

    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation; ``op`` is any machine opcode of arity 2
    (add, sub, and, xor, ltu, eq, …)."""

    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation (not, neg, mask)."""

    op: str
    arg: Expr


@dataclass(frozen=True)
class Select(Expr):
    """Explicit constant-time select ``cond ? then : other`` (cmov)."""

    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class Index(Expr):
    """Array load ``array[index]``."""

    array: str
    index: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stmt:
    """Base class of statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    """``name = expr``."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class StoreStmt(Stmt):
    """``array[index] = value``."""

    array: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) { then } else { other }``.

    With a secret condition, the FaCT pipeline linearises this into
    selects; the C pipeline always emits a branch.
    """

    cond: Expr
    then: Tuple[Stmt, ...] = ()
    other: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class While(Stmt):
    """``while (cond) { body }`` — public conditions only (both source
    languages reject secret-dependent loop bounds)."""

    cond: Expr
    body: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class CallStmt(Stmt):
    """Call a module function by name."""

    func: str


@dataclass(frozen=True)
class FenceStmt(Stmt):
    """An explicit speculation barrier."""


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayDecl:
    """A labelled array of ``size`` cells.

    ``base`` is assigned by the compiler's layouter unless pinned.
    """

    name: str
    size: int
    label: Label = PUBLIC
    init: Optional[Tuple[int, ...]] = None
    base: Optional[int] = None


@dataclass(frozen=True)
class VarDecl:
    """A module variable with a declared label and initial value.

    ``reg_hint`` pins the variable to a specific machine register.  Two
    variables with disjoint lifetimes may share a register — which is
    what real register allocators do, and exactly the aliasing that
    makes the Fig 10 gadget possible (``%r14`` holds ``len _out`` first
    and the secret-derived ``ret`` afterwards).
    """

    name: str
    label: Label = PUBLIC
    init: int = 0
    reg_hint: Optional[str] = None


@dataclass(frozen=True)
class Func:
    """A function (no parameters; module variables are the environment)."""

    name: str
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Module:
    """A complete MiniCT compilation unit."""

    name: str
    funcs: Tuple[Func, ...]
    arrays: Tuple[ArrayDecl, ...] = ()
    variables: Tuple[VarDecl, ...] = ()
    entry: str = "main"

    def func(self, name: str) -> Func:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def variable(self, name: str) -> VarDecl:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)
