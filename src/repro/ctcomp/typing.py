"""Label inference for MiniCT (the FaCT-style security type system).

Expression labels are joins of their parts; variables carry declared
labels; array reads join the array's content label with the index label.
The checker also enforces the rules both source languages share:

* loop conditions must be public (no secret-dependent iteration counts);
* array *indices* flowing from secrets are reported — in classical CT
  they are already a violation, and the pipelines may choose to reject
  or merely warn (the C pipeline happily compiles them, which is exactly
  how the Kocher-style code exists in the wild).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.errors import CompileError
from ..core.lattice import Label
from .ast import (Assign, BinOp, CallStmt, Const, Expr, FenceStmt, If, Index,
                  Module, Select, Stmt, StoreStmt, UnOp, Var, While)


@dataclass
class TypeEnv:
    """Variable and array labels for one module."""

    vars: Dict[str, Label]
    arrays: Dict[str, Label]

    @staticmethod
    def of(module: Module) -> "TypeEnv":
        return TypeEnv(
            vars={v.name: v.label for v in module.variables},
            arrays={a.name: a.label for a in module.arrays})


def expr_label(expr: Expr, env: TypeEnv) -> Label:
    """The static label of an expression."""
    if isinstance(expr, Const):
        return expr.label
    if isinstance(expr, Var):
        if expr.name not in env.vars:
            raise CompileError(f"undeclared variable {expr.name!r}")
        return env.vars[expr.name]
    if isinstance(expr, BinOp):
        return expr_label(expr.lhs, env).join(expr_label(expr.rhs, env))
    if isinstance(expr, UnOp):
        return expr_label(expr.arg, env)
    if isinstance(expr, Select):
        return (expr_label(expr.cond, env)
                .join(expr_label(expr.then, env))
                .join(expr_label(expr.other, env)))
    if isinstance(expr, Index):
        if expr.array not in env.arrays:
            raise CompileError(f"undeclared array {expr.array!r}")
        return env.arrays[expr.array].join(expr_label(expr.index, env))
    raise CompileError(f"unknown expression {expr!r}")


@dataclass(frozen=True)
class TypeReport:
    """Result of checking a module."""

    secret_branch_sites: Tuple[str, ...]   # funcs containing secret ifs
    secret_index_sites: Tuple[str, ...]    # funcs indexing with secrets

    @property
    def classically_ct(self) -> bool:
        """Sequentially constant-time as far as the type system sees."""
        return not self.secret_branch_sites and not self.secret_index_sites


def _check_stmts(stmts: Tuple[Stmt, ...], env: TypeEnv, func: str,
                 secret_branches: List[str],
                 secret_indices: List[str]) -> None:
    for stmt in stmts:
        if isinstance(stmt, Assign):
            expr_label(stmt.expr, env)  # well-formedness
            if stmt.name not in env.vars:
                raise CompileError(f"undeclared variable {stmt.name!r}")
            actual = expr_label(stmt.expr, env)
            if not actual.flows_to(env.vars[stmt.name]):
                raise CompileError(
                    f"illegal flow: {actual} value into {env.vars[stmt.name]}"
                    f" variable {stmt.name!r} in {func}")
        elif isinstance(stmt, StoreStmt):
            if not expr_label(stmt.index, env).is_public():
                secret_indices.append(func)
            value = expr_label(stmt.value, env)
            if not value.flows_to(env.arrays[stmt.array]):
                raise CompileError(
                    f"illegal flow: {value} value into array "
                    f"{stmt.array!r} in {func}")
        elif isinstance(stmt, If):
            if not expr_label(stmt.cond, env).is_public():
                secret_branches.append(func)
            _check_stmts(stmt.then, env, func, secret_branches,
                         secret_indices)
            _check_stmts(stmt.other, env, func, secret_branches,
                         secret_indices)
        elif isinstance(stmt, While):
            if not expr_label(stmt.cond, env).is_public():
                raise CompileError(
                    f"secret loop condition in {func} (rejected by both "
                    f"C-with-annotations and FaCT)")
            _check_stmts(stmt.body, env, func, secret_branches,
                         secret_indices)
        elif isinstance(stmt, (CallStmt, FenceStmt)):
            pass
        else:
            raise CompileError(f"unknown statement {stmt!r}")
        # Index expressions inside reads:
        for e in _exprs_of(stmt):
            _walk_indices(e, env, func, secret_indices)


def _exprs_of(stmt: Stmt):
    if isinstance(stmt, Assign):
        return (stmt.expr,)
    if isinstance(stmt, StoreStmt):
        return (stmt.index, stmt.value)
    if isinstance(stmt, (If, While)):
        return (stmt.cond,)
    return ()


def _walk_indices(expr: Expr, env: TypeEnv, func: str,
                  secret_indices: List[str]) -> None:
    if isinstance(expr, Index):
        if not expr_label(expr.index, env).is_public():
            secret_indices.append(func)
        _walk_indices(expr.index, env, func, secret_indices)
    elif isinstance(expr, BinOp):
        _walk_indices(expr.lhs, env, func, secret_indices)
        _walk_indices(expr.rhs, env, func, secret_indices)
    elif isinstance(expr, UnOp):
        _walk_indices(expr.arg, env, func, secret_indices)
    elif isinstance(expr, Select):
        for sub in (expr.cond, expr.then, expr.other):
            _walk_indices(sub, env, func, secret_indices)


def check_module(module: Module) -> TypeReport:
    """Type-check a module; returns the sites relevant to CT policy."""
    env = TypeEnv.of(module)
    secret_branches: List[str] = []
    secret_indices: List[str] = []
    for func in module.funcs:
        _check_stmts(func.body, env, func.name, secret_branches,
                     secret_indices)
    return TypeReport(tuple(dict.fromkeys(secret_branches)),
                      tuple(dict.fromkeys(secret_indices)))
