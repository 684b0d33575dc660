"""Fluent programmatic program construction.

The builder mirrors the assembler but stays in Python, which the litmus
suites and the compiler back end use::

    b = ProgramBuilder()
    b.br("gt", [4, "ra"], "body", "done")
    b.label("body")
    b.load("rb", [0x40, "ra"])
    b.load("rc", [0x44, "rb"])
    b.label("done")
    b.halt()
    program = b.build()

Targets are label names or literal program points; forward references
are resolved at :meth:`ProgramBuilder.build`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.errors import AssemblerError
from ..core.isa import (Br, Call, Fence, Instruction, Jmpi, Load, Op, Ret,
                        Store)
from ..core.program import Program
from ..core.values import Reg, operands

Target = Union[str, int]


class ProgramBuilder:
    """Accumulates instructions and resolves labels on build."""

    def __init__(self, base: int = 1):
        self._base = base
        self._pending: List[Tuple[str, tuple]] = []
        self._labels: Dict[str, int] = {}  # label -> pending index

    # -- layout ------------------------------------------------------------

    def label(self, name: str) -> "ProgramBuilder":
        """Attach a label to the next emitted instruction."""
        if name in self._labels:
            raise AssemblerError(f"duplicate label {name!r}")
        self._labels[name] = len(self._pending)
        return self

    def here(self) -> int:
        """The program point the next instruction will get."""
        return self._base + len(self._pending)

    # -- instructions --------------------------------------------------------

    def op(self, dest, opcode: str, args) -> "ProgramBuilder":
        self._pending.append(("op", (self._reg(dest), opcode,
                                     operands(*args))))
        return self

    def mov(self, dest, src) -> "ProgramBuilder":
        """``dest = mov(src)`` convenience."""
        return self.op(dest, "mov", [src])

    def load(self, dest, addr_args) -> "ProgramBuilder":
        self._pending.append(("load", (self._reg(dest),
                                       operands(*addr_args))))
        return self

    def store(self, src, addr_args) -> "ProgramBuilder":
        src_op = operands(src)[0]
        self._pending.append(("store", (src_op, operands(*addr_args))))
        return self

    def br(self, opcode: str, args, if_true: Target,
           if_false: Target) -> "ProgramBuilder":
        self._pending.append(("br", (opcode, operands(*args),
                                     if_true, if_false)))
        return self

    def jmpi(self, addr_args) -> "ProgramBuilder":
        self._pending.append(("jmpi", (operands(*addr_args),)))
        return self

    def call(self, target: Target,
             ret_to: Optional[Target] = None) -> "ProgramBuilder":
        self._pending.append(("call", (target, ret_to)))
        return self

    def ret(self) -> "ProgramBuilder":
        self._pending.append(("ret", ()))
        return self

    def fence(self, self_loop: bool = False) -> "ProgramBuilder":
        """A speculation barrier; with ``self_loop`` its successor is
        itself, so speculative fetch can never proceed past it (the
        retpoline landing pad of Fig 13)."""
        self._pending.append(("fence", (self_loop,)))
        return self

    def halt(self) -> "ProgramBuilder":
        """Reserve an unmapped point: fetching it terminates execution."""
        self._pending.append(("halt", ()))
        return self

    # -- build ----------------------------------------------------------------

    def build(self, entry: Optional[Target] = None) -> Program:
        points = {idx: self._base + idx for idx in range(len(self._pending))}
        labels = {name: self._base + idx for name, idx in self._labels.items()}

        def resolve(t: Target) -> int:
            if isinstance(t, int):
                return t
            if t not in labels:
                raise AssemblerError(f"undefined label {t!r}")
            return labels[t]

        instrs: Dict[int, Instruction] = {}
        for idx, (kind, payload) in enumerate(self._pending):
            n = points[idx]
            nxt = n + 1
            if kind == "op":
                dest, opcode, args = payload
                instrs[n] = Op(dest, opcode, args, nxt)
            elif kind == "load":
                dest, args = payload
                instrs[n] = Load(dest, args, nxt)
            elif kind == "store":
                src, args = payload
                instrs[n] = Store(src, args, nxt)
            elif kind == "br":
                opcode, args, t, f = payload
                instrs[n] = Br(opcode, args, resolve(t), resolve(f))
            elif kind == "jmpi":
                (args,) = payload
                instrs[n] = Jmpi(args)
            elif kind == "call":
                target, ret_to = payload
                instrs[n] = Call(resolve(target),
                                 resolve(ret_to) if ret_to is not None else nxt)
            elif kind == "ret":
                instrs[n] = Ret()
            elif kind == "fence":
                (self_loop,) = payload
                instrs[n] = Fence(n if self_loop else nxt)
            elif kind == "halt":
                pass
            else:  # pragma: no cover
                raise AssemblerError(f"unknown kind {kind!r}")
        if not instrs:
            raise AssemblerError("program has no instructions")
        entry_point = resolve(entry) if entry is not None else self._base
        return Program(instrs, entry=entry_point, labels=labels)

    @staticmethod
    def _reg(name) -> Reg:
        return name if isinstance(name, Reg) else Reg(name)
