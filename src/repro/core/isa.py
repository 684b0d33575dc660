"""Physical instructions and operator evaluation.

This module defines the left-hand column of the paper's Table 1 — the
*physical* instructions stored in program memory — together with the
evaluation function ``J·K`` for opcodes and the abstract address
calculation operator ``addr`` (Section 3.4, "Address calculation").

Evaluation is concrete: :func:`evaluate`, :func:`address`, :func:`truth`
and :func:`concretize` compute over Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import ReproError
from .values import Operand, Operands, Reg, Value, join_labels


# ---------------------------------------------------------------------------
# Physical instructions (Table 1, left column)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instruction:
    """Base class of physical instructions."""


@dataclass(frozen=True)
class Op(Instruction):
    """Arithmetic operation ``(r = op(op, r⃗v, n'))``."""

    dest: Reg
    opcode: str
    args: Operands
    next: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.dest!r} = op({self.opcode}, {list(self.args)}, {self.next}))"


@dataclass(frozen=True)
class Br(Instruction):
    """Conditional branch ``br(op, r⃗v, n_true, n_false)``."""

    opcode: str
    args: Operands
    n_true: int
    n_false: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"br({self.opcode}, {list(self.args)}, {self.n_true}, {self.n_false})"


@dataclass(frozen=True)
class Jmpi(Instruction):
    """Indirect jump ``jmpi(r⃗v)`` (Appendix A.1)."""

    args: Operands

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"jmpi({list(self.args)})"


@dataclass(frozen=True)
class Load(Instruction):
    """Memory load ``(r = load(r⃗v, n'))``."""

    dest: Reg
    args: Operands
    next: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.dest!r} = load({list(self.args)}, {self.next}))"


@dataclass(frozen=True)
class Store(Instruction):
    """Memory store ``store(rv, r⃗v, n')``."""

    src: Operand
    args: Operands
    next: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"store({self.src!r}, {list(self.args)}, {self.next})"


@dataclass(frozen=True)
class Fence(Instruction):
    """Speculation barrier ``fence n`` (Section 3.6)."""

    next: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"fence {self.next}"


@dataclass(frozen=True)
class Call(Instruction):
    """Direct call ``call(n_f, n_ret)`` (Appendix A.2)."""

    target: int
    ret: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"call({self.target}, {self.ret})"


@dataclass(frozen=True)
class Ret(Instruction):
    """Function return ``ret`` (Appendix A.2)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ret"


def next_of(instr: Instruction) -> int:
    """The fall-through program point ``next(µ(n))`` for sequential
    instructions (used by the ``simple-fetch`` rule)."""
    if isinstance(instr, (Op, Load, Store, Fence)):
        return instr.next
    raise ReproError(f"{instr!r} has no static successor")


# ---------------------------------------------------------------------------
# Opcode table
# ---------------------------------------------------------------------------

#: Machine word width; arithmetic wraps modulo 2**WORD_BITS like hardware.
WORD_BITS = 64
_MASK = (1 << WORD_BITS) - 1


def _wrap(x: int) -> int:
    return x & _MASK


def _signed(x: int) -> int:
    x &= _MASK
    return x - (1 << WORD_BITS) if x >= (1 << (WORD_BITS - 1)) else x


def _bool(x: bool) -> int:
    return 1 if x else 0


#: opcode name -> (arity or None for variadic, concrete function on ints).
OPCODES: Dict[str, Tuple[Optional[int], Callable[..., int]]] = {
    "add": (None, lambda *xs: _wrap(sum(xs))),
    "sub": (2, lambda a, b: _wrap(a - b)),
    "mul": (None, lambda *xs: _wrap(_prod(xs))),
    "div": (2, lambda a, b: _wrap(a // b) if b else 0),
    "mod": (2, lambda a, b: _wrap(a % b) if b else 0),
    "and": (2, lambda a, b: a & b),
    "or": (2, lambda a, b: a | b),
    "xor": (2, lambda a, b: a ^ b),
    "not": (1, lambda a: _wrap(~a)),
    "neg": (1, lambda a: _wrap(-a)),
    "shl": (2, lambda a, b: _wrap(a << (b % WORD_BITS))),
    "shr": (2, lambda a, b: (a & _MASK) >> (b % WORD_BITS)),
    "lt": (2, lambda a, b: _bool(_signed(a) < _signed(b))),
    "le": (2, lambda a, b: _bool(_signed(a) <= _signed(b))),
    "gt": (2, lambda a, b: _bool(_signed(a) > _signed(b))),
    "ge": (2, lambda a, b: _bool(_signed(a) >= _signed(b))),
    "ltu": (2, lambda a, b: _bool((a & _MASK) < (b & _MASK))),
    "geu": (2, lambda a, b: _bool((a & _MASK) >= (b & _MASK))),
    "eq": (2, lambda a, b: _bool(a == b)),
    "ne": (2, lambda a, b: _bool(a != b)),
    "mov": (1, lambda a: a),
    # Constant-time select: sel(c, a, b) = a if c else b, branch-free.
    "sel": (3, lambda c, a, b: a if c else b),
    # Constant-time mask: -1 if c truthy else 0 (the classic ct idiom).
    "mask": (1, lambda c: _MASK if c else 0),
    "min": (2, lambda a, b: a if _signed(a) <= _signed(b) else b),
    "max": (2, lambda a, b: a if _signed(a) >= _signed(b) else b),
    # Abstract stack-pointer operators (Appendix A.2).  We model a
    # downward-growing stack of one-word entries.
    "succ": (1, lambda a: _wrap(a - 1)),
    "pred": (1, lambda a: _wrap(a + 1)),
    # Address arithmetic exposed as a plain opcode (used by retpolines,
    # Fig 13: ``rd = op(addr, [12, rb])``).
    "addr": (None, lambda *xs: _wrap(sum(xs))),
}

#: Opcodes whose result is naturally a truth value.
BOOLEAN_OPCODES = frozenset(
    {"lt", "le", "gt", "ge", "ltu", "geu", "eq", "ne", "and", "or", "not"})


def _prod(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


# ---------------------------------------------------------------------------
# Address calculation (Section 3.4)
# ---------------------------------------------------------------------------

def sum_addr(vals: Sequence[int]) -> int:
    """Simple addressing: the sum of the operands."""
    return _wrap(sum(vals))


# ---------------------------------------------------------------------------
# Evaluation (``J·K``, ``addr``)
# ---------------------------------------------------------------------------
#
# Each function works on *labelled values* and propagates labels (the join
# of the operand labels, per the semantics).  They are functions of their
# arguments alone, so one machine step is a function of
# ``(configuration, directive)`` — the property the execution engine's
# step cache relies on (Theorem B.1).

def concretize(value: Value) -> int:
    """The machine int a value carries (a concrete address, operand or
    condition); a non-integer payload is an error."""
    if not isinstance(value.val, int):
        raise ReproError(
            f"concrete evaluation got non-integer payload {value.val!r}")
    return value.val


def evaluate(opcode: str, vals: Sequence[Value]) -> Value:
    """Apply ``J opcode K`` to resolved operand values."""
    if opcode not in OPCODES:
        raise ReproError(f"unknown opcode {opcode!r}")
    arity, fn = OPCODES[opcode]
    if arity is not None and len(vals) != arity:
        raise ReproError(
            f"opcode {opcode!r} expects {arity} operands, got {len(vals)}")
    payloads = [concretize(v) for v in vals]
    return Value(fn(*payloads), join_labels(vals))


def address(vals: Sequence[Value]) -> Value:
    """Apply ``J addr K`` (:func:`sum_addr`) to resolved operand values."""
    return Value(sum_addr([concretize(v) for v in vals]), join_labels(vals))


def truth(value: Value) -> bool:
    """Interpret a value as a branch condition."""
    return bool(concretize(value))
