"""The reorder buffer and the register resolve function.

The reorder buffer ``buf`` maps a contiguous range of natural-number
indices to transient instructions (Section 3, "Reorder buffer").  The
paper's conventions, which we follow exactly:

* ``MIN(∅) = MAX(∅) = 0`` and fetch inserts at ``MAX(buf) + 1`` — so the
  first index ever used is 1;
* retire removes ``MIN(buf)``; rollback keeps only indices ``j < i``;
* indices freed by a rollback are reused by subsequent fetches.

Buffers are immutable: every mutation returns a new buffer.  They are
small (bounded by the speculation bound), so structural copying is cheap
and keeps configurations value-like, which the SCT checker and the
exploration engines rely on.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

from .transient import (TFence, TLoad, TOp, Transient, TValue,
                        resolved_value_of)
from .values import BOTTOM, Operand, Operands, Reg, Value, _Bottom

#: Sentinel for the lazily computed oldest-fence cache.
_UNCOMPUTED = -2

#: The transient forms ``(r = _)`` that assign a register.
_ASSIGNING = (TOp, TValue, TLoad)


class ReorderBuffer:
    """An immutable contiguous map from indices to transient instructions."""

    __slots__ = ("_base", "_slots", "_fence", "_hash")

    def __init__(self, base: int = 1, slots: Tuple[Transient, ...] = ()):
        self._base = base          # index of the first slot
        self._slots = slots
        self._fence = _UNCOMPUTED  # oldest fence index (-1: none)
        self._hash = None          # lazy structural hash (buffers are
                                   # immutable, so it is computed once)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def __bool__(self) -> bool:
        return bool(self._slots)

    def __contains__(self, i: int) -> bool:
        return self._base <= i < self._base + len(self._slots)

    def __getitem__(self, i: int) -> Transient:
        if i not in self:
            raise KeyError(i)
        return self._slots[i - self._base]

    def get(self, i: int) -> Optional[Transient]:
        """The instruction at index ``i``, or None if absent."""
        return self[i] if i in self else None

    def min_index(self) -> int:
        """``MIN(buf)``; 0 for the *initial* empty buffer.

        For an empty buffer this is ``base - 1`` so that indices keep
        increasing monotonically across drains — matching the paper's
        worked examples (Fig 13 numbers fetches above retired indices)
        and keeping the RSB's index-ordered log meaningful.
        """
        return self._base if self._slots else self._base - 1

    def max_index(self) -> int:
        """``MAX(buf)``; 0 for the *initial* empty buffer (see
        :meth:`min_index` for the drained-buffer convention)."""
        return self._base + len(self._slots) - 1 if self._slots else self._base - 1

    def indices(self) -> range:
        """The contiguous domain of the buffer."""
        if not self._slots:
            return range(0)
        return range(self._base, self._base + len(self._slots))

    def items(self) -> Iterator[Tuple[int, Transient]]:
        """(index, instruction) pairs in increasing index order."""
        return zip(range(self._base, self._base + len(self._slots)),
                   self._slots)

    def first_fence(self) -> Optional[int]:
        """Index of the oldest in-flight fence, or None.

        Cached per (immutable) buffer: the highlighted side condition
        of the execute rules (``∀j < i : buf(j) ≠ fence``) asks this on
        every execute step, and rescanning the window each time is the
        dominant cost at large speculation bounds.
        """
        f = self._fence
        if f == _UNCOMPUTED:
            f = -1
            for off, instr in enumerate(self._slots):
                if isinstance(instr, TFence):
                    f = self._base + off
                    break
            self._fence = f
        return None if f == -1 else f

    def producer_before(self, i: int,
                        reg: Reg) -> Optional[Tuple[int, Transient]]:
        """The youngest entry strictly before index ``i`` of the form
        ``(reg = _)``, as (index, instruction); None if there is none.

        This is the search at the heart of the register resolve function
        (Fig 3), and it runs for every operand on every step, so it is
        one tight backwards walk over the slot tuple: no generator, no
        per-slot bounds check, and an exact class test (the transient
        forms have no subclasses).
        """
        slots = self._slots
        name = reg.name
        end = i - self._base
        if end > len(slots):
            end = len(slots)
        for off in range(end - 1, -1, -1):
            instr = slots[off]
            if type(instr) in _ASSIGNING and instr.dest.name == name:
                return self._base + off, instr
        return None

    # -- mutations (all return fresh buffers) ------------------------------

    def insert_next(self, instr: Transient) -> Tuple[int, "ReorderBuffer"]:
        """Insert at ``MAX(buf) + 1``; returns (index, new buffer)."""
        i = self.max_index() + 1
        if not self._slots:
            # Empty buffer keeps its base so indices are reused after a
            # full drain, matching MAX(∅) = 0 only for the initial buffer.
            return i, ReorderBuffer(i, (instr,))
        return i, ReorderBuffer(self._base, self._slots + (instr,))

    def append_all(self, instrs: Tuple[Transient, ...]) -> "ReorderBuffer":
        """Insert several instructions at consecutive next indices."""
        buf = self
        for instr in instrs:
            _, buf = buf.insert_next(instr)
        return buf

    def set(self, i: int, instr: Transient) -> "ReorderBuffer":
        """``buf[i ↦ instr]`` for an existing index ``i``."""
        if i not in self:
            raise KeyError(i)
        off = i - self._base
        slots = self._slots[:off] + (instr,) + self._slots[off + 1:]
        return ReorderBuffer(self._base, slots)

    def remove_min(self, count: int = 1) -> "ReorderBuffer":
        """Remove the ``count`` lowest-indexed entries (retire)."""
        if count > len(self._slots):
            raise KeyError("retiring from an empty buffer")
        return ReorderBuffer(self._base + count, self._slots[count:])

    def truncate_before(self, i: int) -> "ReorderBuffer":
        """``buf[j : j < i]`` — drop index ``i`` and everything younger."""
        if not self._slots or i > self.max_index():
            return self
        keep = max(0, i - self._base)
        return ReorderBuffer(self._base, self._slots[:keep])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{i}: {instr!r}" for i, instr in self.items())
        return f"ROB{{{body}}}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReorderBuffer):
            return NotImplemented
        if not self._slots and not other._slots:
            return True
        return self._base == other._base and self._slots == other._slots

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # All empty buffers are equal regardless of base, so they
            # must share one hash; otherwise the hash walks the slot
            # tuple exactly once per buffer (cached like _fence).
            h = hash(()) if not self._slots else hash((self._base,
                                                       self._slots))
            self._hash = h
        return h


# ---------------------------------------------------------------------------
# Register resolve function (Fig 3, extended per Section 3.5)
# ---------------------------------------------------------------------------

def resolve_register(buf: ReorderBuffer, i: int, regs: Dict[Reg, Value],
                     reg: Reg) -> Union[Value, _Bottom]:
    """``(buf +i ρ)(r)``.

    Finds the youngest in-flight assignment to ``reg`` strictly before
    buffer index ``i``.  If it is resolved (a value, or a partially
    resolved load's forwarded value), return its value; if it is still
    pending, return ``⊥``; with no in-flight assignment, fall back to the
    register file ``ρ``.
    """
    hit = buf.producer_before(i, reg)
    if hit is not None:
        return resolved_value_of(hit[1])
    value = regs.get(reg)
    if value is None:
        raise KeyError(f"register {reg!r} is not in the register file")
    return value


def resolve_operand(buf: ReorderBuffer, i: int, regs: Dict[Reg, Value],
                    rv: Operand) -> Union[Value, _Bottom]:
    """``(buf +i ρ)`` lifted to operands: values resolve to themselves."""
    if isinstance(rv, Value):
        return rv
    return resolve_register(buf, i, regs, rv)


def resolve_operands(buf: ReorderBuffer, i: int, regs: Dict[Reg, Value],
                     rvs: Operands) -> Optional[Tuple[Value, ...]]:
    """Pointwise lifting; None if *any* operand is still unresolved."""
    out = []
    for rv in rvs:
        v = rv if isinstance(rv, Value) else \
            resolve_register(buf, i, regs, rv)
        if v is BOTTOM:
            return None
        out.append(v)
    return tuple(out)
