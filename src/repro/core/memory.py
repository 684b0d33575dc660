"""Labelled data memory µ (the data half of the paper's memory).

Memory maps addresses to labelled values.  Reads of unmapped addresses
yield a fresh public zero — in the paper's attack figures speculative
loads routinely read "irrelevant" values ``X`` from addresses the victim
never initialised, and the semantics must not get stuck there.

Memories are immutable values, but *not* copied wholesale on write:
each instance is a persistent overlay — a shared base dict (never
mutated once published) plus a small private delta.  A store retire
therefore costs O(|delta|) ≤ the compaction threshold instead of
O(|memory|); when the delta grows past the threshold it is folded into
a fresh base, keeping reads at two dict probes.  This is the
engine-level structural sharing the exploration stack leans on (see
DESIGN.md, "The execution engine") — observable behaviour is exactly
that of the seed's copy-the-dict implementation.

:class:`Region` is a small allocation helper used by the litmus tests and
case studies to lay out named arrays (``array A``, ``secretKey``, …) and
to ask questions like "which region does this observation's address fall
in", which the cache attacker uses for recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .lattice import Label, PUBLIC
from .values import Value

#: Delta entries tolerated before an overlay is folded into its base.
#: Small enough that writes stay effectively O(1), large enough that
#: bursts of stores (a drain retiring a full buffer) rarely compact.
_COMPACT_LIMIT = 32


def _cell_hash(addr: int, value: Value) -> int:
    """One cell's contribution to a memory's structural hash.

    Contributions are XOR-combined, which makes them order-independent
    (matching ``cells()`` equality, which has no order) and — crucially
    — invertible: a write can XOR the old cell's contribution out and
    the new one in, so the hash of ``µ[a ↦ v]`` is O(1) from the hash
    of ``µ``.  Non-integer payloads contribute a constant, exactly like
    the seed hash which skipped them; equality still compares them
    fully.
    """
    payload = value.val
    if type(payload) is not int:
        return 0
    return hash((addr, payload, value.label))


@dataclass(frozen=True)
class Region:
    """A named, contiguous block of memory with a default label."""

    name: str
    base: int
    size: int
    label: Label = PUBLIC

    def __contains__(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def addr(self, offset: int) -> int:
        """Address of ``self[offset]`` (bounds are deliberately unchecked:
        out-of-bounds arithmetic is what Spectre gadgets do)."""
        return self.base + offset

    def offsets(self) -> range:
        return range(self.size)


class Memory:
    """An immutable labelled memory (persistent base + delta overlay).

    Mutation (:meth:`write`) returns a new memory sharing the base
    storage with the old one.  Program text lives separately in
    :class:`repro.core.program.Program`.
    """

    __slots__ = ("_base", "_delta", "_regions", "_shash")

    def __init__(self, cells: Optional[Dict[int, Value]] = None,
                 regions: Tuple[Region, ...] = ()):
        self._base: Dict[int, Value] = dict(cells or {})
        self._delta: Dict[int, Value] = {}
        self._regions = regions
        shash = 0
        for addr, value in self._base.items():
            shash ^= _cell_hash(addr, value)
        self._shash = shash

    @classmethod
    def _overlay(cls, base: Dict[int, Value], delta: Dict[int, Value],
                 regions: Tuple[Region, ...], shash: int) -> "Memory":
        """Internal constructor sharing ``base`` (which must never be
        mutated after publication); compacts oversized deltas.

        ``shash`` is the already-maintained structural hash of the
        overlay's contents — compaction only re-shelves cells, so it
        passes through unchanged.  Never invalidated: memories are
        persistent, so the hash is a property of the value.
        """
        if len(delta) > _COMPACT_LIMIT:
            base = {**base, **delta}
            delta = {}
        mem = object.__new__(cls)
        mem._base = base
        mem._delta = delta
        mem._regions = regions
        mem._shash = shash
        return mem

    # -- reads -------------------------------------------------------------

    def read(self, addr: int) -> Value:
        """µ(a); unmapped addresses read as a fresh public 0."""
        got = self._delta.get(addr)
        if got is not None:
            return got
        got = self._base.get(addr)
        if got is not None:
            return got
        return Value(0, PUBLIC)

    def is_mapped(self, addr: int) -> bool:
        return addr in self._delta or addr in self._base

    def __getitem__(self, addr: int) -> Value:
        return self.read(addr)

    # -- writes ------------------------------------------------------------

    def write(self, addr: int, value: Value) -> "Memory":
        """µ[a ↦ v]; returns a new memory sharing storage with this one."""
        old = self._delta.get(addr)
        if old is None:
            old = self._base.get(addr)
        shash = self._shash ^ _cell_hash(addr, value)
        if old is not None:
            shash ^= _cell_hash(addr, old)
        return Memory._overlay(self._base, {**self._delta, addr: value},
                               self._regions, shash)

    def write_all(self, pairs: Iterable[Tuple[int, Value]]) -> "Memory":
        delta = dict(self._delta)
        shash = self._shash
        for addr, value in pairs:
            old = delta.get(addr)
            if old is None:
                old = self._base.get(addr)
            shash ^= _cell_hash(addr, value)
            if old is not None:
                shash ^= _cell_hash(addr, old)
            delta[addr] = value
        return Memory._overlay(self._base, delta, self._regions, shash)

    # -- regions -----------------------------------------------------------

    def with_region(self, region: Region,
                    init: Optional[Iterable[int]] = None) -> "Memory":
        """Register a region and optionally initialise its cells."""
        cells = self.cells()
        if init is not None:
            for off, payload in enumerate(init):
                cells[region.base + off] = Value(payload, region.label)
        else:
            for off in region.offsets():
                cells.setdefault(region.base + off, Value(0, region.label))
        return Memory(cells, self._regions + (region,))

    def region(self, name: str) -> Region:
        for r in self._regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def regions(self) -> Tuple[Region, ...]:
        return self._regions

    def region_of(self, addr: int) -> Optional[Region]:
        """The region containing ``addr``, if any."""
        for r in self._regions:
            if addr in r:
                return r
        return None

    # -- equivalences --------------------------------------------------------

    def addresses(self) -> Iterator[int]:
        if not self._delta:
            return iter(sorted(self._base))
        return iter(sorted({*self._base, *self._delta}))

    def cells(self) -> Dict[int, Value]:
        """A snapshot copy of the mapped cells."""
        if not self._delta:
            return dict(self._base)
        return {**self._base, **self._delta}

    def low_equivalent(self, other: "Memory") -> bool:
        """``≃pub`` on memories: agreement on all public cells.

        Two memories are low-equivalent when the same addresses hold
        public values and those public values coincide.  Secret cells may
        differ arbitrarily (but must be secret in both).
        """
        mine = {a: v for a, v in self.cells().items() if v.is_public()}
        theirs = {a: v for a, v in other.cells().items() if v.is_public()}
        if set(mine) != set(theirs):
            return False
        return all(mine[a].val == theirs[a].val for a in mine)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        if self._shash != other._shash:
            # Sound fast-fail: equal cell maps have equal XOR hashes.
            return False
        if self._base is other._base and self._delta == other._delta:
            return True
        return self.cells() == other.cells()

    def __hash__(self) -> int:
        return self._shash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cells = ", ".join(f"{a:#x}: {v!r}" for a, v in sorted(self.cells().items()))
        return f"Memory{{{cells}}}"


def layout(*specs: Tuple[str, int, Label, List[int]]) -> Memory:
    """Build a memory from (name, size, label, init) region specs laid out
    contiguously from address 0x40 (matching the paper's figures)."""
    mem = Memory()
    base = 0x40
    for name, size, label, init in specs:
        region = Region(name, base, size, label)
        mem = mem.with_region(region, init)
        base += size
    return mem
