"""Machine configurations (Section 3, "Configurations").

A configuration ``C = (ρ, µ, n, buf, σ)`` bundles the register file, data
memory, current program point, reorder buffer and return stack buffer.
(The RSB σ only appears once Appendix A.2's call/ret extension is used;
it is empty otherwise.)

Two equivalences from the paper:

* ``≃pub`` (:meth:`Config.low_equivalent`) — agreement on public register
  and memory values; the relation quantified over in the SCT definition.
* ``≈`` (:meth:`Config.arch_equivalent`) — equal memories and register
  files, ignoring speculative state; used by the sequential-equivalence
  theorem (Thm 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from .memory import Memory
from .rob import ReorderBuffer
from .rsb import ReturnStackBuffer
from .values import Reg, Value


def _freeze_regs(regs: Mapping) -> Dict[Reg, Value]:
    out: Dict[Reg, Value] = {}
    for k, v in regs.items():
        key = Reg(k) if isinstance(k, str) else k
        if not isinstance(v, Value):
            v = Value(v)
        out[key] = v
    return out


@dataclass(frozen=True)
class Config:
    """An immutable machine configuration ``(ρ, µ, n, buf, σ)``."""

    regs: Dict[Reg, Value]
    mem: Memory
    pc: int
    buf: ReorderBuffer = field(default_factory=ReorderBuffer)
    rsb: ReturnStackBuffer = field(default_factory=ReturnStackBuffer)

    @staticmethod
    def initial(regs: Mapping, mem: Memory, pc: int) -> "Config":
        """An initial configuration: empty buffer and RSB.

        ``regs`` may use plain strings and ints for convenience.
        """
        return Config(_freeze_regs(regs), mem, pc)

    # -- functional updates -------------------------------------------------

    _FIELDS = frozenset(("regs", "mem", "pc", "buf", "rsb"))

    def with_(self, **kw) -> "Config":
        """Functional record update.

        Hand-rolled rather than :func:`dataclasses.replace`: this runs
        once per machine step, and ``replace``'s field introspection is
        measurable at exploration scale.
        """
        if not kw.keys() <= self._FIELDS:
            raise TypeError(f"unknown config fields "
                            f"{sorted(kw.keys() - self._FIELDS)}")
        return Config(kw.get("regs", self.regs), kw.get("mem", self.mem),
                      kw.get("pc", self.pc), kw.get("buf", self.buf),
                      kw.get("rsb", self.rsb))

    def snapshot(self) -> "Config":
        """This configuration as an O(1) snapshot.

        Configurations are immutable values whose components (memory,
        reorder buffer, RSB) are persistent structures, so a snapshot
        *is* the configuration: the execution engine's exploration tree
        stores configurations directly and resumes from them without
        any copying.  This method exists to make that contract explicit
        at call sites.
        """
        return self

    def reg(self, name) -> Value:
        """Committed (architectural) value of a register."""
        key = Reg(name) if isinstance(name, str) else name
        return self.regs[key]

    # -- predicates ----------------------------------------------------------

    def is_initial(self) -> bool:
        """|buf| = 0 (Definition B.2 covers initial *and* terminal)."""
        return len(self.buf) == 0

    is_terminal = is_initial

    # -- equivalences ---------------------------------------------------------

    def low_equivalent(self, other: "Config") -> bool:
        """``≃pub``: coincidence of public register and memory values."""
        if self.pc != other.pc:
            return False
        if set(self.regs) != set(other.regs):
            return False
        for r, v in self.regs.items():
            w = other.regs[r]
            if v.label != w.label:
                return False
            if v.is_public() and v.val != w.val:
                return False
        return self.mem.low_equivalent(other.mem)

    def arch_equivalent(self, other: "Config") -> bool:
        """``≈``: equal memories and register files (speculative state —
        buffer, RSB, and transient pc — may differ)."""
        return self.regs == other.regs and self.mem == other.mem

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Config):
            return NotImplemented
        if self is other:
            return True
        ha = self.__dict__.get("_shash")
        if ha is not None and ha != other.__dict__.get("_shash", ha):
            # Sound fast-fail: equal configurations hash equal, and a
            # memoised hash never changes (every component is immutable).
            return False
        return (self.pc == other.pc and self.buf == other.buf
                and self.rsb == other.rsb and self.regs == other.regs
                and self.mem == other.mem)

    def __hash__(self) -> int:
        """Structural hash, memoised on first use.

        Configurations are immutable values over persistent components
        (the memory maintains its hash incrementally on write, the
        buffers memoise theirs), so this is computed at most once and
        never invalidated.  The subsumption table and the engine's
        trial-step cache both key on it.
        """
        try:
            return self._shash
        except AttributeError:
            pass
        h = hash((tuple(sorted((r.name, v.val, v.label)
                               for r, v in self.regs.items()
                               if isinstance(v.val, int))),
                  self.mem, self.pc, self.buf, self.rsb))
        object.__setattr__(self, "_shash", h)
        return h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        regs = ", ".join(f"{r.name}={v!r}" for r, v in sorted(
            self.regs.items(), key=lambda kv: kv[0].name))
        return (f"Config(pc={self.pc}, regs={{{regs}}}, "
                f"|buf|={len(self.buf)})")
