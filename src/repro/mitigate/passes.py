"""Per-site mitigation passes.

Where :mod:`repro.ctcomp.passes` transforms *every* branch or load, the
passes here protect one :class:`~repro.mitigate.localize.ViolationSite`
at a time:

* :func:`apply_fence` — splice a speculation barrier in front of the
  leak point.  The original instruction moves to a fresh point and the
  fence takes its place, so every inbound edge — including dynamically
  computed ones (mistrained ``jmpi`` fetch targets, RSB predictions,
  return addresses read from memory) — passes through the barrier.
  Soundness is the fence side condition itself (``∀j<i : buf(j) ≠
  fence``): the protected instruction cannot execute while the fence is
  unretired, and the fence retires only once it is the oldest buffer
  entry — i.e. after every speculation source that preceded it has
  resolved, rolled back, or retired.
* :func:`apply_slh` — speculative-load-hardening for Spectre v1 loads:
  re-materialize the guarding branch's condition as data, turn it into
  an all-ones/all-zeroes mask (the classic ``ct`` idiom the ISA's
  ``mask`` opcode provides), and mask every register operand of the
  protected load.  On the architectural path the mask is all-ones and
  the load is unchanged; under misspeculation the condition evaluates
  false *as data* (ops execute transiently with actual register
  values), the operands collapse to zero, and the load hits the public
  base address.  Costs arithmetic instead of a speculation barrier.
* :func:`remove_fence` — the exact inverse splice, used by the shrink
  phase to test whether a fence is load-bearing.

Every pass emits a valid :class:`~repro.core.program.Program` that
round-trips through :func:`repro.asm.to_source` /
:func:`repro.asm.assemble`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import ReproError
from ..core.isa import Br, Fence, Instruction, Load, Op
from ..core.program import Program
from ..core.values import Reg, Value
from .localize import ViolationSite

#: Prefix of the scratch registers SLH sequences introduce.
SLH_PREFIX = "rslh"


class MitigationError(ReproError):
    """A pass does not apply to this site (callers fall back to a
    fence)."""


@dataclass(frozen=True)
class AppliedMitigation:
    """One applied per-site transformation (the repair-certificate
    entry)."""

    site_pp: int               #: protected program point
    policy: str                #: "fence" or "slh"
    relocated_pp: int          #: where the original instruction now lives
    new_points: Tuple[int, ...]  #: every point the pass allocated
    #: fence point (== site_pp for fence splices, None for SLH)
    fence_pp: Optional[int] = None
    masked_regs: Tuple[str, ...] = ()   #: SLH: load operands masked
    #: SLH: (original register, mask register) pairs, for exact undo.
    mask_pairs: Tuple[Tuple[str, str], ...] = ()
    guard_branch_pp: Optional[int] = None  #: SLH: branch re-checked

    def to_dict(self) -> Dict[str, object]:
        return {
            "site_pp": self.site_pp,
            "policy": self.policy,
            "relocated_pp": self.relocated_pp,
            "new_points": list(self.new_points),
            "fence_pp": self.fence_pp,
            "masked_regs": list(self.masked_regs),
            "guard_branch_pp": self.guard_branch_pp,
        }


def apply_fence(program: Program, pp: int
                ) -> Tuple[Program, AppliedMitigation]:
    """Splice ``fence`` in front of program point ``pp``."""
    if program.get(pp) is None:
        raise MitigationError(f"no instruction at program point {pp}")
    if isinstance(program.get(pp), Fence):
        raise MitigationError(f"point {pp} is already a fence")
    # repro.api imports this package (for REPAIR_POLICIES); importing
    # repro.ctcomp here keeps its compiler out of that start-up.
    from ..ctcomp.passes import _first_unreferenced_point, splice_before
    instrs: Dict[int, Instruction] = dict(program.items())
    relocated = _first_unreferenced_point(instrs)
    splice_before(instrs, pp, Fence(relocated), relocated)
    repaired = Program(instrs, entry=program.entry, labels=program.labels())
    return repaired, AppliedMitigation(
        site_pp=pp, policy="fence", relocated_pp=relocated,
        new_points=(relocated,), fence_pp=pp)


def remove_fence(program: Program,
                 applied: AppliedMitigation) -> Optional[Program]:
    """Invert :func:`apply_fence`: the relocated instruction moves back.

    Returns None when the splice is no longer cleanly removable — a
    later pass re-guarded one of its points (the shrink phase simply
    keeps such fences).
    """
    if applied.policy != "fence" or applied.fence_pp is None:
        return None
    instrs: Dict[int, Instruction] = dict(program.items())
    guard = instrs.get(applied.fence_pp)
    if not isinstance(guard, Fence) or guard.next != applied.relocated_pp:
        return None
    if applied.relocated_pp not in instrs:
        return None
    instrs[applied.fence_pp] = instrs.pop(applied.relocated_pp)
    return Program(instrs, entry=program.entry, labels=program.labels())


def _used_register_names(program: Program) -> Set[str]:
    names: Set[str] = set()
    for _n, instr in program.items():
        for attr in ("dest", "src"):
            v = getattr(instr, attr, None)
            if isinstance(v, Reg):
                names.add(v.name)
        for a in getattr(instr, "args", ()):
            if isinstance(a, Reg):
                names.add(a.name)
    return names


def _fresh_slh_regs(program: Program, count: int) -> List[Reg]:
    used = _used_register_names(program)
    out: List[Reg] = []
    serial = 0
    while len(out) < count:
        name = f"{SLH_PREFIX}{serial}"
        serial += 1
        if name not in used:
            used.add(name)
            out.append(Reg(name))
    return out


def apply_slh(program: Program, site: ViolationSite,
              load_pp: Optional[int] = None
              ) -> Tuple[Program, AppliedMitigation]:
    """Mask the load at ``load_pp`` (default: the site's leak point)
    with the re-checked condition of the mispredicted branch at
    ``site.branch_pp``.

    When the flagged load's address is already tainted, the useful
    target is the site's *taint source* — the access load whose result
    carries the secret — because masking downstream operands cannot
    lower their label (the mask joins in, it never subtracts); the
    synthesis loop passes ``site.taint_pp`` here in that case.

    Emits, spliced in front of the load (``c`` is the branch predicate,
    negated when the speculated arm was the false target)::

        rslh0 = op <cond>, <branch args>     ; recompute the guard
        rslh1 = op mask, rslh0               ; all-ones iff on-path
        rslh2 = op and, <reg operand>, rslh1 ; per register operand
        <dest> = load [<masked operands>]

    The transformation is *proposed*, not trusted: the synthesis loop
    re-verifies security with Pitchfork and re-checks sequential
    equivalence against the original program, falling back to a fence
    when either fails (e.g. a branch operand rewritten between the
    guard and the load).
    """
    load_pp = site.leak_pp if load_pp is None else load_pp
    load = program.get(load_pp)
    if not isinstance(load, Load):
        raise MitigationError(f"SLH protects loads; {load_pp} holds "
                              f"{load!r}")
    if site.branch_pp is None:
        raise MitigationError("no guarding branch to re-check")
    branch = program.get(site.branch_pp)
    if not isinstance(branch, Br):
        raise MitigationError(f"{site.branch_pp} holds {branch!r}, not a "
                              f"conditional branch")
    reg_args = []
    for a in load.args:
        if isinstance(a, Reg) and a not in reg_args:
            reg_args.append(a)
    if not reg_args:
        raise MitigationError("load has no register operands to mask")

    cond_polarity_true = bool(site.branch_taken)
    # The negation op reuses cond_reg, so only the condition, the mask
    # and one register per masked operand need fresh names.
    fresh = _fresh_slh_regs(program, 2 + len(reg_args))
    cond_reg, mask_reg, masked = fresh[0], fresh[1], fresh[2:]

    # The op sequence, in order; successors are wired up during layout.
    ops: List[Tuple[Reg, str, Tuple[object, ...]]] = [
        (cond_reg, branch.opcode, branch.args)]
    if not cond_polarity_true:
        ops.append((cond_reg, "eq", (cond_reg, Value(0))))
    ops.append((mask_reg, "mask", (cond_reg,)))
    mapping: Dict[Reg, Reg] = {}
    for r, m in zip(reg_args, masked):
        ops.append((m, "and", (r, mask_reg)))
        mapping[r] = m

    from ..ctcomp.passes import _first_unreferenced_point
    instrs: Dict[int, Instruction] = dict(program.items())
    next_free = _first_unreferenced_point(instrs)
    points = [load_pp] + list(range(next_free, next_free + len(ops) - 1))
    relocated = next_free + len(ops) - 1
    for k, (dest, opcode, args) in enumerate(ops):
        succ = points[k + 1] if k + 1 < len(ops) else relocated
        instrs[points[k]] = Op(dest, opcode, tuple(args), succ)
    new_args = tuple(mapping.get(a, a) if isinstance(a, Reg) else a
                     for a in load.args)
    instrs[relocated] = Load(load.dest, new_args, load.next)

    repaired = Program(instrs, entry=program.entry, labels=program.labels())
    return repaired, AppliedMitigation(
        site_pp=load_pp, policy="slh", relocated_pp=relocated,
        new_points=tuple(points[1:] + [relocated]),
        masked_regs=tuple(r.name for r in reg_args),
        mask_pairs=tuple((r.name, m.name) for r, m in mapping.items()),
        guard_branch_pp=site.branch_pp)


def remove_slh(program: Program,
               applied: AppliedMitigation) -> Optional[Program]:
    """Invert :func:`apply_slh`: restore the unmasked load at the site
    and drop the mask sequence.

    Returns None when the splice is no longer cleanly removable (a
    later pass re-guarded one of its points).
    """
    if applied.policy != "slh":
        return None
    instrs: Dict[int, Instruction] = dict(program.items())
    load = instrs.get(applied.relocated_pp)
    head = instrs.get(applied.site_pp)
    if not isinstance(load, Load) or not isinstance(head, Op):
        return None
    if not all(p in instrs for p in applied.new_points):
        return None
    unmask = {m: Reg(r) for r, m in applied.mask_pairs}
    restored = tuple(unmask.get(a.name, a) if isinstance(a, Reg) else a
                     for a in load.args)
    instrs[applied.site_pp] = Load(load.dest, restored, load.next)
    for p in applied.new_points:
        del instrs[p]
    return Program(instrs, entry=program.entry, labels=program.labels())
