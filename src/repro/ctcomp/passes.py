"""Program-level transformation passes.

* :func:`insert_fences` — place a speculation barrier after every
  conditional branch arm (the blunt Spectre v1 mitigation of Fig 8);
* :func:`retpolinize` — replace every indirect jump with the retpoline
  construction of Fig 13 (call; self-looping fence; compute target;
  overwrite the return address; ret);
* :func:`fence_loads` — splice a speculation barrier in front of every
  load (the lfence-everywhere Spectre v4 mitigation: a load cannot
  execute while an unretired store's address is pending);
* :func:`harden` — all three in sequence: the blanket baseline the
  per-site synthesis of :mod:`repro.mitigate` must beat on fence count.

All passes operate on assembled :class:`Program` values, so they apply
to hand-written code as well as compiler output.
"""

from __future__ import annotations

from typing import Dict

from ..core.isa import (Br, Call, Fence, Instruction, Jmpi, Load, Op, Ret,
                        Store)
from ..core.program import Program
from ..core.values import Reg, operands

#: Scratch register used by generated retpolines.
RETPOLINE_REG = Reg("rretp")


def insert_fences(program: Program) -> Program:
    """A fence at the head of both arms of every conditional branch.

    Implemented by redirecting each branch target to a fresh fence that
    falls through to the original target.  Program points for the new
    fences are allocated past the current maximum.
    """
    instrs: Dict[int, Instruction] = dict(program.items())
    next_free = _first_unreferenced_point(instrs)
    trampolines: Dict[int, int] = {}  # original target -> fence point

    def fence_to(target: int) -> int:
        nonlocal next_free
        if target not in trampolines:
            trampolines[target] = next_free
            instrs[next_free] = Fence(target)
            next_free += 1
        return trampolines[target]

    for n, instr in list(instrs.items()):
        if isinstance(instr, Br):
            instrs[n] = Br(instr.opcode, instr.args,
                           fence_to(instr.n_true), fence_to(instr.n_false))
    return Program(instrs, entry=program.entry, labels=program.labels())


def retpolinize(program: Program) -> Program:
    """Replace every ``jmpi`` with a Fig 13 retpoline.

    For a jump at point ``n`` computing target ``addr(r⃗v)``, we emit::

        n:    call(thunk, n+? fence)   ; pushes a safe return point
        pad:  fence self               ; speculation parks here
        thunk:
              rretp = op addr, r⃗v      ; the real target
              store rretp, [rsp]       ; overwrite the return address
              ret                      ; architecturally jumps to rretp

    The RSB predicts the ``ret`` returns to ``pad``, where the
    self-looping fence pins speculation until the jump target load
    resolves — at which point execution rolls back onto the *computed*
    target, never an attacker-trained one.
    """
    instrs: Dict[int, Instruction] = dict(program.items())
    next_free = _first_unreferenced_point(instrs)
    for n, instr in list(instrs.items()):
        if not isinstance(instr, Jmpi):
            continue
        pad = next_free
        thunk = next_free + 1
        store_pt = next_free + 2
        ret_pt = next_free + 3
        next_free += 4
        instrs[n] = Call(thunk, pad)
        instrs[pad] = Fence(pad)                       # fence self
        instrs[thunk] = Op(RETPOLINE_REG, "addr", instr.args, store_pt)
        instrs[store_pt] = Store(RETPOLINE_REG, operands("rsp"), ret_pt)
        instrs[ret_pt] = Ret()
    return Program(instrs, entry=program.entry, labels=program.labels())


def splice_before(instrs: Dict[int, Instruction], n: int,
                  guard: Instruction, next_free: int) -> int:
    """Splice ``guard`` in front of program point ``n``, in place.

    The original instruction moves to the fresh point ``next_free`` and
    ``guard`` (whose successor must be ``next_free``) takes its place at
    ``n``.  Every inbound edge — static successors, call return
    addresses, *and* dynamically computed targets (mistrained jmpi
    fetches, RSB predictions, return addresses read from memory) — now
    passes through the guard, which is why the per-site mitigation
    passes use this rather than rewriting predecessor edges.  Returns
    the next free point.
    """
    instrs[next_free] = instrs[n]
    instrs[n] = guard
    return next_free + 1


def fence_loads(program: Program) -> Program:
    """A fence spliced in front of every load (blanket v4 mitigation).

    A load behind a fence cannot execute until the fence retires, which
    requires every older store to have resolved its address and
    retired — no store can be speculatively bypassed, and no younger
    transient leak survives an unresolved branch either.
    """
    instrs: Dict[int, Instruction] = dict(program.items())
    next_free = _first_unreferenced_point(instrs)
    for n, instr in list(instrs.items()):
        if isinstance(instr, Load):
            next_free = splice_before(instrs, n, Fence(next_free), next_free)
    return Program(instrs, entry=program.entry, labels=program.labels())


def harden(program: Program) -> Program:
    """The blanket combination: retpolines, fences after every branch
    arm, and fences before every load.

    For sequentially constant-time programs this closes every
    speculation-introduced leak the semantics models (the blanket
    property test in ``tests/test_mitigate.py`` checks it across the
    litmus registry); it is also maximally expensive, which is what the
    counterexample-guided synthesis in :mod:`repro.mitigate` improves
    on.
    """
    return fence_loads(insert_fences(retpolinize(program)))


def count_fences(program: Program) -> int:
    """Number of fence instructions (for mitigation-cost reporting)."""
    return sum(1 for _n, i in program.items() if isinstance(i, Fence))


def _first_unreferenced_point(instrs: Dict[int, Instruction]) -> int:
    """The first program point beyond everything the program mentions.

    Unmapped-but-referenced points are halt targets by convention, so new
    instructions must not land on them.
    """
    highest = max(instrs)
    for instr in instrs.values():
        if isinstance(instr, Br):
            highest = max(highest, instr.n_true, instr.n_false)
        elif isinstance(instr, Call):
            highest = max(highest, instr.target, instr.ret)
        elif isinstance(instr, (Op, Load, Store, Fence)):
            highest = max(highest, instr.next)
    return highest + 1
