"""Spectre v2, ret2spec and retpoline (Appendix A; Figures 11-13).

These cases exercise the extended semantics: indirect jumps with
attacker-guessed targets, call/ret with the return stack buffer, and the
retpoline construction that defeats indirect-target mistraining.

The paper's core tool does not explore mistrained indirect targets
("Pitchfork only exercises a subset of our semantics"); the cases record
that via ``detected_by_core_tool=False`` together with the extended
exploration targets that *do* find them (``jmpi_targets`` /
``rsb_targets``).
"""

from __future__ import annotations

from typing import List

from ..core.config import Config
from ..core.directives import RETIRE, execute, fetch
from ..core.isa import Call, Fence, Jmpi, Load, Op, Ret, Store
from ..core.lattice import PUBLIC, SECRET
from ..core.memory import Memory, Region, layout
from ..core.program import Program
from ..core.values import Reg, operands
from .registry import LitmusCase, suite


def _fig11_program() -> Program:
    """Figure 11, verbatim: program points 1-3 and 16-18."""
    return Program({
        1: Load(Reg("rc"), operands(0x48, "ra"), 2),
        2: Fence(3),
        3: Jmpi(operands(12, "rb")),
        16: Fence(17),
        17: Load(Reg("rd"), operands(0x44, "rc"), 18),
        # 18: halt (unmapped)
        20: Fence(21),  # the intended target of the indirect jump
        # 21: halt (unmapped)
    }, entry=1)


def fig11_memory() -> Memory:
    # Figure 11's layout: array B at 0x44..0x47, Key at 0x48..0x4B.
    return layout(("pad", 4, PUBLIC, None),
                  ("B", 4, PUBLIC, [0, 0, 0, 0]),
                  ("Key", 4, SECRET, [0xB1, 0xB2, 0xB3, 0xB4]))


def _case_fig11_v2() -> LitmusCase:
    prog = _fig11_program()
    schedule = (fetch(), fetch(), execute(1), fetch(17), fetch(),
                RETIRE, RETIRE, execute(4))
    def config() -> Config:
        return Config.initial({"ra": 1, "rb": 8}, fig11_memory(), pc=1)
    return LitmusCase(
        name="v2_fig11",
        variant="v2",
        description="Figure 11: a mistrained indirect branch sends "
                    "speculation to a gadget that leaks the loaded "
                    "secret; fences do not help.",
        program=prog,
        make_config=config,
        figure="Fig 11",
        attack_schedule=schedule,
        leaks_sequentially=False,
        leaks_speculatively=True,
        detected_by_core_tool=False,
        jmpi_targets=(17,),
    )


def _ret2spec_program() -> Program:
    """Figure 12's program (call/ret/ret) plus a disclosure gadget."""
    return Program({
        1: Call(3, 2),
        2: Ret(),
        3: Ret(),
        # The gadget the attacker steers speculation into:
        10: Load(Reg("rd"), operands(0x40, "rk"), 11),
        11: Load(Reg("re"), operands(0x40, "rd"), 12),
        # 12: halt
    }, entry=1)


def _case_fig12_ret2spec() -> LitmusCase:
    prog = _ret2spec_program()
    def config() -> Config:
        mem = layout(("pubArr", 4, PUBLIC, [0, 0, 0, 0]),
                     ("Key", 4, SECRET, [0xC1, 0xC2, 0xC3, 0xC4]))
        mem = mem.with_region(Region("stack", 0x60, 8, PUBLIC), None)
        return Config.initial({"rsp": 0x67, "rk": 4}, mem, pc=1)
    # fetch call (1-3); fetch ret@3 (4-7, RSB predicts 2);
    # fetch ret@2 (8-11, RSB empty: attacker sends execution to 10);
    # fetch gadget loads (12, 13) and execute them.
    schedule = (fetch(), fetch(), fetch(10), fetch(), fetch(),
                execute(12), execute(13))
    return LitmusCase(
        name="ret2spec_fig12",
        variant="ret2spec",
        description="Figure 12: RSB underflow lets the attacker steer a "
                    "speculative return into a disclosure gadget.",
        program=prog,
        make_config=config,
        figure="Fig 12",
        attack_schedule=schedule,
        leaks_sequentially=False,
        leaks_speculatively=True,
        detected_by_core_tool=False,
        rsb_targets=(10,),
    )


def _retpoline_program() -> Program:
    """Figure 13, verbatim: the retpoline replacing Fig 11's jmpi."""
    return Program({
        3: Call(5, 4),
        4: Fence(4),                                   # fence self
        5: Op(Reg("rd"), "addr", operands(12, "rb"), 6),
        6: Store(Reg("rd"), operands("rsp"), 7),
        7: Ret(),
        20: Fence(21),                                 # the real target
        # 21: halt
    }, entry=3)


def _case_fig13_retpoline() -> LitmusCase:
    prog = _retpoline_program()
    def config() -> Config:
        mem = Memory().with_region(Region("stack", 0x78, 8, PUBLIC), None)
        return Config.initial({"rb": 8, "rsp": 0x7C}, mem, pc=3)
    # Figure 13's directive list, adjusted to our buffer numbering
    # (call group at 1-3, rd op at 4, store at 5, ret group at 6-9,
    # fence at 10):
    schedule = (fetch(), fetch(), fetch(), fetch(), fetch(),
                execute(2),            # rsp = succ(rsp) = 0x7B
                execute(4),            # rd = 12 + rb = 20
                execute(5, "value"),   # store(20, [rsp])
                execute(5, "addr"),    # store(20, 0x7B)      fwd 0x7B
                execute(7),            # rtmp = 20 (fwd from 5) fwd 0x7B
                execute(9))            # jmpi: guess 4, actual 20 →
                                       # rollback, jump 20
    return LitmusCase(
        name="retpoline_fig13",
        variant="v2-mitigated",
        description="Figure 13: the retpoline bounces speculation into a "
                    "self-looping fence; the eventual jump goes to the "
                    "computed target with no attacker influence.",
        program=prog,
        make_config=config,
        figure="Fig 13",
        attack_schedule=schedule,
        leaks_sequentially=False,
        leaks_speculatively=False,
        detected_by_core_tool=False,
    )


def _case_v2_retpolined_gadget() -> LitmusCase:
    """Fig 11's leaky program rebuilt with a retpoline: the secret-handling
    gadget at 17 is unreachable by mistraining."""
    prog = Program({
        1: Load(Reg("rc"), operands(0x48, "ra"), 2),
        2: Fence(3),
        3: Call(5, 4),
        4: Fence(4),
        5: Op(Reg("rd"), "addr", operands(12, "rb"), 6),
        6: Store(Reg("rd"), operands("rsp"), 7),
        7: Ret(),
        16: Fence(17),
        17: Load(Reg("rd"), operands(0x44, "rc"), 18),
        20: Fence(21),
        # 21: halt
    }, entry=1)
    def config() -> Config:
        mem = fig11_memory().with_region(Region("stack", 0x78, 8, PUBLIC),
                                         None)
        return Config.initial({"ra": 1, "rb": 8, "rsp": 0x7C}, mem, pc=1)
    return LitmusCase(
        name="v2_retpolined",
        variant="v2-mitigated",
        description="Fig 11's gadget guarded by a retpoline: the attacker "
                    "cannot steer the speculative target to 17, so the "
                    "secret in rc never reaches an observation.",
        program=prog,
        make_config=config,
        leaks_sequentially=False,
        leaks_speculatively=False,
        detected_by_core_tool=False,
        jmpi_targets=(17,),
    )


@suite("spec_rsb")
def cases() -> List[LitmusCase]:
    """v2 / ret2spec / retpoline cases (Figures 11-13)."""
    return [
        _case_fig11_v2(),
        _case_fig12_ret2spec(),
        _case_fig13_retpoline(),
        _case_v2_retpolined_gadget(),
    ]
