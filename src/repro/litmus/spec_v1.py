"""Spectre v1 suite (bounds-check bypass), including Figure 1.

The paper's own v1 suite contains cases that are *sequentially*
constant-time and leak only under speculation ("Since many of the Kocher
examples exhibit violations even during sequential execution, we create a
new set of Spectre v1 test cases which only exhibit violations when
executed speculatively").  This module is that suite, with Figure 1 and
Figure 8 (the fence mitigation) as the anchor cases.

Shared memory layout, as in Figure 1::

    0x40..0x43  array A   (public)
    0x44..0x47  array B   (public)
    0x48..0x4B  Key       (secret)
"""

from __future__ import annotations

from typing import List

from ..asm import assemble
from ..core.config import Config
from ..core.directives import execute, fetch
from ..core.lattice import PUBLIC, SECRET
from ..core.memory import Memory, Region, layout
from .registry import LitmusCase, suite

A_BASE, B_BASE, KEY_BASE = 0x40, 0x44, 0x48


def fig1_memory() -> Memory:
    """The memory of Figure 1 (and most v1 cases)."""
    return layout(("A", 4, PUBLIC, [1, 2, 3, 0]),
                  ("B", 4, PUBLIC, [10, 20, 30, 40]),
                  ("Key", 4, SECRET, [0xA1, 0xA2, 0xA3, 0xA4]))


def _case_fig1() -> LitmusCase:
    # 1: br(>, (4, ra), 2, 4); 2: rb = load [0x40+ra]; 3: rc = load [0x44+rb]
    prog = assemble("""
        br gt, 4, %ra -> 2, 4
        %rb = load [0x40, %ra]
        %rc = load [0x44, %rb]
        halt
    """)
    schedule = (fetch(True), fetch(), fetch(), execute(2), execute(3))
    return LitmusCase(
        name="v1_fig1",
        variant="v1",
        description="Figure 1: classic bounds-check bypass; the second "
                    "load's address is derived from out-of-bounds data.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 9}, fig1_memory(), pc=1),
        figure="Fig 1",
        attack_schedule=schedule,
        leaks_sequentially=False,
        leaks_speculatively=True,
    )


def _case_fig8_fence() -> LitmusCase:
    prog = assemble("""
        br gt, 4, %ra -> 2, 5
        fence
        %rb = load [0x40, %ra]
        %rc = load [0x44, %rb]
        halt
    """)
    return LitmusCase(
        name="v1_fig8_fence",
        variant="v1-mitigated",
        description="Figure 8: the fence after the branch stops the loads "
                    "from executing before the branch resolves.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 9}, fig1_memory(), pc=1),
        figure="Fig 8",
        leaks_sequentially=False,
        leaks_speculatively=False,
        detected_by_core_tool=False,
    )


def _case_index_from_memory() -> LitmusCase:
    """The out-of-bounds index arrives via a load, not a register."""
    prog = assemble("""
        %ra = load [0x4C]
        br gt, 4, %ra -> 3, 5
        %rb = load [0x40, %ra]
        %rc = load [0x44, %rb]
        halt
    """)
    def config() -> Config:
        mem = fig1_memory().with_region(Region("idx", 0x4C, 1, PUBLIC), [9])
        return Config.initial({}, mem, pc=1)
    return LitmusCase(
        name="v1_index_from_memory",
        variant="v1",
        description="v1 where the attacker-controlled index is loaded "
                    "from memory before the bounds check.",
        program=prog,
        make_config=config,
        leaks_sequentially=False,
        leaks_speculatively=True,
    )


def _case_double_check() -> LitmusCase:
    """Two nested bounds checks; both must be bypassed speculatively."""
    prog = assemble("""
        br gt, 4, %ra -> 2, 6
        br ge, %ra, 0 -> 3, 6
        %rb = load [0x40, %ra]
        %rc = load [0x44, %rb]
        halt
        halt
    """)
    return LitmusCase(
        name="v1_double_check",
        variant="v1",
        description="Nested bounds checks: speculation must bypass two "
                    "branches; exercises multi-level misprediction.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 9}, fig1_memory(), pc=1),
        leaks_sequentially=False,
        leaks_speculatively=True,
    )


def _case_leak_via_branch() -> LitmusCase:
    """The out-of-bounds value is leaked through a branch *condition*
    rather than a load address (control-flow leak)."""
    prog = assemble("""
        br gt, 4, %ra -> 2, 5
        %rb = load [0x40, %ra]
        br gt, %rb, 0x80 -> 4, 5
        %rc = load [0x44]
        halt
    """)
    return LitmusCase(
        name="v1_leak_via_branch",
        variant="v1",
        description="Bypassed bounds check followed by a branch on the "
                    "out-of-bounds (secret) value: the jump observation "
                    "carries a secret label.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 9}, fig1_memory(), pc=1),
        leaks_sequentially=False,
        leaks_speculatively=True,
    )


def _case_leak_via_store_addr() -> LitmusCase:
    """The secret flows into a *store* address (leaks via fwd/write)."""
    prog = assemble("""
        br gt, 4, %ra -> 2, 5
        %rb = load [0x40, %ra]
        store 1, [0x44, %rb]
        halt
        halt
    """)
    return LitmusCase(
        name="v1_leak_via_store_addr",
        variant="v1",
        description="The out-of-bounds value becomes a store address; the "
                    "address resolution observation (fwd) leaks it.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 9}, fig1_memory(), pc=1),
        leaks_sequentially=False,
        leaks_speculatively=True,
    )


def _case_in_register_only() -> LitmusCase:
    """Out-of-bounds data stays in registers: no observation leaks it."""
    prog = assemble("""
        br gt, 4, %ra -> 2, 4
        %rb = load [0x40, %ra]
        %rc = op add, %rb, 1
        halt
    """)
    return LitmusCase(
        name="v1_in_register_only",
        variant="v1-safe",
        description="The speculatively read secret never reaches an "
                    "address or branch: arithmetic on it is unobservable, "
                    "so the program is SCT.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 9}, fig1_memory(), pc=1),
        leaks_sequentially=False,
        leaks_speculatively=False,
        detected_by_core_tool=False,
    )


def _case_masked_index() -> LitmusCase:
    """Index masking (the classic Spectre mitigation): always in bounds."""
    prog = assemble("""
        %ra = op and, %ra, 3
        br gt, 4, %ra -> 3, 5
        %rb = load [0x40, %ra]
        %rc = load [0x44, %rb]
        halt
    """)
    return LitmusCase(
        name="v1_masked_index",
        variant="v1-mitigated",
        description="The index is masked to the array bounds before use; "
                    "even mispredicted speculation stays in bounds.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 9}, fig1_memory(), pc=1),
        leaks_sequentially=False,
        leaks_speculatively=False,
        detected_by_core_tool=False,
    )


def _case_sequential_leak() -> LitmusCase:
    """A classical (sequential) CT violation: loads a secret address
    unconditionally — flagged even without speculation."""
    prog = assemble("""
        %rb = load [0x48]
        %rc = load [0x44, %rb]
        halt
    """)
    return LitmusCase(
        name="v1_sequential_leak",
        variant="sequential",
        description="Unconditionally indexes a public array with a secret "
                    "value: violates classical constant-time (and hence "
                    "SCT) — like many original Kocher cases.",
        program=prog,
        make_config=lambda: Config.initial({}, fig1_memory(), pc=1),
        leaks_sequentially=True,
        leaks_speculatively=True,
    )


@suite("spec_v1")
def cases() -> List[LitmusCase]:
    """The v1 suite: Figure 1/8 plus speculative-only variants."""
    return [
        _case_fig1(),
        _case_fig8_fence(),
        _case_index_from_memory(),
        _case_double_check(),
        _case_leak_via_branch(),
        _case_leak_via_store_addr(),
        _case_in_register_only(),
        _case_masked_index(),
        _case_sequential_leak(),
    ]
