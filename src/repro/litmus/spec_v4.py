"""Spectre v4 suite (speculative store bypass), Figure 7.

v4 gadgets have a store that *should* hide stale (secret) data from a
younger load, but the store's address resolves late, so the load reads
the stale value from memory and leaks it.  These cases are only found
with forwarding-hazard exploration enabled (Table 2's ``f`` flags).

Layout of Figure 7::

    0x40..0x43  secretKey (secret)
    0x44..0x47  pubArrA   (public)
"""

from __future__ import annotations

from typing import List

from ..asm import assemble
from ..core.config import Config
from ..core.directives import execute, fetch
from ..core.lattice import PUBLIC, SECRET
from ..core.memory import Memory, layout
from .registry import LitmusCase, suite


def fig7_memory() -> Memory:
    return layout(("secretKey", 4, SECRET, [0x21, 0x22, 0x23, 0x24]),
                  ("pubArrA", 4, PUBLIC, [0, 0, 0, 0]))


def _case_fig7() -> LitmusCase:
    # Buffer of Fig 7: 2: store(0,[3,ra]); 3: load [0x43]; 4: load [0x44,rc]
    prog = assemble("""
        %r0 = op mov, 0
        store 0, [3, %ra]
        %rc = load [0x43]
        %rc = load [0x44, %rc]
        halt
    """)
    schedule = (fetch(), fetch(), fetch(), fetch(),
                execute(3), execute(4), execute(2, "addr"))
    return LitmusCase(
        name="v4_fig7",
        variant="v4",
        description="Figure 7: the zeroing store's address resolves too "
                    "late; the load reads the stale secret from memory "
                    "and a dependent load leaks it.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 0x40}, fig7_memory(), pc=1),
        figure="Fig 7",
        attack_schedule=schedule,
        leaks_sequentially=False,
        leaks_speculatively=True,
        needs_fwd_hazards=True,
    )


def _case_sanitizer_bypass() -> LitmusCase:
    """A 'sanitising' store that replaces a secret with a public token is
    bypassed; classic same-address store/load pair."""
    prog = assemble("""
        store 0, [%rp]
        %rv = load [%rp]
        %rc = load [0x44, %rv]
        halt
    """)
    def config() -> Config:
        mem = layout(("secret_slot", 1, SECRET, [0x33]),
                     ("pubArrA", 16, PUBLIC, None))
        return Config.initial({"rp": 0x40}, mem, pc=1)
    return LitmusCase(
        name="v4_sanitizer_bypass",
        variant="v4",
        description="Zero-out-then-reuse: with the store address delayed "
                    "the reuse load sees the secret it was meant to erase.",
        program=prog,
        make_config=config,
        leaks_sequentially=False,
        leaks_speculatively=True,
        needs_fwd_hazards=True,
    )


def _case_fenced() -> LitmusCase:
    """Fig 7 with a fence between store and loads: mitigated."""
    prog = assemble("""
        store 0, [3, %ra]
        fence
        %rc = load [0x43]
        %rc = load [0x44, %rc]
        halt
    """)
    return LitmusCase(
        name="v4_fenced",
        variant="v4-mitigated",
        description="The fence forces the store to retire before the "
                    "loads execute, so no stale data is readable.",
        program=prog,
        make_config=lambda: Config.initial({"ra": 0x40}, fig7_memory(), pc=1),
        leaks_sequentially=False,
        leaks_speculatively=False,
        detected_by_core_tool=False,
        needs_fwd_hazards=True,
    )


def _case_public_stale() -> LitmusCase:
    """The stale value is public: bypassing the store is architecturally
    wrong but leaks nothing secret."""
    prog = assemble("""
        store 1, [%rp]
        %rv = load [%rp]
        %rc = load [0x44, %rv]
        halt
    """)
    def config() -> Config:
        mem = layout(("pub_slot", 1, PUBLIC, [3]),
                     ("pubArrA", 16, PUBLIC, None))
        return Config.initial({"rp": 0x40}, mem, pc=1)
    return LitmusCase(
        name="v4_public_stale",
        variant="v4-safe",
        description="Same shape as Fig 7 with public stale data: the "
                    "hazard and rollback occur, but every observation is "
                    "public — SCT holds.",
        program=prog,
        make_config=config,
        leaks_sequentially=False,
        leaks_speculatively=False,
        detected_by_core_tool=False,
        needs_fwd_hazards=True,
    )


def _case_double_store() -> LitmusCase:
    """Two stores to the slot; the load must skip both to reach the
    secret (deeper forwarding exploration)."""
    prog = assemble("""
        store 0, [%rp]
        store 1, [%rp]
        %rv = load [%rp]
        %rc = load [0x44, %rv]
        halt
    """)
    def config() -> Config:
        mem = layout(("secret_slot", 1, SECRET, [0x2A]),
                     ("pubArrA", 16, PUBLIC, None))
        return Config.initial({"rp": 0x40}, mem, pc=1)
    return LitmusCase(
        name="v4_double_store",
        variant="v4",
        description="The load must bypass two pending sanitising stores "
                    "to read the stale secret: tests that the explorer "
                    "enumerates *combinations* of deferred addresses.",
        program=prog,
        make_config=config,
        leaks_sequentially=False,
        leaks_speculatively=True,
        needs_fwd_hazards=True,
    )


@suite("spec_v4")
def cases() -> List[LitmusCase]:
    """The v4 suite: Figure 7 plus variants."""
    return [
        _case_fig7(),
        _case_sanitizer_bypass(),
        _case_fenced(),
        _case_public_stale(),
        _case_double_store(),
    ]
