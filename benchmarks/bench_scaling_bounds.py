"""§4.2 scalability: path explosion vs speculation bound.

The paper: "exploring every speculative branch and potential
store-forward within a given speculation bound leads to an explosion in
state space.  In our tests, we were able to support speculation bounds
of up to 20 instructions.  We were able to increase this bound to 250
instructions when we disabled checking for store-forwarding hazards."

These benchmarks regenerate the underlying series: tool-schedule counts
as a function of the bound, with and without forwarding-hazard
exploration, plus the bound-sensitivity of gadget detection.
"""

import pytest

from conftest import once

from repro.asm import ProgramBuilder
from repro.core import Config, Machine, Memory
from repro.litmus import find_case
from repro.pitchfork import analyze, schedule_stats


def _store_load_chain(n: int):
    """n store/load pairs to one slot: every pair adds forwarding
    outcomes, the worst case for fwd-hazard exploration."""
    b = ProgramBuilder()
    for k in range(n):
        b.store(k, [0x40])
        b.load("r0", [0x40])
    b.halt()
    prog = b.build()
    return Machine(prog), Config.initial({"r0": 0}, Memory(), 1)


@pytest.mark.parametrize("bound", [4, 8, 12, 16, 20])
def test_schedules_with_fwd_hazards(benchmark, bound):
    machine, config = _store_load_chain(4)
    stats = once(benchmark, schedule_stats, machine, config,
                 bound=bound, fwd_hazards=True)
    print(f"\nbound={bound:3}  fwd=on   schedules={stats.schedules:6}  "
          f"steps={stats.total_steps}")
    assert stats.schedules >= 1


@pytest.mark.parametrize("bound", [4, 20, 60, 120, 250])
def test_schedules_without_fwd_hazards(benchmark, bound):
    """Without forwarding exploration even bound 250 stays trivial —
    the paper's reason for the 250/20 split."""
    machine, config = _store_load_chain(4)
    stats = once(benchmark, schedule_stats, machine, config,
                 bound=bound, fwd_hazards=False)
    print(f"\nbound={bound:3}  fwd=off  schedules={stats.schedules:6}  "
          f"steps={stats.total_steps}")
    assert stats.schedules == 1


def test_explosion_crossover(benchmark):
    """The with-forwarding series grows where the without-series stays
    flat: the shape behind Table 2's two-phase procedure."""
    machine, config = _store_load_chain(5)

    def series():
        with_fwd = [schedule_stats(machine, config, bound=b,
                                   fwd_hazards=True).schedules
                    for b in (4, 8, 12, 16)]
        without = [schedule_stats(machine, config, bound=b,
                                  fwd_hazards=False).schedules
                   for b in (4, 8, 12, 16)]
        return with_fwd, without

    with_fwd, without = once(benchmark, series)
    print(f"\nfwd=on : {with_fwd}\nfwd=off: {without}")
    assert without == [1, 1, 1, 1]
    assert with_fwd[-1] > with_fwd[0]          # grows with the bound
    assert with_fwd[-1] > without[-1] * 10     # and dwarfs the off-series


@pytest.mark.parametrize("bound,found", [(12, False), (24, True),
                                         (40, True)])
def test_detection_depth_secretbox(benchmark, bound, found):
    """The Fig 9 gadget needs ≥ 24 in-flight instructions: shallow
    bounds miss real bugs, the paper's motivation for bound 250."""
    from repro.casestudies.secretbox import case_study
    variant = case_study().c
    report = once(benchmark, analyze, variant.program, variant.config(),
                  bound=bound, fwd_hazards=False)
    assert (not report.secure) == found


@pytest.mark.parametrize("bound,found", [(12, False), (40, True)])
def test_detection_depth_loop_gadget(benchmark, bound, found):
    """kocher_05's loop-carried leak likewise needs a deep window."""
    case = find_case("kocher_05")
    report = once(benchmark, analyze, case.program, case.config(),
                  bound=bound, fwd_hazards=False)
    assert (not report.secure) == found
