"""Ablations of the reproduction's design choices.

Quantifies the knobs that make the detector practical and the
extensions that go beyond the original tool:

* probe pruning (end mispredicted-branch paths at their rollback,
  justified by Thm B.7) — path counts with the pruning are measured
  here; see the module docstring of `repro.pitchfork.explorer`;
* per-load forwarding arms (§4.1's construction) vs. the exponential
  per-store deferral the naive reading of Def B.18 suggests;
* RSB policies (App A.2): the "directive" policy is attackable by
  ret2spec, "refuse" (AMD) and "circular" (most Intel) change the
  attack surface.
"""

import pytest

from conftest import once

from repro.asm import ProgramBuilder
from repro.core import Config, Machine, Memory, StuckError, fetch, run
from repro.litmus import find_case
from repro.pitchfork import ExplorationOptions, Explorer, schedule_stats


def _branchy_program(branches: int):
    """A chain of two-sided public branches — probe-pruning's worst
    case without it (each misprediction would re-explore the whole
    suffix, giving 2^branches paths)."""
    b = ProgramBuilder()
    for k in range(branches):
        # taken arm runs one extra op; fall-through skips it
        b.br("ltu", [f"r{k % 4}", 2], b.here() + 1, b.here() + 2)
        b.op(f"r{k % 4}", "add", [f"r{k % 4}", 1])
    b.halt()
    prog = b.build()
    cfg = Config.initial({f"r{k}": 0 for k in range(4)}, Memory(), 1)
    return Machine(prog), cfg


@pytest.mark.parametrize("branches", [4, 8, 12])
def test_probe_pruning_keeps_paths_linear(benchmark, branches):
    """With pruning, tool paths grow linearly in the branch count (one
    probe family per site, sized by how many branches fit one window)
    instead of the 2^branches a naive suffix re-exploration gives."""
    machine, cfg = _branchy_program(branches)
    stats = once(benchmark, schedule_stats, machine, cfg,
                 bound=8, fwd_hazards=False)
    print(f"\nbranches={branches}: schedules={stats.schedules} "
          f"(naive would be {2 ** branches})")
    assert stats.schedules <= 32 * branches          # linear envelope
    assert stats.schedules < 2 ** branches or branches <= 6


def test_per_load_arms_vs_bound_growth(benchmark):
    """§4.1's per-load outcomes: path count grows with the number of
    *matching* stores per load, not with the total store count."""
    def build(matching: bool):
        b = ProgramBuilder()
        for k in range(4):
            b.store(k, [0x40 if matching else 0x40 + k])
        b.load("r0", [0x40])
        b.halt()
        prog = b.build()
        return Machine(prog), Config.initial({"r0": 0}, Memory(), 1)

    def measure():
        m1, c1 = build(matching=True)
        m2, c2 = build(matching=False)
        return (schedule_stats(m1, c1, bound=8, fwd_hazards=True).schedules,
                schedule_stats(m2, c2, bound=8, fwd_hazards=True).schedules)

    same_slot, distinct_slots = once(benchmark, measure)
    print(f"\n4 stores same slot: {same_slot} schedules; "
          f"distinct slots: {distinct_slots}")
    assert same_slot > distinct_slots  # matching stores create outcomes


class TestRSBPolicies:
    """Appendix A.2's three RSB-underflow behaviours on ret2spec."""

    def test_directive_policy_is_attackable(self, benchmark):
        case = find_case("ret2spec_fig12")
        m = Machine(case.program, rsb_policy="directive")
        res = once(benchmark, run, m, case.config(), case.attack_schedule)
        from repro.core import secret_observations
        assert secret_observations(res.trace)

    def test_refuse_policy_blocks_the_attack(self, benchmark):
        """AMD-style: with an empty RSB, ret does not speculate; the
        attacker's fetch: n directive is simply stuck."""
        case = find_case("ret2spec_fig12")
        m = Machine(case.program, rsb_policy="refuse")

        def attempt():
            try:
                run(m, case.config(), case.attack_schedule)
            except StuckError:
                return "stuck"
            return "ran"

        assert once(benchmark, attempt) == "stuck"

    def test_circular_policy_replays_stale_slot(self, benchmark):
        """Intel-style circular RSB: the underflowing ret predicts the
        stale popped value, not an attacker-chosen target."""
        case = find_case("ret2spec_fig12")
        m = Machine(case.program, rsb_policy="circular")

        def steer_attempt():
            try:
                run(m, case.config(), case.attack_schedule)
            except StuckError:
                return "not steerable"
            return "steered"

        assert once(benchmark, steer_attempt) == "not steerable"

