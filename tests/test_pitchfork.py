"""Tests for the Pitchfork explorer, detector and schedule utilities."""

import pytest

from repro.asm import assemble
from repro.core import Config, Machine, Memory, Retire, secret
from repro.core.directives import Execute, Fetch
from repro.core.lattice import PUBLIC, SECRET
from repro.core.memory import layout
from repro.litmus import find_case
from repro.api import Project
from repro.pitchfork import (AnalysisReport, ExplorationOptions, Explorer,
                             analyze, enumerate_schedules, format_report,
                             format_violation, schedule_stats)


def _machine(src):
    return Machine(assemble(src))


class TestExplorerBasics:
    def test_straightline_single_schedule(self):
        m = _machine("%ra = op mov, 1\n%rb = op mov, 2\nhalt")
        c = Config.initial({}, Memory(), 1)
        result = Explorer(m, ExplorationOptions(bound=4)).explore(c)
        assert result.paths_explored == 1
        assert result.paths[0].final.is_terminal()

    def test_branch_forks_two_paths(self):
        m = _machine("br eq, %ra, 0 -> 2, 3\n%rb = op mov, 1\nhalt")
        c = Config.initial({"ra": 0}, Memory(), 1)
        result = Explorer(m, ExplorationOptions(bound=4)).explore(c)
        assert result.paths_explored == 2

    def test_store_load_forks_on_fwd_hazards(self):
        m = _machine("store 1, [0x40]\n%ra = load [0x40]\nhalt")
        c = Config.initial({}, Memory(), 1)
        with_fwd = Explorer(m, ExplorationOptions(bound=4)).explore(c)
        without = Explorer(
            m, ExplorationOptions(bound=4, fwd_hazards=False)).explore(c)
        assert with_fwd.paths_explored > without.paths_explored
        assert without.paths_explored == 1

    def test_architectural_results_agree_across_paths(self):
        """All complete paths commit the same architectural state
        (consistency, Cor. B.8).  ``prune="full"`` ends the stale-read
        path at its rollback, so the continuation is run at
        ``sleepset``."""
        m = _machine("store 1, [0x40]\n%ra = load [0x40]\nhalt")
        c = Config.initial({}, Memory(), 1)
        result = Explorer(m, ExplorationOptions(
            bound=4, prune="sleepset")).explore(c)
        finals = {(p.final.reg("ra").val, p.final.mem.read(0x40).val)
                  for p in result.paths if p.complete}
        assert finals == {(1, 1)}

    def test_max_paths_truncates(self):
        # Both targets of each br coincide, which prune="full" collapses
        # into one arm; sleepset keeps the 2**8 schedules.
        m = _machine("\n".join(
            f"br eq, %r{i}, 0 -> {i + 2}, {i + 2}" for i in range(8))
            + "\nhalt")
        regs = {f"r{i}": 0 for i in range(8)}
        c = Config.initial(regs, Memory(), 1)
        result = Explorer(m, ExplorationOptions(bound=16, max_paths=5,
                                                prune="sleepset")
                          ).explore(c)
        assert result.truncated

    def test_stop_at_first_violation(self):
        case = find_case("v1_fig1")
        m = Machine(case.program)
        result = Explorer(m, ExplorationOptions(bound=8, fwd_hazards=False)
                          ).explore(case.config(), stop_at_first=True)
        assert result.violations
        assert result.paths_explored <= 2


class TestScheduleEnumeration:
    def test_schedules_are_well_formed(self):
        from repro.core import is_well_formed
        case = find_case("v1_fig1")
        m = Machine(case.program)
        schedules = enumerate_schedules(m, case.config(), bound=8,
                                        fwd_hazards=False)
        assert schedules
        for schedule in schedules:
            assert is_well_formed(m, case.config(), schedule)

    def test_stats_count_paths(self):
        case = find_case("v1_fig1")
        m = Machine(case.program)
        stats = schedule_stats(m, case.config(), bound=8, fwd_hazards=False)
        assert stats.schedules == 2  # correct arm + mispredicted arm
        assert not stats.truncated

    def test_deferred_stores_multiply_schedules(self):
        m = _machine("store 1, [0x40]\nstore 2, [0x40]\n%ra = load [0x40]\n"
                     "halt")
        c = Config.initial({}, Memory(), 1)
        n_with = schedule_stats(m, c, bound=6, fwd_hazards=True,
                                prune="sleepset").schedules
        n_without = schedule_stats(m, c, bound=6, fwd_hazards=False,
                                   prune="sleepset").schedules
        assert n_without == 1
        assert n_with >= 4  # defer/now per store, at least


class TestDetector:
    def test_flags_violation_with_witness(self):
        case = find_case("v1_fig1")
        report = analyze(case.program, case.config(), bound=8,
                         fwd_hazards=False)
        assert not report.secure
        v = report.violations[0]
        assert v.observation.label == SECRET
        assert isinstance(v.directive, Execute)
        assert v.schedule  # replayable witness

    def test_violation_witness_replays(self):
        from repro.core import run, secret_observations
        case = find_case("v1_fig1")
        report = analyze(case.program, case.config(), bound=8,
                         fwd_hazards=False)
        v = report.violations[0]
        res = run(Machine(case.program), case.config(), v.schedule)
        assert secret_observations(res.trace)

    def test_two_phase_stops_after_phase_one_hit(self):
        report = Project.from_litmus("v1_fig1").run(
            "two-phase", bound_no_fwd=20, bound_fwd=8)
        assert [p.name for p in report.phases] == ["v1/v1.1"]
        assert not report.secure

    def test_two_phase_falls_through_to_v4(self):
        report = Project.from_litmus("v4_fig7").run(
            "two-phase", bound_no_fwd=20, bound_fwd=8)
        assert report.phases[-1].name == "v4" and not report.secure

    def test_two_phase_clean_program(self):
        m = assemble("%ra = op mov, 1\nhalt")
        c = Config.initial({}, Memory(), 1)
        report = Project(m, c).run("two-phase", bound_no_fwd=8, bound_fwd=8)
        assert report.secure and report.phases[-1].name == "v4"


class TestReports:
    def test_format_secure(self):
        m = assemble("%ra = op mov, 1\nhalt")
        report = analyze(m, Config.initial({}, Memory(), 1), bound=4)
        text = format_report(report)
        assert "SECURE" in text

    def test_format_violations(self):
        case = find_case("v1_fig1")
        report = analyze(case.program, case.config(), bound=8,
                         fwd_hazards=False, name="fig1")
        text = format_report(report, case.program)
        assert "VIOLATIONS FOUND" in text and "fig1" in text
        assert "read" in text

    def test_format_violation_shows_schedule(self):
        case = find_case("v1_fig1")
        report = analyze(case.program, case.config(), bound=8,
                         fwd_hazards=False)
        text = format_violation(report.violations[0])
        assert "witnessing schedule" in text
