"""One exploration knob record.

:class:`ExplorationOptions` declares every exploration knob once,
:class:`SynthesisOptions` adds the repair loop's, and
:class:`AnalysisOptions` extends that with the analysis-only sections;
every Pitchfork, sps and repair entry point takes the record as it is.
These tests pin the schema (no field added, none lost, none declared
twice), that the record reaches the explorer unchanged through every
analysis, and that an analysis which cannot act on a knob the caller
set says so.
"""

import inspect
import json
from dataclasses import fields

import pytest

import repro.api.analyses as analyses
import repro.pitchfork as pitchfork
from repro.api import AnalysisManager, AnalysisOptions, Project
from repro.api.cli import _option_overrides, build_parser, main
from repro.mitigate import (MitigationSynthesizer, SynthesisOptions, repair,
                            verify_certificate)
from repro.pitchfork import ExplorationOptions
from repro.sps import explore_sps, speculation_sites
from repro.pitchfork.explorer import Explorer

#: The schema of AnalysisOptions: every field name and its default.
_SCHEMA = {
    "bound": 20, "fwd_hazards": True, "explore_aliasing": False,
    "jmpi_targets": (), "rsb_targets": (), "rsb_policy": "directive",
    "max_paths": 20_000, "max_steps": 40_000, "stop_at_first": True,
    "strategy": "dfs", "prune": "full", "subsume": False,
    "budget_seconds": None, "telemetry": False, "seed": 0, "bound_no_fwd": 250, "bound_fwd": 20,
    "sct_bound": 8, "sct_max_schedules": 2_000,
    "policy": "auto", "max_repair_rounds": 16, "shrink": True,
    "experiments": 8,
}


class TestSingleSource:
    def test_schema_is_unchanged(self):
        got = {f.name: f.default for f in fields(AnalysisOptions)}
        assert got == _SCHEMA

    def test_every_exploration_knob_is_inherited_not_redeclared(self):
        mine = AnalysisOptions.__dict__["__annotations__"]
        for f in fields(ExplorationOptions):
            assert f.name not in mine, f.name
            assert f in fields(AnalysisOptions), f.name

    @pytest.mark.parametrize("knob", ["max_fetches",
                                      "assume_unknown_branches"])
    def test_explorer_only_knobs_left_the_record(self, knob):
        with pytest.raises(TypeError):
            AnalysisOptions(**{knob: 1})
        with pytest.raises(TypeError):
            ExplorationOptions(**{knob: 1})

    def test_checks_live_on_the_exploration_record(self):
        for bad in ({"bound": 0}, {"max_paths": -1},
                    {"strategy": "dijkstra"}, {"rsb_policy": "bogus"}):
            with pytest.raises(ValueError):
                ExplorationOptions(**bad)
        opts = ExplorationOptions(jmpi_targets=[3, 1])
        assert opts.jmpi_targets == (3, 1)

    def test_every_repair_knob_is_inherited_not_redeclared(self):
        mine = AnalysisOptions.__dict__["__annotations__"]
        assert issubclass(SynthesisOptions, ExplorationOptions)
        for f in fields(SynthesisOptions):
            assert f.name not in mine, f.name
            assert f in fields(AnalysisOptions), f.name
        for bad in ({"policy": "bogus"}, {"max_repair_rounds": 0}):
            with pytest.raises(ValueError):
                SynthesisOptions(**bad)

    def test_entry_points_take_the_record(self):
        for fn in (pitchfork.analyze, pitchfork.enumerate_schedules,
                   pitchfork.schedule_stats, explore_sps, speculation_sites,
                   repair, verify_certificate, MitigationSynthesizer):
            params = inspect.signature(fn).parameters
            assert "options" in params, fn.__name__
            assert not set(params) & {"bound", "fwd_hazards", "strategy",
                                      "prune", "max_paths", "policy",
                                      "max_rounds", "shrink", "max_fetches",
                                      "max_retires"}, fn.__name__
        assert not hasattr(analyses, "explore_knobs")
        assert not hasattr(pitchfork, "analyze_two_phase")
        project = Project.from_litmus("kocher_01")
        with pytest.raises(TypeError):
            explore_sps(project.program, project.config(), max_fetches=1)

    def test_sps_reads_the_record_it_is_given(self):
        project = Project.from_litmus("kocher_01")
        options = project.options.with_(stop_at_first=False)
        whole = explore_sps(project.program, project.config(), options)
        by_field = explore_sps(
            project.program, project.config(), bound=options.bound,
            fwd_hazards=options.fwd_hazards, max_paths=options.max_paths,
            stop_at_first=False)
        assert whole.violations and whole.paths_explored > 1
        assert [repr(v) for v in whole.violations] == \
            [repr(v) for v in by_field.violations]
        assert whole.paths_explored == by_field.paths_explored
        assert speculation_sites(project.program, options) == \
            speculation_sites(project.program, fwd_hazards=False)


#: Flags of ``analyze``/``repair`` that are not AnalysisOptions fields.
_NOT_OPTIONS = {"help", "analysis", "reg", "pc", "json", "check",
                "cross_check", "trace", "preset"}


class TestCliFlags:
    @pytest.mark.parametrize("command", ["analyze", "repair"])
    def test_every_option_flag_sets_its_field(self, command):
        parser = build_parser()
        (sub,) = [a for a in parser._subparsers._group_actions]
        subparser = sub.choices[command]
        args = parser.parse_args([command, "kocher_01"])
        names = {f.name for f in fields(AnalysisOptions)}
        dests = {a.dest for a in subparser._actions
                 if a.option_strings and a.dest not in _NOT_OPTIONS}
        assert dests and dests <= names
        for dest in dests:
            setattr(args, dest, ("flag", dest))
        overrides = _option_overrides(args)
        for dest in dests:
            assert overrides[dest] == ("flag", dest)


@pytest.fixture
def explored(monkeypatch):
    """The options every Explorer built during the test received."""
    seen = []
    real_init = Explorer.__init__

    def capture(self, machine, options, *args, **kwargs):
        seen.append(options)
        real_init(self, machine, options, *args, **kwargs)

    monkeypatch.setattr(Explorer, "__init__", capture)
    return seen


class TestTheRecordReachesTheExplorer:
    @pytest.mark.parametrize("analysis", ["repair", "two-phase",
                                          "pitchfork"])
    def test_mcts_knobs_are_passed_through(self, analysis, explored):
        Project.from_litmus("kocher_01").run(
            analysis, strategy="mcts", seed=4)
        assert explored
        for options in explored:
            assert (options.strategy, options.seed) == ("mcts", 4)

    def test_sct_reports_the_search_knobs_it_ignores(self, explored):
        report = Project.from_litmus("kocher_01").run(
            "sct", strategy="random", subsume=True, budget_seconds=5)
        assert report.details["strategy_ignored"] == "random"
        assert report.details["subsume_ignored"] is True
        assert report.details["budget_ignored"] == 5
        assert explored
        for options in explored:
            assert options.strategy == "dfs"
            assert not options.subsume and options.budget_seconds is None

    def test_defaults_report_nothing_ignored(self):
        for analysis in ("sps", "sct", "repair"):
            report = Project.from_litmus("kocher_01").run(analysis)
            assert not [k for k in report.details
                        if k.endswith("_ignored")], analysis
        # The case's own bound and caps are exploration knobs metatheory
        # cannot act on, but they are the project's, not the caller's:
        # neither the case's knobs nor default options report anything.
        for project in (Project.from_litmus("kocher_01"),
                        Project.from_litmus("kocher_01",
                                            options=AnalysisOptions())):
            report = project.run("metatheory")
            assert not [k for k in report.details
                        if k.endswith("_ignored")]

    def test_cli_reports_only_the_flags_it_was_given(self, capsys):
        main(["analyze", "kocher_01", "-a", "metatheory", "--json"])
        details = json.loads(capsys.readouterr().out)["details"]
        assert not [k for k in details if k.endswith("_ignored")]
        main(["analyze", "kocher_01", "-a", "metatheory", "--bound", "5",
              "--json"])
        details = json.loads(capsys.readouterr().out)["details"]
        assert details["bound_ignored"] == 5
        assert [k for k in details if k.endswith("_ignored")] == \
            ["bound_ignored"]

    def test_manager_reports_the_overrides_it_passes(self):
        project = Project.from_litmus("kocher_01")
        manager = AnalysisManager("metatheory")
        (plain,) = manager.run([project])
        assert not [k for k in plain.details if k.endswith("_ignored")]
        (report,) = manager.run([project], strategy="random", bound=5)
        assert report.details["strategy_ignored"] == "random"
        assert report.details["bound_ignored"] == 5

    def test_metatheory_reports_the_search_knobs_it_ignores(self):
        report = Project.from_litmus("kocher_01").run(
            "metatheory", strategy="random", seed=3)
        assert report.details["strategy_ignored"] == "random"
        assert report.details["seed"] == 3
        assert "seed_ignored" not in report.details
        assert "rsb_policy_ignored" not in report.details

    def test_metatheory_machine_follows_the_run_rsb_policy(self,
                                                          monkeypatch):
        built = []
        real = analyses.Machine

        def capture(program, *args, **kwargs):
            machine = real(program, *args, **kwargs)
            built.append(machine.rsb_policy)
            return machine

        monkeypatch.setattr(analyses, "Machine", capture)
        Project.from_litmus("ret2spec_fig12").run("metatheory",
                                                  rsb_policy="refuse",
                                                  experiments=1)
        assert built == ["refuse"]

    @pytest.mark.parametrize("case", ["aliasing_fig2", "ret2spec_fig12",
                                      "v2_fig11"])
    @pytest.mark.parametrize("analysis", ["sps", "sct"])
    def test_extension_knobs_reach_sps_and_sct(self, analysis, case):
        """These cases leak only under the aliasing / jmpi-target /
        RSB-target knobs their project sets; an analysis that dropped
        the knobs on the way to the explorer reported them secure."""
        report = Project.from_litmus(case).run(analysis)
        assert not report.secure

    def test_sct_machine_follows_the_run_rsb_policy(self):
        """The refuse policy blocks ret2spec; SCT must run its machine
        under the policy of the run, not of the project."""
        project = Project.from_litmus("ret2spec_fig12")
        assert not project.run("sct").secure
        assert project.run("sct", rsb_policy="refuse").secure
        assert project.run("pitchfork", rsb_policy="refuse").secure
