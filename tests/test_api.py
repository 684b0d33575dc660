"""Tests for the repro.api front end: Project, options, registry,
Report, and the batch AnalysisManager."""

import json

import pytest

from repro.api import (AnalysisManager, AnalysisOptions, Project, Report,
                       available_analyses, get_analysis)
from repro.core import Memory, PUBLIC, SECRET, layout
from repro.litmus import all_cases, find_case, load_suite

FIG1_SRC = """
    check:  br gt, 4, %ra -> body, done
    body:   %rb = load [0x40, %ra]
            %rc = load [0x44, %rb]
    done:   halt
"""


def fig1_project(**kw):
    mem = layout(("A", 4, PUBLIC, [1, 2, 3, 0]),
                 ("B", 4, PUBLIC, None),
                 ("Key", 4, SECRET, [0xA1, 0xA2, 0xA3, 0xA4]))
    return Project.from_asm(FIG1_SRC, regs={"ra": 9}, mem=mem,
                            name="fig1", **kw)


class TestAnalysisOptions:
    def test_defaults_validate(self):
        options = AnalysisOptions()
        assert options.bound == 20 and options.fwd_hazards

    @pytest.mark.parametrize("bad", [
        {"bound": 0}, {"bound_no_fwd": -1}, {"max_paths": 0},
        {"rsb_policy": "bogus"}, {"experiments": 0},
    ])
    def test_rejects_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            AnalysisOptions(**bad)

    def test_paper_preset(self):
        options = AnalysisOptions.paper()
        assert (options.bound_no_fwd, options.bound_fwd) == (250, 20)

    def test_table2_preset(self):
        options = AnalysisOptions.table2()
        assert (options.bound_no_fwd, options.bound_fwd) == (28, 20)

    def test_for_case_mirrors_ground_truth_knobs(self):
        case = find_case("v4_fig7")
        options = AnalysisOptions.for_case(case)
        assert options.bound == case.min_bound
        assert options.fwd_hazards == case.needs_fwd_hazards
        assert options.jmpi_targets == case.jmpi_targets

    def test_with_ignores_none_and_rejects_unknown(self):
        options = AnalysisOptions()
        assert options.with_(bound=None) is options
        assert options.with_(bound=7).bound == 7
        with pytest.raises(TypeError):
            options.with_(no_such_knob=1)

    def test_targets_normalised_to_tuples(self):
        options = AnalysisOptions(jmpi_targets=[3, 4])
        assert options.jmpi_targets == (3, 4)
        hash(options)  # must stay hashable (cache keys)


class TestProject:
    def test_needs_exactly_one_config_source(self):
        program = fig1_project().program
        with pytest.raises(ValueError):
            Project(program)
        with pytest.raises(ValueError):
            Project(program, fig1_project().config(),
                    make_config=lambda: None)

    def test_from_asm_runs_pitchfork(self):
        report = fig1_project().analyses.pitchfork(bound=12,
                                                   fwd_hazards=False)
        assert not report.ok and report.status == "insecure"
        assert report.violations and report.analysis == "pitchfork"

    def test_from_litmus_by_name_and_record(self):
        by_name = Project.from_litmus("v1_fig1")
        by_record = Project.from_litmus(find_case("v1_fig1"))
        assert by_name.name == by_record.name == "v1_fig1"
        assert by_name.options == by_record.options

    def test_from_litmus_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            Project.from_litmus("no_such_case")

    def test_every_litmus_case_round_trips(self):
        """Every registered case is reachable through the facade with
        its ground-truth knobs mirrored into the options."""
        for case in all_cases():
            project = Project.from_litmus(case.name)
            assert project.name == case.name
            assert len(project.program) == len(case.program)
            assert project.options.bound == case.min_bound
            assert project.options.fwd_hazards == case.needs_fwd_hazards
            assert project.options.explore_aliasing == case.needs_aliasing
            assert project.options.rsb_policy == case.rsb_policy
            assert project.config().low_equivalent(case.config())

    def test_from_variant_carries_expected_flag(self):
        from repro.casestudies import all_case_studies
        study = all_case_studies()[0]
        project = Project.from_variant(study.c)
        assert project.name == study.c.name
        assert project.expected == study.c.expected
        assert project.options.bound_no_fwd == 28

    def test_fingerprint_is_value_based(self):
        a, b = fig1_project(), fig1_project()
        assert a is not b and a.fingerprint() == b.fingerprint()

    def test_hub_unknown_analysis(self):
        with pytest.raises(AttributeError):
            fig1_project().analyses.nonsense


class TestRegistry:
    def test_all_seven_registered(self):
        assert set(available_analyses()) == {
            "pitchfork", "two-phase", "sct", "cache-attack", "metatheory",
            "repair", "sps"}

    def test_aliases_and_unknown(self):
        assert get_analysis("symbolic").name == "pitchfork"
        assert get_analysis("two_phase").name == "two-phase"
        assert get_analysis("cache").name == "cache-attack"
        assert get_analysis("mitigate").name == "repair"
        with pytest.raises(KeyError):
            get_analysis("nope")


class TestReport:
    def test_json_round_trip(self):
        report = fig1_project().analyses.pitchfork(bound=12,
                                                   fwd_hazards=False)
        data = json.loads(report.to_json())
        assert data["status"] == "insecure"
        assert data["violations"]
        assert data["phases"][0]["name"] == "v1/v1.1"

    def test_bool_follows_ok(self):
        assert bool(Report("t", "a", "secure", secure=True))
        assert not bool(Report("t", "a", "insecure", secure=False))
        assert bool(Report("t", "a", "clean"))
        assert not bool(Report("t", "a", "v1"))

    def test_render_mentions_vacuous(self):
        report = Report("t", "sct", "secure", secure=True, vacuous=True)
        assert "VACUOUS" in report.render()


class TestSCTVacuous:
    def test_no_secrets_is_vacuous_not_secure_evidence(self):
        project = Project.from_asm(
            "%ra = op mov, 1\nhalt", regs={}, name="no-secrets")
        report = project.analyses.sct(sct_bound=4)
        assert report.ok and report.vacuous
        assert report.details["pairs_checked"] == 0

    def test_real_check_is_not_vacuous(self):
        report = fig1_project().analyses.sct(sct_bound=6,
                                             fwd_hazards=False)
        assert not report.vacuous
        assert not report.ok and report.counterexamples


class TestAnalysisManager:
    def test_parallel_matches_serial_on_full_kocher_suite(self):
        projects = [Project.from_litmus(c) for c in load_suite("kocher")]
        serial = AnalysisManager("pitchfork").run(projects)
        parallel = AnalysisManager("pitchfork", workers=4).run(projects)
        from repro.serve import strip_volatile
        strip = lambda r: {k: v for k, v in strip_volatile(r.to_dict()).items()
                           if k != "phases"}
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]
        assert sum(not r.ok for r in serial) == 14

    def test_cache_hits_on_repeat(self):
        manager = AnalysisManager("pitchfork")
        projects = [Project.from_litmus("v1_fig1")]
        first = manager.run(projects)
        second = manager.run([Project.from_litmus("v1_fig1")])
        assert manager.cache_info.hits == 1
        assert first[0] is second[0]
        manager.clear_cache()
        assert manager.cache_info.size == 0

    def test_option_overrides_apply(self):
        manager = AnalysisManager("pitchfork")
        project = Project.from_litmus("v1_fig8_fence")
        report = manager.run_one(project, bound=6)
        assert report.phases[0].bound == 6

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            AnalysisManager("pitchfork", workers=0)

    def test_cache_hits_carry_this_requests_ignored_knobs(self, tmp_path):
        """Both requests run kocher_01 at bound 5, so they share a cache
        key, but only the first one set the bound metatheory ignores."""
        from repro.serve import strip_volatile
        case = find_case("kocher_01")
        preset_bound = Project.from_litmus(
            "kocher_01", options=AnalysisOptions.for_case(case, bound=5))
        fresh = AnalysisManager("metatheory").run([preset_bound])[0]
        assert not any(k.endswith("_ignored") for k in fresh.details)

        store = str(tmp_path / "store")
        manager = AnalysisManager("metatheory", store=store)
        first = manager.run([Project.from_litmus("kocher_01")], bound=5)[0]
        assert first.details["bound_ignored"] == 5
        memory_hit = manager.run([preset_bound])[0]
        disk_hit = AnalysisManager("metatheory", store=store).run(
            [preset_bound])[0]
        assert manager.cache_info.hits == 1
        for hit in (memory_hit, disk_hit):
            assert strip_volatile(hit.to_dict()) \
                == strip_volatile(fresh.to_dict())
        again = manager.run([Project.from_litmus("kocher_01")], bound=5)[0]
        assert again.details == first.details


    def test_manager_restates_against_the_projects_preset(self, tmp_path):
        """``with_options`` keeps the case's knobs as the preset, so the
        bound it sets is one metatheory ignores, and says so, on every
        path through the manager."""
        project = Project.from_litmus("kocher_01").with_options(bound=5)
        assert project.run("metatheory").details["bound_ignored"] == 5
        other = Project.from_litmus("kocher_02").with_options(bound=5)
        store = str(tmp_path / "store")
        manager = AnalysisManager("metatheory", store=store)
        serial = manager.run([project])[0]
        memory_hit = manager.run([project])[0]
        store_hit = AnalysisManager("metatheory", store=store).run(
            [project])[0]
        parallel = AnalysisManager("metatheory", workers=2).run(
            [project, other])
        assert manager.cache_info.hits == 1
        for report in (serial, memory_hit, store_hit, *parallel):
            assert report.details["bound_ignored"] == 5


class TestCacheAttack:
    """The cache-attack analysis folds the first violating trace into
    the cache model and reports what an attacker can probe."""

    def test_leaky_case_reports_its_probeable_footprint(self):
        report = Project.from_litmus("kocher_01").run("cache-attack")
        assert report.status == "insecure"
        assert report.details["probeable_addresses"] \
            == ["0x20", "0x45", "0x132"]
        assert report.details["lines_touched"] == 3
        assert report.details["cache_hits"] == 0
        assert report.details["cache_misses"] == 3

    def test_clean_case_reports_no_footprint(self):
        report = Project.from_litmus("v1_fig8_fence").run("cache-attack")
        assert report.status == "secure"
        assert not {"probeable_addresses", "lines_touched", "cache_hits",
                    "cache_misses"} & set(report.details)


class TestCLI:
    def test_list(self, capsys):
        from repro.api.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pitchfork" in out and "kocher" in out

    def test_list_json(self, capsys):
        from repro.api.cli import main
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "two-phase" in data["analyses"]

    def test_analyze_litmus_case_json(self, capsys):
        from repro.api.cli import main
        code = main(["analyze", "kocher_01", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1 and data["status"] == "insecure"

    def test_analyze_asm_file(self, tmp_path, capsys):
        from repro.api.cli import main
        src = tmp_path / "victim.s"
        src.write_text("%ra = op mov, 1\nhalt\n")
        code = main(["analyze", str(src), "--reg", "ra=0", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0 and data["status"] == "secure"

    def test_analyze_unknown_target_exits_3(self):
        from repro.api.cli import main
        assert main(["analyze", "definitely_not_a_case"]) == 3

    def test_litmus_sweep_one_suite(self, capsys):
        from repro.api.cli import main
        assert main(["litmus", "spec_v1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mismatches"] == []
        assert len(data["suites"]["spec_v1"]) == 9

    def test_strategy_and_seed_flags(self, capsys):
        from repro.api.cli import main
        code = main(["analyze", "kocher_05", "--strategy", "random",
                     "--seed", "3", "--json"])
        assert code == 1  # flagged by design
        data = json.loads(capsys.readouterr().out)
        assert data["details"]["strategy"] == "random"
        assert data["details"]["seed"] == 3
        assert "shard_stats" not in data

    def test_removed_shards_flag_is_usage_error(self, capsys):
        from repro.api.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "kocher_01", "--shards", "2"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("argv", [
        ["--strategy", "coverage"], ["--strategy", "bfs"],
        ["--mcts-c", "2"], ["--mcts-playout", "4"]])
    def test_removed_strategies_and_mcts_flags_are_usage_errors(
            self, argv, capsys):
        from repro.api.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "kocher_01", *argv])
        assert exc.value.code == 3

    def test_unknown_strategy_is_clean_cli_error(self, capsys):
        from repro.api.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "kocher_01", "--strategy", "dijkstra"])
        assert exc.value.code == 3   # argparse usage errors share exit 3


class TestCheckFlag:
    """`--check`: CI gate — exit 1 on a violation, exit 2 when "secure"
    was earned with truncated coverage or a vacuous quantifier."""

    def test_secure_case_passes(self, capsys):
        from repro.api.cli import main
        assert main(["analyze", "v1_fig8_fence", "--check"]) == 0

    def test_flagged_case_fails(self, capsys):
        from repro.api.cli import main
        assert main(["analyze", "kocher_01", "--check"]) == 1

    def test_truncated_secure_case_exits_2_only_with_check(self, capsys):
        from repro.api.cli import main
        args = ["analyze", "v1_fig8_fence", "--max-paths", "1"]
        assert main(args) == 0            # "secure", coverage capped
        assert main(args + ["--check"]) == 2

    def test_litmus_check_fails_on_flagged_suite(self, capsys):
        from repro.api.cli import main
        # spec_v1 contains flagged-by-design gadgets: the ground-truth
        # sweep passes, the --check gate does not.
        assert main(["litmus", "spec_v1"]) == 0
        assert main(["litmus", "spec_v1", "--check"]) == 1

    def test_vacuous_sct_pass_exits_2_with_check(self, tmp_path, capsys):
        from repro.api.cli import main
        # A no-secrets program makes the SCT quantifier empty: the
        # verdict is "secure" by emptiness (vacuous), which must not
        # earn a green CI gate — but it is a coverage failure (2), not
        # a violation (1).
        src = tmp_path / "nosecrets.s"
        src.write_text("%ra = op mov, 1\nhalt\n")
        args = ["analyze", str(src), "-a", "sct"]
        assert main(args) == 0
        assert main(args + ["--check"]) == 2

    def test_usage_error_exits_3(self, capsys):
        from repro.api.cli import main
        assert main(["analyze", "kocher_01", "-a", "nope"]) == 3


class TestReportSchema:
    """schema_version + exact JSON round-trip (satellite)."""

    def test_schema_version_serialised(self):
        report = fig1_project().analyses.pitchfork(bound=12)
        data = json.loads(report.to_json())
        assert data["schema_version"] == 8

    def test_round_trip_plain(self):
        report = fig1_project().analyses.pitchfork(bound=12,
                                                   fwd_hazards=False)
        assert Report.from_json(report.to_json()) == report

    def test_schema8_shard_stats_loads_and_is_dropped(self):
        """Stored daemon results and old ``--json`` files written while
        in-analysis sharding existed carry a ``shard_stats`` list: it
        still loads, and re-serialises without the list."""
        report = Project.from_litmus("kocher_05").run(
            "pitchfork", stop_at_first=False)
        data = report.to_dict()
        assert data["schema_version"] == 8
        data["shard_stats"] = [
            {"index": i, "prefix_len": 3, "paths_explored": 2,
             "violations": 1, "states_stepped": 40, "truncated": False,
             "wall_time": 0.01} for i in range(2)]
        restored = Report.from_dict(data)
        assert restored == report
        again = restored.to_dict()
        assert "shard_stats" not in again
        assert again == report.to_dict()

    def test_round_trip_two_phase_and_sct(self):
        project = fig1_project()
        for analysis in ("two-phase", "sct"):
            report = project.run(analysis)
            assert Report.from_json(report.to_json()) == report

    def test_schema_v1_payload_still_loads(self):
        report = fig1_project().analyses.pitchfork(bound=12)
        data = report.to_dict()
        del data["schema_version"]      # a pre-sharding producer
        restored = Report.from_dict(data)
        assert restored.status == report.status
        assert restored == report

    def test_newer_schema_rejected(self):
        report = fig1_project().analyses.pitchfork(bound=12)
        data = report.to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            Report.from_dict(data)
