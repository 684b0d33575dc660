"""Tests for the speculation-passing second opinion (repro.sps): the
transformation table, the sequential product interpreter, the
differential harness, and the registered ``sps`` analysis with its
``--cross-check`` CLI surface."""

import json

import pytest

from repro.api import (AnalysisOptions, Project, Report, get_analysis,
                       main)
from repro.core import Config, Machine, Memory, PUBLIC, SECRET, Value, \
    layout, run_sequential, secret_observations
from repro.core.isa import Br, Call, Fence, Jmpi, Load, Op, Ret, Store
from repro.core.program import Program
from repro.core.values import Reg, operands
from repro.litmus import all_cases, find_case
from repro.sps import SpecSite, explore_sps, site_counts, speculation_sites
from repro.sps.diff import (DiffRecord, compare, minimize,
                            random_callret_config, random_callret_program,
                            sweep_random)

RA, RB = Reg("ra"), Reg("rb")

CASES = all_cases()
IDS = [c.name for c in CASES]


def _zoo() -> Program:
    """One of every instruction kind, for table-shape tests."""
    return Program({
        1: Br("gt", operands(4, RA), 2, 3),
        2: Load(RB, operands(0x40, RA), 3),
        3: Store(Value(1), operands(0x40), 4),
        4: Jmpi(operands(RA)),
        5: Fence(6),
        6: Call(8, 7),
        7: Ret(),
        8: Op(RB, "add", operands(RA, 1), 7),
    }, entry=1)


class TestTransform:
    def test_branch_site_arms_are_both_sides(self):
        table = speculation_sites(_zoo())
        assert table[1] == (SpecSite(1, "mispredict", (2, 3)),)

    def test_load_bypass_gated_by_fwd_hazards(self):
        assert speculation_sites(_zoo())[2] == (SpecSite(2, "bypass"),)
        assert 2 not in speculation_sites(_zoo(), fwd_hazards=False)

    def test_load_alias_gated_by_extension(self):
        table = speculation_sites(_zoo(), explore_aliasing=True)
        assert tuple(s.kind for s in table[2]) == ("bypass", "alias")

    def test_jmpi_site_carries_trained_targets(self):
        table = speculation_sites(_zoo(), jmpi_targets=(7, 8))
        assert table[4] == (SpecSite(4, "mistrain", (7, 8)),)

    def test_ret_is_rsb_plus_return_address_load(self):
        table = speculation_sites(_zoo(), rsb_targets=(8,))
        assert tuple(s.kind for s in table[7]) == ("rsb", "bypass")
        assert table[7][0].arms == (8,)

    def test_non_speculating_instructions_have_no_sites(self):
        table = speculation_sites(_zoo(), explore_aliasing=True,
                                  jmpi_targets=(7,), rsb_targets=(8,))
        assert {3, 5, 6, 8}.isdisjoint(table)

    def test_site_counts_drop_zero_kinds(self):
        counts = site_counts(speculation_sites(_zoo()))
        assert counts == {"mispredict": 1, "mistrain": 1, "bypass": 2,
                          "rsb": 1}
        assert "alias" not in counts


class TestExploreSps:
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_ground_truth_matches_registry(self, case):
        result = explore_sps(
            case.program, case.config(), bound=case.min_bound,
            fwd_hazards=case.needs_fwd_hazards,
            explore_aliasing=case.needs_aliasing,
            jmpi_targets=case.jmpi_targets, rsb_targets=case.rsb_targets,
            rsb_policy=case.rsb_policy, max_paths=6000)
        should_flag = case.leaks_speculatively or case.leaks_sequentially
        assert (not result.secure) == should_flag

    def test_kocher_01_witness_is_secret_dependent(self):
        case = find_case("kocher_01")
        result = explore_sps(case.program, case.config(),
                             bound=case.min_bound)
        assert not result.secure
        assert secret_observations(
            [v.observation for v in result.violations])
        assert result.sites.get("mispredict")

    def test_stop_at_first_keeps_one_witness(self):
        case = find_case("kocher_01")
        result = explore_sps(case.program, case.config(),
                             bound=case.min_bound, stop_at_first=True)
        assert len(result.violations) == 1

    def test_fenced_case_is_secure_and_complete(self):
        case = find_case("v1_fig8_fence")
        result = explore_sps(case.program, case.config(),
                             bound=case.min_bound, stop_at_first=False)
        assert result.secure and result.complete

    def test_per_path_budget_surfaces_as_exhausted(self):
        # 1 <-> 2 architectural loop: the path never ends on its own,
        # so the per-path step budget must cut it and say so.
        prog = Program({
            1: Op(RA, "add", operands(RA, 1), 2),
            2: Op(RA, "add", operands(RA, 1), 1),
        }, entry=1)
        cfg = Config.initial({"ra": Value(0)}, Memory(), pc=1)
        result = explore_sps(prog, cfg, max_steps=50)
        assert result.exhausted_paths == 1
        assert not result.complete

    def test_max_paths_truncates(self):
        prog = Program({
            1: Br("gt", operands(4, RA), 2, 3),
            2: Op(RA, "add", operands(RA, 1), 3),
        }, entry=1)
        cfg = Config.initial({"ra": Value(0)}, Memory(), pc=1)
        result = explore_sps(prog, cfg, max_paths=1, stop_at_first=False)
        assert result.truncated and not result.complete

    def test_bad_knobs_are_rejected(self):
        prog = _zoo()
        cfg = Config.initial({}, Memory(), pc=1)
        with pytest.raises(ValueError):
            explore_sps(prog, cfg, bound=0)
        with pytest.raises(ValueError):
            explore_sps(prog, cfg, rsb_policy="bogus")


class TestDiffHarness:
    def test_backends_agree_on_a_regression_case(self):
        case = find_case("diffregress_store_addr_transient")
        record = compare(case.program, case.config(),
                         AnalysisOptions.for_case(case), name=case.name)
        assert record.agree and record.status == "agree"
        assert not record.disagree
        # Both found the same (non-empty) flagged set.
        assert record.pf_obs == record.sps_obs != ()

    def _record(self, pf_obs, sps_obs, pf_complete, sps_complete):
        return DiffRecord(name="t", program=_zoo(),
                          config=Config.initial({}, Memory(), pc=1),
                          options=AnalysisOptions(), pf_obs=pf_obs,
                          sps_obs=sps_obs, pf_complete=pf_complete,
                          sps_complete=sps_complete, pf_wall=0.1,
                          sps_wall=0.2)

    def test_divergence_under_budget_is_explained(self):
        record = self._record(("read 1_secret",), (), True, False)
        assert record.explained and not record.disagree
        assert record.status == "explained-budget"

    def test_equal_sets_with_a_truncated_side_are_unconfirmed(self):
        for pf_complete, sps_complete in ((False, True), (True, False),
                                          (False, False)):
            record = self._record(("read 1_secret",), ("read 1_secret",),
                                  pf_complete, sps_complete)
            assert record.unconfirmed
            assert not (record.agree or record.explained or
                        record.disagree)
            assert record.status == "unconfirmed"
            section = record.section()
            assert section["agree"] is False
            assert section["classification"] == "unconfirmed"

    def test_diff_summary_counts_unconfirmed_separately(self, capsys,
                                                        monkeypatch):
        from repro.sps import diff
        records = [self._record((), (), True, True),
                   self._record((), (), False, True),
                   self._record(("read 1_secret",), (), False, True)]
        monkeypatch.setattr(diff, "sweep_random", lambda n, seed: records)
        assert diff.main(["--skip-registry", "--random", "3"]) == 0
        out = capsys.readouterr().out
        assert "== 3 comparisons: 1 agree, 1 unconfirmed, " \
               "1 explained-budget, 0 disagree ==" in out

    def test_divergence_with_both_complete_is_a_bug(self):
        record = self._record(("read 1_secret",), (), True, True)
        assert record.disagree and record.status == "DISAGREE"
        assert record.section()["classification"] == "disagree"

    def test_section_is_the_schema_8_cross_check_shape(self):
        section = self._record((), (), True, True).section()
        assert section["backends"] == ["pitchfork", "sps"]
        assert section["agree"] is True
        assert section["classification"] == "agree"
        assert isinstance(section["pitchfork_wall_time"], float)
        assert isinstance(section["sps_wall_time"], float)

    def test_random_generator_is_deterministic(self):
        import random
        p1 = random_callret_program(random.Random(7))
        p2 = random_callret_program(random.Random(7))
        assert dict(p1.items()) == dict(p2.items()) and p1.entry == p2.entry
        c1 = random_callret_config(random.Random(7))
        c2 = random_callret_config(random.Random(7))
        assert c1.regs == c2.regs

    def test_small_random_sweep_has_no_disagreements(self):
        records = sweep_random(6, seed=0)
        assert len(records) == 6
        assert not any(r.disagree for r in records)

    def test_minimize_drops_everything_the_predicate_allows(self):
        prog = Program({
            1: Op(RA, "add", operands(RA, 1), 2),
            2: Op(RB, "add", operands(RB, 2), 3),
            3: Load(RB, operands(0x40, RA), 4),
        }, entry=1)
        cfg = Config.initial({"ra": Value(0)}, Memory(), pc=1)
        small = minimize(prog, cfg,
                         still_fails=lambda p: 3 in dict(p.items()))
        assert dict(small.items()).keys() == {3}
        assert small.entry == 3

    def test_minimize_preserves_a_sequential_leak(self):
        # Delta-debugging against "still leaks sequentially" keeps the
        # leaking load and sheds the padding around it.
        mem = layout(("A", 4, PUBLIC, [1, 2, 3, 0]),
                     ("K", 4, SECRET, [5, 6, 7, 8]))
        prog = Program({
            1: Op(RA, "add", operands(RA, 0), 2),
            2: Load(RB, operands(0x44), 3),
            3: Load(RA, operands(0x40, RB), 4),
            4: Op(RB, "add", operands(RB, 1), 5),
        }, entry=1)
        cfg = Config.initial({"ra": Value(0), "rb": Value(0)}, mem, pc=1)

        def leaks(candidate: Program) -> bool:
            res = run_sequential(Machine(candidate), cfg, max_retires=50)
            return bool(secret_observations(res.trace))

        assert leaks(prog)
        small = minimize(prog, cfg, still_fails=leaks)
        assert leaks(small)
        assert len(dict(small.items())) < len(dict(prog.items()))


class TestSpsAnalysis:
    def test_registered_with_aliases(self):
        cls = type(get_analysis("sps"))
        assert type(get_analysis("speculation-passing")) is cls
        assert type(get_analysis("speculation_passing")) is cls

    def test_report_shape_and_round_trip(self):
        report = Project.from_litmus("kocher_01").run("sps")
        assert report.analysis == "sps" and not report.secure
        assert report.phases[0].name == "sps"
        assert report.details["speculation_sites"].get("mispredict")
        assert report.details["exhausted_paths"] == 0
        assert Report.from_json(report.to_json()) == report

    def test_unhonoured_knobs_are_surfaced_not_dropped(self):
        project = Project.from_litmus("kocher_01").with_options(
            strategy="random", prune="none", subsume=True)
        report = project.run("sps")
        assert report.details["strategy_ignored"] == "random"
        assert report.details["prune_ignored"] == "none"
        assert report.details["subsume_ignored"] is True


class TestCrossCheckCLI:
    def test_cross_check_attaches_agreeing_section(self, capsys):
        code = main(["analyze", "kocher_01", "--cross-check", "--json"])
        assert code == 1  # insecure target, backends in agreement
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 8
        section = payload["cross_check"]
        assert section["agree"] is True
        assert section["pitchfork_observations"] == \
            section["sps_observations"]

    def test_cross_check_on_a_clean_target_exits_zero(self, capsys):
        code = main(["analyze", "v1_fig8_fence", "--cross-check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross-check [pitchfork vs sps]: AGREE" in out

    def test_cross_check_on_a_truncated_run_is_unconfirmed(self, capsys):
        code = main(["analyze", "v1_fig8_fence", "--cross-check",
                     "--max-paths", "1", "--check"])
        assert code == 2  # coverage failure, never a clean pass
        out = capsys.readouterr().out
        assert "cross-check [pitchfork vs sps]: UNCONFIRMED" in out

    def test_plain_analyze_has_no_cross_check_section(self, capsys):
        assert main(["analyze", "kocher_01", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cross_check"] is None
