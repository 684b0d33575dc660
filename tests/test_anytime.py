"""Anytime wall-clock budgets and deterministic time-to-first-violation.

The anytime contract under test: a budgeted run may stop early but must
say so honestly — ``AnytimeStats`` reports budget consumed, whether the
deadline fired, paths explored vs frontier remaining, and the
first-violation time; a budget-truncated run is never reported as clean
coverage (``--check`` exit 2).  Deadline checks sit at frontier-pop
boundaries only, so every test here drives the explorer with an
*injected fake clock* and asserts exact, machine-speed-independent
outcomes.  Also pinned: the ``EngineStats`` first-violation latch,
schema v6 exact Report round-trips, and the
cache-compatibility bar — defaulted knobs are omitted from canonical
options, so every earlier ``ResultStore`` key survives.
"""

import json

import pytest

from repro.api.cli import main
from repro.api.project import AnalysisOptions, Project
from repro.api.report import SCHEMA_VERSION, Report
from repro.core.machine import Machine
from repro.engine.core import EngineStats
from repro.litmus import find_case
from repro.pitchfork import ExplorationOptions, Explorer
from repro.pitchfork.detector import analyze
from repro.pitchfork.explorer import AnytimeStats, validate_budget
from repro.serve.keys import canonical_options, fingerprint_digest, store_key


class FakeClock:
    """Monotonic clock advancing a fixed tick per reading."""

    def __init__(self, tick=1.0, start=100.0):
        self.now = start
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def _case_run(name, clock, budget, stop_at_first=False, **kw):
    case = find_case(name)
    options = ExplorationOptions(
        bound=case.min_bound, fwd_hazards=case.needs_fwd_hazards,
        explore_aliasing=case.needs_aliasing,
        jmpi_targets=case.jmpi_targets, rsb_targets=case.rsb_targets,
        budget_seconds=budget, **kw)
    machine = Machine(case.program, rsb_policy=case.rsb_policy)
    explorer = Explorer(machine, options, clock=clock)
    return explorer.explore(case.make_config(), stop_at_first=stop_at_first)


class TestBudgetValidation:
    def test_none_is_fine(self):
        validate_budget(None)

    @pytest.mark.parametrize("bad", (0, -1.0, float("nan"), float("inf"),
                                     True, "30"))
    def test_rejects_nonpositive_and_nonnumeric(self, bad):
        with pytest.raises(ValueError, match="budget_seconds"):
            validate_budget(bad)

    def test_options_validate(self):
        with pytest.raises(ValueError, match="budget_seconds"):
            AnalysisOptions(budget_seconds=-5)
        with pytest.raises(ValueError, match="budget_seconds"):
            ExplorationOptions(budget_seconds=0)


class TestDeterministicDeadline:
    def test_expired_budget_explores_nothing(self):
        # Tick 1.0/reading: by the first pop-boundary check the clock is
        # already past start + 0.5, so zero paths complete —
        # deterministically, on any host.
        result = _case_run("kocher_01", FakeClock(tick=1.0), budget=0.5)
        assert result.paths_explored == 0
        assert result.truncated
        assert result.anytime.deadline_hit
        assert result.anytime.frontier_remaining == 1
        assert result.anytime.paths_explored == 0
        assert result.anytime.first_violation_time is None
        assert result.secure      # vacuously — truncated says so

    def test_generous_budget_completes_with_honest_stats(self):
        reference = _case_run("kocher_01", None, budget=None)
        result = _case_run("kocher_01", FakeClock(tick=0.001),
                           budget=10_000.0)
        assert result.paths_explored == reference.paths_explored
        assert not result.truncated
        anytime = result.anytime
        assert anytime is not None
        assert not anytime.deadline_hit
        assert anytime.frontier_remaining == 0
        assert anytime.budget_seconds == 10_000.0
        assert 0 < anytime.budget_consumed < 10_000.0
        assert anytime.first_violation_time is not None

    def test_partial_budget_is_deterministic(self):
        # The same fake clock must cut the same pops twice in a row.
        def run():
            return _case_run("kocher_01", FakeClock(tick=0.4), budget=2.0)

        a, b = run(), run()
        assert a.paths_explored == b.paths_explored
        assert a.anytime == b.anytime
        assert a.truncated == b.truncated

    def test_unbudgeted_run_reports_no_anytime(self):
        result = _case_run("kocher_01", None, budget=None)
        assert result.anytime is None


class TestFirstViolationStats:
    def test_latch_records_once(self):
        stats = EngineStats()
        assert stats.first_violation_steps is None
        stats.record_first_violation(3, 17, 0.5)
        stats.record_first_violation(9, 99, 9.9)    # later hit: ignored
        assert (stats.first_violation_pops, stats.first_violation_steps,
                stats.first_violation_wall) == (3, 17, 0.5)

    def test_snapshot_carries_the_triple(self):
        stats = EngineStats()
        stats.record_first_violation(1, 2, 3.0)
        snap = stats.snapshot()
        assert (snap.first_violation_pops, snap.first_violation_steps,
                snap.first_violation_wall) == (1, 2, 3.0)

    def test_explorer_records_deterministic_counters(self):
        # pops and machine steps are strategy-comparable and identical
        # across runs; wall time exists but is not pinned.
        a = _case_run("kocher_01", FakeClock(tick=0.01), budget=1_000.0)
        b = _case_run("kocher_01", FakeClock(tick=0.01), budget=1_000.0)
        assert a.engine.first_violation_steps is not None
        assert a.engine.first_violation_pops == b.engine.first_violation_pops
        assert a.engine.first_violation_steps == b.engine.first_violation_steps

    def test_report_surfaces_first_violation(self):
        case = find_case("kocher_01")
        report = analyze(case.program, case.make_config(),
                         bound=case.min_bound,
                         fwd_hazards=case.needs_fwd_hazards,
                         stop_at_first=False)
        assert not report.secure
        assert report.first_violation is not None
        assert report.first_violation["pops"] >= 1
        assert report.first_violation["steps"] >= 1
        assert report.first_violation["wall_time"] >= 0

    def test_clean_run_has_no_first_violation(self):
        case = find_case("v1_fig8_fence")
        report = analyze(case.program, case.make_config(),
                         bound=case.min_bound,
                         fwd_hazards=case.needs_fwd_hazards)
        assert report.secure and report.first_violation is None


class TestRoundTrip:
    def test_schema_version_is_8(self):
        assert SCHEMA_VERSION == 8

    def test_anytime_stats_exact_round_trip(self):
        stats = AnytimeStats(budget_seconds=2.5, budget_consumed=1.25,
                             deadline_hit=True, paths_explored=7,
                             frontier_remaining=3,
                             first_violation_time=0.75)
        assert AnytimeStats.from_dict(stats.to_dict()) == stats
        clean = AnytimeStats(budget_seconds=9.0, budget_consumed=0.5,
                             deadline_hit=False, paths_explored=4,
                             frontier_remaining=0)
        assert AnytimeStats.from_dict(clean.to_dict()) == clean

    def test_report_round_trip_with_anytime(self, capsys):
        assert main(["analyze", "kocher_01", "--budget-seconds", "600",
                     "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 8
        assert data["anytime"]["budget_seconds"] == 600.0
        assert data["anytime"]["deadline_hit"] is False
        assert data["first_violation"]["steps"] >= 1
        report = Report.from_dict(data)
        assert report.to_dict() == data
        rendered = report.render()
        assert "anytime:" in rendered and "first violation:" in rendered

    def test_report_round_trip_without_anytime(self, capsys):
        assert main(["analyze", "v1_fig8_fence", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["anytime"] is None
        assert data["first_violation"] is None
        report = Report.from_dict(data)
        assert report.to_dict() == data

    def test_legacy_v5_payload_still_loads(self, capsys):
        assert main(["analyze", "v1_fig8_fence", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        del data["anytime"]             # a v5 producer never wrote them
        del data["first_violation"]
        data["schema_version"] = 5
        report = Report.from_dict(data)
        assert report.anytime is None
        assert report.first_violation is None


class TestCLIContract:
    """--budget-seconds × --check: 0 clean / 1 violation / 2 coverage
    failure / 3 usage, budget expiry never reported as clean."""

    def test_exit_0_clean_within_budget(self, capsys):
        assert main(["analyze", "v1_fig8_fence",
                     "--budget-seconds", "600", "--check"]) == 0
        assert "SECURE" in capsys.readouterr().out

    def test_exit_1_violation_within_budget(self, capsys):
        assert main(["analyze", "kocher_01",
                     "--budget-seconds", "600"]) == 1

    def test_exit_2_budget_truncation_under_check(self, capsys):
        # 1 ns: expired by the first pop-boundary check on any host.
        assert main(["analyze", "v1_fig8_fence",
                     "--budget-seconds", "1e-9", "--check"]) == 2
        captured = capsys.readouterr()
        assert "truncated" in captured.out
        assert "budget" in captured.err

    def test_exit_3_invalid_budget(self, capsys):
        assert main(["analyze", "kocher_01",
                     "--budget-seconds", "-1"]) == 3
        assert main(["analyze", "kocher_01",
                     "--budget-seconds", "0"]) == 3

    def test_truncated_never_clean(self, capsys):
        # Without --check the exit is 0 (no violation found), but the
        # report itself must carry truncated=True + deadline_hit.
        assert main(["analyze", "v1_fig8_fence",
                     "--budget-seconds", "1e-9", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["truncated"] is True
        assert data["anytime"]["deadline_hit"] is True


class TestStoreKeyCompatibility:
    """Adding or removing a defaulted knob must not invalidate any
    existing ResultStore key: defaults are omitted from canonical
    options."""

    def test_default_options_canonicalise_empty(self):
        assert canonical_options(AnalysisOptions()) == ()

    def test_kocher_01_canonical_options_unchanged(self):
        project = Project.from_litmus("kocher_01")
        assert canonical_options(project.options) == (
            ("bound", 12), ("fwd_hazards", False), ("max_paths", 8000))

    def test_kocher_01_store_key_unchanged(self):
        # The digest was pinned before the anytime options existed; the
        # key moved once, with SEMANTICS_EPOCH 1.
        project = Project.from_litmus("kocher_01")
        fingerprint = fingerprint_digest(project)
        assert fingerprint == ("90fc5e28bad1662ef29daff314f68a2edec8172c"
                               "4bb77f526eb6623a1100f42d")
        assert store_key("pitchfork", fingerprint, project.options) == (
            "424154aed69a18b52cf08740cf560225752993cdff7aa551f"
            "4d1a7f80b606565")

    def test_nondefault_budget_changes_the_key(self):
        # A budgeted (possibly truncated) result must never shadow a
        # complete run of the same target.
        project = Project.from_litmus("kocher_01")
        fingerprint = fingerprint_digest(project)
        base = store_key("pitchfork", fingerprint, project.options)
        budgeted = store_key(
            "pitchfork", fingerprint,
            project.options.with_(budget_seconds=30.0))
        assert budgeted != base
        assert canonical_options(
            project.options.with_(strategy="mcts")) != canonical_options(
                project.options)
