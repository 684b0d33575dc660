"""Tests for the §4.2.1 two-phase procedure: phase labelling, the
phase-2 skip, and the API classification built on top of it."""

import pytest

import repro.api.analyses as analyses
from repro.api import Project
from repro.litmus import find_case


def _two_phase(name):
    case = find_case(name)
    return Project.from_litmus(case).run(
        "two-phase", bound_no_fwd=case.min_bound, bound_fwd=case.min_bound)


def _count_phases(monkeypatch):
    """Record ``fwd_hazards`` of every exploration the analysis runs."""
    calls = []
    real_analyze = analyses.analyze

    def counting_analyze(program, config, options=None, **kwargs):
        calls.append(options.fwd_hazards)
        return real_analyze(program, config, options, **kwargs)

    monkeypatch.setattr(analyses, "analyze", counting_analyze)
    return calls


class TestAnalyzeTwoPhase:
    def test_v1_leak_is_labelled_phase_one(self):
        report = _two_phase("v1_fig1")
        assert not report.secure
        (phase,) = report.phases
        assert phase.name == "v1/v1.1"
        assert phase.bound == find_case("v1_fig1").min_bound

    def test_v4_leak_is_labelled_phase_two(self):
        report = _two_phase("v4_fig7")
        assert not report.secure
        assert report.phases[-1].name == "v4"

    def test_clean_program_reports_phase_two(self):
        report = _two_phase("v1_fig8_fence")
        assert report.secure and report.phases[-1].name == "v4"

    def test_phase_two_skipped_after_phase_one_violation(self, monkeypatch):
        """A phase-1 finding must short-circuit: phase 2 never runs."""
        calls = _count_phases(monkeypatch)
        report = _two_phase("v1_fig1")
        assert not report.secure
        assert calls == [False]

    def test_both_phases_run_when_phase_one_clean(self, monkeypatch):
        calls = _count_phases(monkeypatch)
        _two_phase("v4_fig7")
        assert calls == [False, True]


class TestTwoPhaseAnalysis:
    """The API wrapper classifies exactly like evaluate_variant."""

    def test_v1_classification(self):
        case = find_case("v1_fig1")
        report = Project.from_litmus(case).run(
            "two-phase", bound_no_fwd=case.min_bound,
            bound_fwd=case.min_bound)
        assert report.status == "v1"
        assert [p.name for p in report.phases] == ["v1/v1.1"]

    def test_f_classification_records_both_phases(self):
        case = find_case("v4_fig7")
        report = Project.from_litmus(case).run(
            "two-phase", bound_no_fwd=case.min_bound,
            bound_fwd=case.min_bound)
        assert report.status == "f"
        assert [p.name for p in report.phases] == ["v1/v1.1", "v4"]
        assert report.phases[0].secure and not report.phases[1].secure

    def test_clean_classification(self):
        case = find_case("v1_fig8_fence")
        report = Project.from_litmus(case).run(
            "two-phase", bound_no_fwd=case.min_bound,
            bound_fwd=case.min_bound)
        assert report.status == "clean" and report.ok


class TestFindCase:
    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            find_case("not_a_registered_case")

    def test_known_name_round_trips(self):
        assert find_case("kocher_01").name == "kocher_01"
