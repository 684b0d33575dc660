"""Redundant-state subsumption differential suite: the PR's strict bar.

Turning ``subsume=True`` on must leave the flagged violation
*observation* set exactly as the un-subsumed run flags it — on the full
litmus registry (every registered case at its ground-truth knobs),
across every search strategy, every partial-order-reduction level, and
on randomized programs.  A subsumed fork arm's
own observations were already recorded before the prune (and flushed if
its path never completes), and its *future* is covered by the canonical
state's future because the step relation is a function of configuration
and directive (Theorem B.1) and the canonical entry's residual
obligations are the same or weaker — so only duplicated suffixes
disappear, never observations.

Cost is pinned too: subsumption never steps *more* than the plain run,
and on re-convergent programs it must actually fire (states_subsumed >
0) and shrink the step count.
"""

import random

import pytest

from repro.core.machine import Machine
from repro.engine import available_strategies
from repro.litmus import all_cases, find_case
from repro.pitchfork import ExplorationOptions, Explorer, observation_set
from repro.verify.generators import random_config, random_program

STRATEGIES = available_strategies()
LEVELS = ("none", "sleepset", "full")
RANDOM_PROGRAMS = 20


def _case_options(case, **kw):
    kw.setdefault("strategy", "dfs")
    kw.setdefault("bound", case.min_bound)
    kw.setdefault("fwd_hazards", case.needs_fwd_hazards)
    kw.setdefault("explore_aliasing", case.needs_aliasing)
    kw.setdefault("jmpi_targets", case.jmpi_targets)
    kw.setdefault("rsb_targets", case.rsb_targets)
    return ExplorationOptions(**kw)


def _run(case, options, stop_at_first=False):
    machine = Machine(case.program, rsb_policy=case.rsb_policy)
    explorer = Explorer(machine, options)
    return explorer.explore(case.make_config(), stop_at_first=stop_at_first)


def _obs(result):
    return observation_set(result.violations)


@pytest.fixture(scope="module")
def plain_reference():
    """Observation sets without subsumption, per case × prune level."""
    out = {}
    for case in all_cases():
        for prune in LEVELS:
            result = _run(case, _case_options(case, prune=prune))
            out[case.name, prune] = _obs(result)
    return out


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("prune", LEVELS)
def test_litmus_registry_equivalence(prune, strategy, plain_reference):
    """subsume=True flags the identical observation set as subsume=False
    on the full registry, at every prune level × search strategy."""
    mismatches = []
    for case in all_cases():
        options = _case_options(case, strategy=strategy, seed=5,
                                prune=prune, subsume=True)
        result = _run(case, options)
        if _obs(result) != plain_reference[case.name, prune]:
            mismatches.append(case.name)
        assert result.subsumption is not None and \
            result.subsumption.enabled, case.name
    assert not mismatches, (
        f"subsume=True with prune={prune} strategy={strategy} diverged "
        f"from the plain run on: {mismatches}")


def test_litmus_stop_at_first_verdicts_agree(plain_reference):
    """The early-exit path (analyze's default) reaches the same secure
    verdict with and without subsumption."""
    for case in all_cases():
        plain = bool(plain_reference[case.name, "sleepset"])
        result = _run(case, _case_options(case, subsume=True),
                      stop_at_first=True)
        assert bool(result.violations) == plain, case.name


def test_random_programs_equivalence():
    """>= 20 random programs: subsume on/off observation sets agree at
    every prune level, and subsumption never steps more."""
    for seed in range(RANDOM_PROGRAMS):
        rng = random.Random(seed)
        program = random_program(rng, length=rng.randrange(8, 15))
        config = random_config(rng)
        machine = Machine(program)
        for level in LEVELS:
            plain = Explorer(machine, ExplorationOptions(
                bound=8, prune=level)).explore(config, stop_at_first=False)
            subs = Explorer(machine, ExplorationOptions(
                bound=8, prune=level, subsume=True)).explore(
                    config, stop_at_first=False)
            assert _obs(subs) == _obs(plain), \
                f"program seed {seed}, prune={level}"
            assert subs.applied_steps <= plain.applied_steps, \
                f"program seed {seed}, prune={level}"
            assert subs.subsumption.states_subsumed == \
                subs.engine.states_subsumed, f"program seed {seed}"


class TestStrictReduction:
    """Subsumption must actually pay: never more steps anywhere, and
    strictly fewer (with a live states_subsumed counter) on
    re-convergent programs.  Measured at ``prune="sleepset"``: under
    ``full`` the covered-window joins already end the re-convergent
    arms, and the table never fires on the Kocher suite."""

    @pytest.fixture(scope="class")
    def kocher_runs(self):
        out = {}
        for case in all_cases():
            if not case.name.startswith("kocher"):
                continue
            runs = {}
            for subsume in (False, True):
                options = _case_options(case, bound=20, fwd_hazards=True,
                                        prune="sleepset", subsume=subsume)
                runs[subsume] = _run(case, options)
            out[case.name] = runs
        return out

    def test_never_more_steps(self, kocher_runs):
        for name, runs in kocher_runs.items():
            assert runs[True].applied_steps <= runs[False].applied_steps, \
                name
            assert runs[True].paths_explored <= \
                runs[False].paths_explored, name

    def test_counters_consistent(self, kocher_runs):
        for name, runs in kocher_runs.items():
            off, on = runs[False], runs[True]
            assert off.subsumption is not None
            assert not off.subsumption.enabled
            assert off.subsumption.states_subsumed == 0, name
            assert on.subsumption.enabled, name
            assert on.subsumption.states_subsumed == \
                on.engine.states_subsumed, name
            assert on.subsumption.states_seen >= on.paths_explored - 1, name

    def test_fires_on_reconvergent_control_flow(self, kocher_runs):
        """At bound 20 several Kocher gadgets re-converge after the
        bounds check; the table must catch at least some of them."""
        fired = [name for name, runs in kocher_runs.items()
                 if runs[True].subsumption.states_subsumed > 0]
        assert fired, "subsumption never fired on the Kocher suite"
        for name in fired:
            runs = kocher_runs[name]
            assert runs[True].applied_steps < runs[False].applied_steps, \
                name


class TestDownstreamConsumers:
    """The knob threads through the API spine and back out again."""

    def test_detector_subsume_threading(self):
        from repro.api import Project, Report
        report = Project.from_litmus("kocher_05").run(
            "pitchfork", subsume=True, stop_at_first=False)
        assert report.details["subsume"] is True
        assert report.subsumption is not None
        assert report.subsumption["enabled"] is True
        assert report.subsumption["states_seen"] > 0
        restored = Report.from_json(report.to_json())
        assert restored == report
        assert restored.subsumption == report.subsumption

    def test_detector_default_off(self):
        from repro.api import Project
        report = Project.from_litmus("kocher_05").run(
            "pitchfork", stop_at_first=False)
        assert report.details["subsume"] is False
        assert report.subsumption is not None
        assert report.subsumption["enabled"] is False
        assert report.subsumption["states_subsumed"] == 0

    def test_sps_ignores_subsume(self):
        """The speculation-passing check has no schedule search to
        prune, so it ignores the knob and says so."""
        from repro.api import Project
        project = Project.from_litmus("kocher_01")
        plain = project.run("sps")
        subs = project.run("sps", subsume=True)
        assert subs.details.get("subsume_ignored") is True
        assert plain.status == subs.status
        assert plain.violations == subs.violations

    def test_two_phase_and_repair_accept_knob(self):
        from repro.api import Project
        for analysis in ("two-phase", "repair"):
            plain = Project.from_litmus("kocher_01").run(analysis)
            subs = Project.from_litmus("kocher_01").run(analysis,
                                                        subsume=True)
            assert plain.status == subs.status, analysis

    def test_invalid_subsume_rejected(self):
        from repro.api import AnalysisOptions
        with pytest.raises(ValueError, match="subsume"):
            AnalysisOptions(subsume="yes")
        with pytest.raises(ValueError, match="subsume"):
            ExplorationOptions(subsume=1)

    def test_schedule_enumeration_accepts_knob(self):
        """Materialised schedule sets shrink under subsumption but stay
        a subset of the plain enumeration."""
        from repro.pitchfork import enumerate_schedules
        case = find_case("kocher_05")
        machine = Machine(case.program, rsb_policy=case.rsb_policy)
        plain = enumerate_schedules(machine, case.make_config(), bound=20)
        subs = enumerate_schedules(machine, case.make_config(), bound=20,
                                   subsume=True)
        assert len(subs) <= len(plain)
        assert set(map(tuple, subs)) <= set(map(tuple, plain))
