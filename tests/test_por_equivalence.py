"""Partial-order reduction differential suite: the PR's strict bar.

Every pruning level must flag the identical violation *observation* set
as the unreduced ``prune="none"`` baseline — on the full litmus
registry (every registered case at its ground-truth knobs), across
every search strategy, and on randomized programs.
Mazurkiewicz-equivalent schedules produce the same observations in
permuted order, so observation sets (not witnessing schedules) are the
invariant pruning preserves; see ``repro.pitchfork.reports
.observation_set``.

Structure is pinned too: a ``full`` run's DFS path list is a
subsequence of the ``sleepset`` run's in prefix order (pruning only
truncates paths at covered rollbacks or drops duplicate arms — it
never invents or reorders exploration), and on the Kocher suite the
reduced levels explore strictly less than the raw Definition B.18
baseline.
"""

import random

import pytest

from repro.core.isa import Store
from repro.core.machine import Machine
from repro.engine import available_strategies
from repro.litmus import all_cases
from repro.pitchfork import ExplorationOptions, Explorer, observation_set
from repro.verify.generators import random_config, random_program

STRATEGIES = available_strategies()
LEVELS = ("none", "sleepset", "full")
RANDOM_PROGRAMS = 30


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
def none_reference():
    """Raw-B.18 observation sets for every registered litmus case."""
    out = {}
    for case in all_cases():
        result = _run(case, _case_options(case, prune="none"))
        assert not result.truncated, \
            f"{case.name}: the unreduced baseline must complete"
        out[case.name] = _obs(result)
    return out


@pytest.fixture(scope="module")
def sleepset_paths():
    """Seed-DFS (prune=sleepset) path lists for the structural tests."""
    out = {}
    for case in all_cases():
        result = _run(case, _case_options(case))
        out[case.name] = [p.schedule for p in result.paths]
    return out


@pytest.mark.parametrize("prune", ("sleepset", "full"))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_litmus_registry_equivalence(prune, strategy, none_reference):
    """Pruned violation observation sets equal the unreduced baseline
    on the full registry, for every strategy."""
    mismatches = []
    for case in all_cases():
        options = _case_options(case, strategy=strategy, seed=5, prune=prune)
        result = _run(case, options)
        if _obs(result) != none_reference[case.name]:
            mismatches.append(case.name)
    assert not mismatches, (
        f"prune={prune} strategy={strategy} diverged "
        f"from the unreduced baseline on: {mismatches}")


def test_random_programs_equivalence():
    """>= 30 random programs: all three levels flag the same
    observations, and full's DFS paths prefix-embed into sleepset's."""
    for seed in range(RANDOM_PROGRAMS):
        rng = random.Random(seed)
        program = random_program(rng, length=rng.randrange(8, 15))
        config = random_config(rng)
        machine = Machine(program)
        results = {}
        for level in LEVELS:
            options = ExplorationOptions(bound=8, prune=level)
            results[level] = Explorer(machine, options).explore(
                config, stop_at_first=False)
        reference = _obs(results["none"])
        for level in ("sleepset", "full"):
            assert _obs(results[level]) == reference, \
                f"program seed {seed}, prune={level}"
        _assert_prefix_subsequence(
            [p.schedule for p in results["full"].paths],
            [p.schedule for p in results["sleepset"].paths],
            f"program seed {seed}")


def _assert_prefix_subsequence(pruned, base, what):
    """Every pruned path is a prefix of a distinct base path, and the
    matched base indices are strictly increasing (same DFS order)."""
    j = 0
    for k, schedule in enumerate(pruned):
        while j < len(base) and base[j][:len(schedule)] != schedule:
            j += 1
        assert j < len(base), (
            f"{what}: pruned path {k} is not a prefix of any remaining "
            f"unpruned path — pruning must only truncate or drop, "
            f"never reorder")
        j += 1


def test_full_paths_prefix_embed_into_sleepset(sleepset_paths):
    """On every litmus case, the full-reduction DFS path order is a
    subsequence (in prefix order) of the sleepset DFS path order."""
    for case in all_cases():
        result = _run(case, _case_options(case, prune="full"))
        _assert_prefix_subsequence([p.schedule for p in result.paths],
                                   sleepset_paths[case.name], case.name)


def test_sleepset_paths_prefix_embed_into_none():
    """Where the two levels explore the same fork arms (no stores, so
    no deferral choice points), sleepset only truncates none's paths."""
    checked = 0
    for case in all_cases():
        if any(isinstance(i, Store) for _n, i in case.program.items()):
            continue
        base = _run(case, _case_options(case, prune="none"))
        pruned = _run(case, _case_options(case))
        _assert_prefix_subsequence([p.schedule for p in pruned.paths],
                                   [p.schedule for p in base.paths],
                                   case.name)
        checked += 1
    assert checked >= 5, "expected several store-free litmus cases"


KOCHER_OPTIONS = dict(bound=20, fwd_hazards=True, max_paths=20_000)


class TestStrictReduction:
    """The Kocher acceptance bar: reduced levels explore strictly less
    than raw Definition B.18 on every case, and strictly fewer
    *schedules* wherever the case has more than one fork point."""

    @pytest.fixture(scope="class")
    def kocher_runs(self):
        out = {}
        for case in all_cases():
            if not case.name.startswith("kocher"):
                continue
            runs = {}
            for level in LEVELS:
                machine = Machine(case.program, rsb_policy=case.rsb_policy)
                options = ExplorationOptions(prune=level, **KOCHER_OPTIONS)
                runs[level] = Explorer(machine, options).explore(
                    case.make_config(), stop_at_first=False)
            out[case.name] = runs
        return out

    def test_sleepset_strictly_fewer_steps(self, kocher_runs):
        for name, runs in kocher_runs.items():
            assert runs["sleepset"].applied_steps < \
                runs["none"].applied_steps, name
            assert runs["full"].applied_steps <= \
                runs["sleepset"].applied_steps, name

    def test_schedule_counts_monotone(self, kocher_runs):
        for name, runs in kocher_runs.items():
            assert runs["full"].paths_explored <= \
                runs["sleepset"].paths_explored <= \
                runs["none"].paths_explored, name

    def test_full_strictly_fewer_schedules_on_multifork(self, kocher_runs):
        multifork = 0
        for name, runs in kocher_runs.items():
            if runs["none"].paths_explored < 3:
                continue    # a single fork point: nothing redundant
            multifork += 1
            assert runs["full"].paths_explored < \
                runs["none"].paths_explored, name
        assert multifork >= 10, "most Kocher cases should be multi-fork"

    def test_skip_accounting_matches(self, kocher_runs):
        """schedules_skipped is live exactly when pruning is on: every
        branch-bearing case records its misprediction-window joins."""
        from repro.core.isa import Br
        from repro.litmus import find_case
        for name, runs in kocher_runs.items():
            assert runs["none"].pruning.schedules_skipped == 0, name
            has_branch = any(isinstance(i, Br) for _n, i
                             in find_case(name).program.items())
            if has_branch:
                assert runs["sleepset"].pruning.schedules_skipped > 0, name
            assert runs["full"].pruning.classes_explored == \
                runs["full"].paths_explored, name


class TestDownstreamConsumers:
    """Pruned schedule trees decide the same questions downstream."""

    def test_two_phase_classification_invariant(self):
        from repro.api import Project
        for name, expected in (("kocher_01", "v1"), ("v4_fig7", "f"),
                               ("v1_fig8_fence", "clean")):
            project = Project.from_litmus(name)
            for level in LEVELS:
                report = project.run("two-phase", prune=level,
                                     bound_no_fwd=20, bound_fwd=12)
                assert report.status == expected, (name, level)
                assert not report.truncated, (name, level)

    def test_sct_verdict_invariant(self):
        from repro.api import Project
        for name in ("kocher_01", "v1_fig8_fence", "v1_sequential_leak"):
            verdicts = set()
            for level in LEVELS:
                report = Project.from_litmus(name).run("sct", prune=level)
                verdicts.add((report.status, report.vacuous))
            assert len(verdicts) == 1, (name, verdicts)

    def test_detector_prune_threading(self):
        """--prune reaches the explorer through AnalysisOptions and the
        report carries the pruning section, exactly round-tripped."""
        from repro.api import Project, Report
        report = Project.from_litmus("kocher_05").run(
            "pitchfork", prune="full", stop_at_first=False)
        assert report.details["prune"] == "full"
        assert report.pruning is not None
        assert report.pruning["level"] == "full"
        assert report.pruning["schedules_skipped"] > 0
        restored = Report.from_json(report.to_json())
        assert restored == report
        assert restored.pruning == report.pruning

    def test_invalid_prune_rejected(self):
        from repro.api import AnalysisOptions
        with pytest.raises(ValueError, match="prune"):
            AnalysisOptions(prune="everything")
        with pytest.raises(ValueError, match="prune"):
            ExplorationOptions(prune="aggressive")
