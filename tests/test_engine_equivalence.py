"""The engine changes *how much work* exploration does, never *what*
it computes.

These tests hold the engine-backed Explorer, at ``prune="sleepset"``
(the seed's enumeration, which the reference implements), to
path-for-path identical results against :class:`ReferenceExplorer` —
the seed's fork-by-copy implementation kept here verbatim: every fork
duplicates the full schedule/trace/violation lists and every step runs
the raw machine (no trial-step cache, no shared logs).  Equivalence is checked on
randomized programs from :mod:`repro.verify.generators` and, byte for
byte (``repr``), across the full litmus registry.
"""

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set

import pytest

from repro.core.config import Config
from repro.core.directives import Execute, Fetch, Retire
from repro.core.errors import StuckError
from repro.core.machine import Machine
from repro.core.observations import Rollback, is_secret_dependent
from repro.core.transient import TBr
from repro.litmus import all_cases
from repro.pitchfork.explorer import (MAX_FETCHES, ExplorationOptions,
                                      ExplorationResult, Explorer,
                                      PathResult, Violation, _Defer,
                                      _DelayJmpi)
from repro.verify.generators import random_config, random_program


# ---------------------------------------------------------------------------
# The reference implementation (the seed's fork-by-copy explorer)
# ---------------------------------------------------------------------------

@dataclass
class _RefPath:
    config: Config
    schedule: List
    trace: List
    violations: List
    delayed: Set[int]
    fetches: int = 0
    steps: int = 0
    exhausted: bool = False
    finished: bool = False
    deferred: Set[int] = field(default_factory=set)

    @property
    def mispredicted(self) -> Set[int]:
        """Never remembers a settled branch: every sweep re-resolves
        every branch, so the equivalence tests compare the explorer's
        memo against recomputation."""
        return set()


class ReferenceExplorer(Explorer):
    """Fork-by-deep-copy exploration: the pre-engine implementation.

    Inherits the scheduler (Definition B.18's decision logic) and
    replaces the execution machinery: full list copies at forks, raw
    machine steps everywhere (no cache, no persistent logs).
    """

    def explore(self, initial: Config,
                stop_at_first: bool = False) -> ExplorationResult:
        result = ExplorationResult()
        stack = [_RefPath(initial, [], [], [], set())]
        while stack:
            if result.paths_explored >= self.options.max_paths:
                result.truncated = True
                break
            path = stack.pop()
            forks = self._run_path(path)
            if forks is None:
                result.paths_explored += 1
                result.states_stepped += path.steps
                result.paths.append(PathResult(
                    tuple(path.schedule), tuple(path.trace), path.config,
                    tuple(path.violations), complete=not path.exhausted))
                result.violations.extend(path.violations)
                if path.exhausted:
                    result.exhausted_paths += 1
                if stop_at_first and path.violations:
                    return result
            else:
                stack.extend(forks)
        return result

    def _run_path(self, path):
        while True:
            if path.exhausted or path.finished:
                return None
            if path.steps >= self.options.max_steps or \
                    path.fetches >= MAX_FETCHES:
                path.exhausted = True
                return None
            arms = self._next_actions(path)
            if arms is None:
                return None
            if len(arms) == 1:
                for action in arms[0]:
                    if not self._apply(path, action):
                        return None
                continue
            forks = []
            for arm in arms:
                clone = _RefPath(path.config, list(path.schedule),
                                 list(path.trace), list(path.violations),
                                 set(path.delayed),
                                 path.fetches, path.steps,
                                 deferred=set(path.deferred))
                for action in arm:
                    if not self._apply(clone, action):
                        break
                forks.append(clone)
            return forks

    def _apply(self, path, action) -> bool:
        if isinstance(action, _DelayJmpi):
            path.delayed.add(action.index)
            return True
        if isinstance(action, _Defer):
            path.deferred.add(action.index)
            return True
        try:
            config, leak = self.machine.step(path.config, action)
        except StuckError:
            path.exhausted = True
            return False
        path.steps += 1
        if isinstance(action, Fetch):
            path.fetches += 1
        for k, obs in enumerate(leak):
            if is_secret_dependent(obs):
                buffer_index = action.index \
                    if isinstance(action, Execute) else None
                path.violations.append(Violation(
                    obs, len(path.schedule), action, buffer_index,
                    tuple(path.schedule) + (action,),
                    tuple(path.trace) + leak[:k + 1]))
        if any(isinstance(o, Rollback) for o in leak):
            path.delayed = {i for i in path.delayed if i in config.buf}
            path.deferred = {i for i in path.deferred if i in config.buf}
            if isinstance(action, Execute) and \
                    isinstance(path.config.buf.get(action.index), TBr):
                path.finished = True
        elif isinstance(action, Retire) and path.deferred:
            path.deferred = {i for i in path.deferred if i in config.buf}
        path.schedule.append(action)
        path.trace.extend(leak)
        path.config = config
        return True

    def _can(self, config, d) -> bool:
        try:
            self.machine.step(config, d)
        except StuckError:
            return False
        return True

    def _can_sequence(self, config, arm) -> bool:
        current = config
        for action in arm:
            if not isinstance(action, Execute):
                return True
            try:
                current, _leak = self.machine.step(current, action)
            except StuckError:
                return False
        return True


# ---------------------------------------------------------------------------
# Equivalence assertions
# ---------------------------------------------------------------------------

def _assert_identical(machine: Machine, config: Config,
                      options: ExplorationOptions, label: str) -> None:
    got = Explorer(machine, options).explore(config)
    want = ReferenceExplorer(machine, options).explore(config)
    assert got.paths_explored == want.paths_explored, label
    assert got.truncated == want.truncated, label
    assert got.states_stepped == want.states_stepped, label
    assert len(got.paths) == len(want.paths), label
    for k, (g, w) in enumerate(zip(got.paths, want.paths)):
        where = f"{label}, path {k}"
        assert g.schedule == w.schedule, where
        assert g.trace == w.trace, where
        assert g.violations == w.violations, where
        assert g.complete == w.complete, where
        assert g.final == w.final, where
        assert repr(g) == repr(w), where
    assert [repr(v) for v in got.violations] \
        == [repr(v) for v in want.violations], label


class TestRandomizedEquivalence:
    """Path-for-path identity on random programs (both fwd modes)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_program(self, seed):
        rng = random.Random(seed)
        program = random_program(rng, length=rng.randrange(6, 12))
        config = random_config(rng)
        machine = Machine(program)
        options = ExplorationOptions(
            bound=rng.choice((4, 6, 8)),
            fwd_hazards=bool(seed % 2),
            max_paths=4000, prune="sleepset")
        _assert_identical(machine, config, options, label=f"seed={seed}")

    @pytest.mark.parametrize("seed", range(6))
    def test_tight_budgets_truncate_identically(self, seed):
        """Budget-capped paths (exhausted/truncated) must also agree."""
        rng = random.Random(1000 + seed)
        program = random_program(rng, length=10)
        config = random_config(rng)
        machine = Machine(program)
        options = ExplorationOptions(bound=6, fwd_hazards=True,
                                     max_paths=5, max_steps=30,
                                     prune="sleepset")
        _assert_identical(machine, config, options,
                          label=f"budget seed={seed}")


class TestRegistryEquivalence:
    """Byte-identical exploration across the full litmus registry."""

    @pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
    def test_case(self, case):
        machine = Machine(case.program, rsb_policy=case.rsb_policy)
        options = ExplorationOptions(
            bound=case.min_bound,
            fwd_hazards=case.needs_fwd_hazards,
            explore_aliasing=case.needs_aliasing,
            jmpi_targets=tuple(case.jmpi_targets),
            rsb_targets=tuple(case.rsb_targets),
            max_paths=4000, prune="sleepset")
        _assert_identical(machine, case.make_config(), options,
                          label=case.name)
