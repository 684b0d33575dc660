"""White-box tests of the Pitchfork explorer's scheduler decisions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import ProgramBuilder, assemble
from repro.casestudies import all_case_studies
from repro.core import Config, Machine, Memory, Region, Value, PUBLIC, SECRET
from repro.core.directives import Execute, Fetch, Retire
from repro.core.isa import Load, Op, Store
from repro.core.observations import Fwd
from repro.core.program import Program
from repro.core.transient import TBr
from repro.core.values import Reg, operands
from repro.engine import MachineState
from repro.litmus import find_case
from repro.pitchfork import ExplorationOptions, Explorer, analyze
from repro.verify.generators import random_config, random_program


def _machine(src):
    return Machine(assemble(src))


class TestProbePruning:
    def test_mispredicted_path_ends_at_rollback(self):
        """The wrong-guess path's schedule stops right after the branch
        resolves: its continuation equals the correct path's (Thm B.7)."""
        m = _machine("br ltu, %ra, 4 -> 2, 3\n%rb = op mov, 1\nhalt")
        c = Config.initial({"ra": 9}, Memory(), 1)
        result = Explorer(m, ExplorationOptions(bound=8)).explore(c)
        assert result.paths_explored == 2
        wrong = [p for p in result.paths
                 if p.schedule and p.schedule[0] == Fetch(True)]
        assert len(wrong) == 1
        # the wrong path ends with the branch execution (the rollback)
        assert isinstance(wrong[0].schedule[-1], Execute)
        from repro.core.observations import Rollback
        assert Rollback() in wrong[0].trace

    def test_correct_path_runs_to_terminal(self):
        m = _machine("br ltu, %ra, 4 -> 2, 3\n%rb = op mov, 1\nhalt")
        c = Config.initial({"ra": 9}, Memory(), 1)
        result = Explorer(m, ExplorationOptions(bound=8)).explore(c)
        right = [p for p in result.paths
                 if p.schedule and p.schedule[0] == Fetch(False)]
        assert right[0].final.is_terminal()


class TestEagerness:
    def test_ops_execute_before_further_fetches(self):
        m = _machine("%ra = op mov, 1\n%rb = op mov, 2\nhalt")
        c = Config.initial({}, Memory(), 1)
        result = Explorer(m, ExplorationOptions(bound=8)).explore(c)
        (path,) = result.paths
        kinds = [type(d).__name__ for d in path.schedule]
        # fetch, execute, fetch, execute, retire, retire
        assert kinds[:4] == ["Fetch", "Execute", "Fetch", "Execute"]

    def test_store_value_resolved_immediately(self):
        m = _machine("store %rv, [0x40]\nhalt")
        c = Config.initial({"rv": 7}, Memory(), 1)
        result = Explorer(m, ExplorationOptions(bound=8)).explore(c)
        for p in result.paths:
            value_steps = [k for k, d in enumerate(p.schedule)
                           if isinstance(d, Execute) and d.part == "value"]
            assert value_steps and value_steps[0] == 1  # right after fetch


class TestForwardingArms:
    def test_matching_store_creates_three_outcomes(self):
        """One matching store: forward-from-it, and read-memory (v4),
        for the deferred arm; resolved-then-forward collapses into the
        first. Expect ≥ 2 distinct traces."""
        m = _machine("store 1, [0x40]\n%ra = load [0x40]\nhalt")
        c = Config.initial({}, Memory().write(0x40, Value(9)), 1)
        result = Explorer(m, ExplorationOptions(bound=8)).explore(c)
        traces = {p.trace for p in result.paths}
        assert len(traces) >= 2
        from repro.core.observations import Fwd, Read
        kinds = {tuple(type(o).__name__ for o in t) for t in traces}
        # one world forwards (Fwd first), one reads stale memory (Read)
        assert any(k and k[0] == "Fwd" for k in kinds)
        assert any("Read" in k for k in kinds)

    def test_stale_read_world_rolls_back_and_recovers(self):
        """The v4 probe must still commit the architecturally right
        value after its hazard rollback.  ``prune="full"`` ends that
        path at the rollback (the forwarding arm covers the
        continuation), so the recovery is run at ``sleepset``."""
        m = _machine("store 1, [0x40]\n%ra = load [0x40]\nhalt")
        c = Config.initial({}, Memory().write(0x40, Value(9)), 1)
        result = Explorer(m, ExplorationOptions(
            bound=8, prune="sleepset")).explore(c)
        for p in result.paths:
            if p.complete:
                assert p.final.reg("ra").val == 1
                assert p.final.mem.read(0x40).val == 1


class TestExtensions:
    def test_rsb_target_exploration(self):
        case = find_case("ret2spec_fig12")
        blind = analyze(case.program, case.config(), bound=16,
                        fwd_hazards=False)
        seeing = analyze(case.program, case.config(), bound=16,
                         fwd_hazards=False, rsb_targets=(10,))
        assert blind.secure and not seeing.secure

    def test_aliasing_exploration_bounded(self):
        """Aliasing arms multiply paths but stay within budget."""
        case = find_case("aliasing_fig2")
        report = analyze(case.program, case.config(), bound=12,
                         fwd_hazards=True, explore_aliasing=True,
                         stop_at_first=False, max_paths=4000)
        assert not report.secure
        assert not report.truncated


class _SettledCheckingExplorer(Explorer):
    """Re-resolves every remembered branch before each eager sweep."""

    remembered = 0

    def _eager_actions(self, path):
        config = path.config
        for i in path.mispredicted:
            entry = config.buf.get(i)
            assert type(entry) is TBr, (i, entry)
            target = self._actual_br_target(config, i, entry)
            assert target is not None and target != entry.guess, (i, entry)
            self.remembered += 1
        return super()._eager_actions(path)


class TestSettledBranches:
    """``MachineState.mispredicted`` only ever holds live branches whose
    resolved target differs from the guess."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           prune=st.sampled_from(("none", "sleepset", "full")),
           subsume=st.booleans(),
           strategy=st.sampled_from(("dfs", "mcts")),
           fwd_hazards=st.booleans(),
           explore_aliasing=st.booleans())
    def test_remembered_branches_are_mispredicted(
            self, seed, prune, subsume, strategy, fwd_hazards,
            explore_aliasing):
        rng = random.Random(seed)
        program = random_program(rng, length=rng.randrange(6, 12))
        config = random_config(rng)
        options = ExplorationOptions(
            bound=rng.choice((4, 6, 8)), fwd_hazards=fwd_hazards,
            explore_aliasing=explore_aliasing, prune=prune,
            subsume=subsume, strategy=strategy, seed=seed,
            max_paths=2000)
        _SettledCheckingExplorer(Machine(program), options).explore(
            config, stop_at_first=False)

    def test_memo_is_consulted(self):
        """A branch mispredicted far from the window's end is settled
        once and skipped by the later sweeps of its path."""
        m = _machine("br ltu, %ra, 4 -> 2, 5\n%rb = op mov, 1\n"
                     "%rc = op mov, 2\n%rd = op mov, 3\nhalt")
        c = Config.initial({"ra": 9}, Memory(), 1)
        explorer = _SettledCheckingExplorer(m, ExplorationOptions(bound=8))
        plain = Explorer(m, ExplorationOptions(bound=8)).explore(c)
        result = explorer.explore(c)
        assert explorer.remembered > 0
        assert [p.schedule for p in result.paths] == \
            [p.schedule for p in plain.paths]

    def test_fork_copies_independently(self):
        state = MachineState(Config.initial({}, Memory(), 1))
        state.mispredicted.add(3)
        clone = state.fork()
        assert clone.mispredicted == {3}
        clone.mispredicted.add(4)
        state.mispredicted.discard(3)
        assert state.mispredicted == set() and clone.mispredicted == {3, 4}

    def test_not_an_obligation(self):
        """Derived from the configuration, so it never separates two
        states for subsumption."""
        a = MachineState(Config.initial({}, Memory(), 1))
        b = a.fork()
        b.mispredicted.add(2)
        assert a.residual_obligations() == b.residual_obligations()


class TestLabelGate:
    """The store-address timing fork is label-gated: it is taken only
    when the address reads an in-flight value that is unresolved or
    secret, since a public ``fwd`` observation is never a violation."""

    ARENA = 0x40

    def _store_after_op(self, r1_label):
        """``r2 = r1 + 0`` then a store to ``ARENA + r2``: the store's
        address reads a resolved, in-flight op result."""
        r1, r2 = Reg("r1"), Reg("r2")
        program = Program({
            1: Op(r2, "add", operands(r1, 0), 2),
            2: Store(Value(7), operands(self.ARENA, r2), 3),
        }, entry=1)
        config = Config.initial({"r1": Value(3, r1_label)}, Memory(), 1)
        return Machine(program), config

    def test_secret_through_mov_is_still_flagged_under_full(self):
        """via_mov: a stale load reads a secret, ``mov`` copies it, and
        the younger store's address leaks it as ``fwd``.  The producer
        of the address is an op, not a load, so only the label (never
        the producer's kind) can gate the fork."""
        r0, r1, r2 = Reg("r0"), Reg("r1"), Reg("r2")
        program = Program({
            1: Store(Value(0), operands(self.ARENA, r1), 3),
            3: Load(r0, operands(self.ARENA + 3), 4),
            4: Op(r2, "mov", operands(r0), 5),
            5: Store(Value(2), operands(self.ARENA, r2), 6),
        }, entry=1)
        mem = Memory().write(self.ARENA + 3, Value(5, SECRET))
        config = Config.initial({"r0": 0, "r1": 3, "r2": 0}, mem, 1)
        options = ExplorationOptions(bound=8)
        assert options.prune == "full"
        result = Explorer(Machine(program), options).explore(config)
        leaks = {v.observation for v in result.violations}
        assert Fwd(self.ARENA + 5, SECRET) in leaks

    @pytest.mark.parametrize("prune", ["sleepset", "full"])
    def test_public_inflight_address_does_not_fork(self, prune):
        machine, config = self._store_after_op(PUBLIC)
        result = Explorer(machine, ExplorationOptions(
            bound=8, prune=prune)).explore(config)
        assert result.paths_explored == 1
        assert result.secure

    @pytest.mark.parametrize("prune", ["sleepset", "full"])
    def test_secret_inflight_address_still_forks(self, prune):
        machine, config = self._store_after_op(SECRET)
        result = Explorer(machine, ExplorationOptions(
            bound=8, prune=prune)).explore(config)
        assert result.paths_explored == 2
        assert not result.secure

    def test_donna_c_step_count_under_full(self):
        """A deterministic count: curve25519-donna (C) at bound 20 takes
        the 1,495 machine steps ``BENCH_por.json`` records for
        ``full``."""
        donna = [v for cs in all_case_studies() for v in cs.variants()
                 if v.name == "donna-c"][0]
        result = Explorer(Machine(donna.program), ExplorationOptions(
            bound=20, fwd_hazards=True)).explore(donna.make_config(),
                                                 stop_at_first=False)
        assert not result.truncated
        assert result.applied_steps == 1495
