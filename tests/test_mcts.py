"""The mcts frontier (repro.engine.mcts): UCT ordering, reward
back-propagation, playout priors, its fixed UCT constants, and
run-to-completion equivalence with the seed DFS explorer.

The strict bar is the same as every other strategy's (Theorem B.20: the
explored *set* is order-invariant): run to completion, ``mcts`` must
flag the identical violation observation set as ``dfs`` on the full
litmus registry and on randomized programs.  The frontier/subsume/por
equivalence suites additionally pick ``mcts`` up automatically via
``available_strategies()``; the registry cases here pin it with this
module's own seeds.
"""

import functools
import random

import pytest

from repro.core.machine import Machine
from repro.engine import MCTSFrontier, make_frontier
from repro.engine import frontier as frontier_module
from repro.engine.mcts import DEFAULT_EXPLORATION, DEFAULT_PLAYOUT_DEPTH
from repro.litmus import all_cases, find_case
from repro.pitchfork import ExplorationOptions, Explorer, violation_set
from repro.verify.generators import random_config, random_program


def _case_options(case, **kw):
    kw.setdefault("strategy", "mcts")
    kw.setdefault("bound", case.min_bound)
    kw.setdefault("fwd_hazards", case.needs_fwd_hazards)
    kw.setdefault("explore_aliasing", case.needs_aliasing)
    kw.setdefault("jmpi_targets", case.jmpi_targets)
    kw.setdefault("rsb_targets", case.rsb_targets)
    return ExplorationOptions(**kw)


def _run(case, options):
    machine = Machine(case.program, rsb_policy=case.rsb_policy)
    explorer = Explorer(machine, options)
    return explorer.explore(case.make_config(), stop_at_first=False)


class TestUCTOrdering:
    """Pure frontier-protocol tests: no explorer, plain items."""

    def test_pops_every_item_exactly_once(self):
        f = MCTSFrontier()
        f.extend(["a", "b", "c"])
        out = [f.pop() for _ in range(3)]
        assert sorted(out) == ["a", "b", "c"]
        assert len(f) == 0 and not f

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            MCTSFrontier().pop()

    def test_sibling_tie_breaks_to_latest_push(self):
        # Equal priors and no rewards: the UCT scores tie and the seq
        # tiebreak must prefer the most recent push — the explorer
        # pushes the mispredicted arm second, so this matches the DFS
        # preference for descending into fresh speculation first.
        f = MCTSFrontier()
        f.extend(["arch", "spec"])
        assert f.pop() == "spec"

    def test_trie_structure_follows_push_pop_protocol(self):
        # Pushes between two pops are children of the last popped node:
        # r's children are a and b; popping b then pushing b1/b2 hangs
        # them under b.
        f = MCTSFrontier()
        f.push("r")
        assert f.pop() == "r"
        f.extend(["a", "b"])
        assert f.pop() == "b"
        f.extend(["b1", "b2"])
        root = f._root
        (r,) = root.children
        assert [c.item for c in r.children] == ["a", None]
        b = r.children[1]
        assert [c.item for c in b.children] == ["b1", "b2"]

    def test_completed_miss_decays_the_subtree(self):
        # Walking a subtree costs nothing — with no evidence the order
        # stays depth-first (b, then b's child).  A path *completing
        # clean* adds visits up its chain, so the untouched sibling's
        # score overtakes the decayed subtree — the bandit trade-off,
        # driven by outcomes rather than by mere traversal.
        f = MCTSFrontier()
        f.push("root")
        f.pop()
        f.extend(["a", "b"])
        assert f.pop() == "b"           # tie → latest push
        f.extend(["b1", "b2"])
        assert f.pop() == "b2"          # still evidence-free: depth-first
        f.reward("b2", hit=False)       # b2's path completed, no violation
        assert f.pop() == "a"           # b's chain decayed; a overtakes
        assert f.pop() == "b1"

    def test_reward_backpropagates_to_ancestors(self):
        f = MCTSFrontier(exploration=0.0)
        f.push("root")
        root_item = f.pop()
        f.extend(["left", "right"])
        first = f.pop()                 # "right" (tie → latest)
        assert first == "right"
        f.reward(first, hit=True)
        trie_root = f._root
        (root_node,) = trie_root.children
        right_node = root_node.children[1]
        assert right_node.hits == 1.0
        assert root_node.hits == 1.0    # credited up the chain
        assert trie_root.hits == 1.0
        assert f.reward(root_item, hit=True) is None  # stale item: no-op
        assert right_node.hits == 1.0

    def test_reward_steers_selection_with_zero_exploration(self):
        # With c=0 the score is pure exploitation: a rewarded subtree's
        # children outrank an unrewarded sibling pushed later.
        f = MCTSFrontier(exploration=0.0)
        f.push("root")
        f.pop()
        f.extend(["cold", "hot"])
        hot = f.pop()
        assert hot == "hot"
        f.reward(hot, hit=True)
        f.extend(["hot_child"])
        assert f.pop() == "hot_child"   # q = (0+1)/1 via parent's hits
        assert f.pop() == "cold"

    def test_miss_adds_visits_not_reward_mass(self):
        f = MCTSFrontier()
        f.push("x")
        item = f.pop()
        f.reward(item, hit=False)
        assert f._root.hits == 0.0
        assert f._root.visits == 1


class TestPriors:
    def test_items_without_config_degrade_to_novelty(self):
        f = MCTSFrontier(pc_of=lambda item: item[0])
        assert f._prior((7, "payload")) == 1.0
        f.push((7, "payload"))
        f.pop()
        assert f._prior((7, "again")) == pytest.approx(0.5)

    def test_no_pc_of_still_works(self):
        f = MCTSFrontier()
        f.extend([object(), object()])
        f.pop()
        f.pop()

    def test_taint_proximity_on_real_program(self):
        # kocher_01's speculative gadget loads through a secret-derived
        # index; an arm whose fetch PC sits at the gadget entry must
        # out-score one far from any load.
        case = find_case("kocher_01")
        machine = Machine(case.program, rsb_policy=case.rsb_policy)
        options = _case_options(case)
        explorer = Explorer(machine, options)
        result = explorer.explore(case.make_config(), stop_at_first=False)
        assert result.paths_explored > 0
        # The playout cache filled during the run: some PC saw a load.
        # (Reconstruct a frontier the way explore does.)
        f = MCTSFrontier(program=case.program)
        distances = [f._nearest_load(pc)[0] for pc in range(len(case.program))
                     if f._nearest_load(pc)[0] is not None]
        assert distances and min(distances) == 0

    def test_playout_depth_bounds_the_walk(self):
        case = find_case("kocher_01")
        shallow = MCTSFrontier(program=case.program, playout_depth=0)
        deep = MCTSFrontier(program=case.program,
                            playout_depth=DEFAULT_PLAYOUT_DEPTH)
        hits_shallow = sum(1 for pc in range(len(case.program))
                           if shallow._nearest_load(pc)[0] is not None)
        hits_deep = sum(1 for pc in range(len(case.program))
                        if deep._nearest_load(pc)[0] is not None)
        assert hits_shallow <= hits_deep


class TestKnobValidation:
    """The UCT constant and playout depth are fixed: no option, flag or
    ``make_frontier`` argument sets them (the constructor keeps them as
    a test seam)."""

    def test_defaults_are_valid(self):
        f = make_frontier("mcts")
        assert f.exploration == DEFAULT_EXPLORATION
        assert f.playout_depth == DEFAULT_PLAYOUT_DEPTH

    def test_make_frontier_forwards_knobs(self):
        program = find_case("kocher_01").program
        for name in ("dfs", "mcts", "random"):
            assert make_frontier(name, program=program).program is program
        with pytest.raises(TypeError):
            make_frontier("mcts", exploration=1.25)

    def test_other_strategies_ignore_mcts_knobs(self):
        f = make_frontier("dfs", program=find_case("kocher_01").program,
                          pc_of=lambda item: item)
        f.extend([1, 2])
        assert [f.pop(), f.pop()] == [2, 1]

    def test_options_validate_knobs(self):
        from repro.api import AnalysisOptions
        with pytest.raises(TypeError, match="mcts_c"):
            AnalysisOptions(mcts_c=2.0)
        with pytest.raises(TypeError, match="mcts_playout"):
            ExplorationOptions().with_(mcts_playout=3)


class TestRegistryEquivalence:
    """Run to completion, mcts flags the identical observation set."""

    def test_full_litmus_registry_serial(self):
        mismatches = []
        for case in all_cases():
            dfs = _run(case, _case_options(case, strategy="dfs"))
            mcts = _run(case, _case_options(case))
            if violation_set(mcts.violations) != violation_set(dfs.violations):
                mismatches.append(case.name)
            elif sorted(repr(p.schedule) for p in mcts.paths) != \
                    sorted(repr(p.schedule) for p in dfs.paths):
                mismatches.append(f"{case.name} (path set)")
        assert not mismatches, f"mcts diverged from seed DFS on: {mismatches}"

    def test_random_programs(self):
        rng = random.Random(1234)
        for _ in range(15):
            program = random_program(rng)
            config = random_config(rng)
            machine = Machine(program)
            dfs = Explorer(machine, ExplorationOptions(
                bound=6, max_paths=400)).explore(config, stop_at_first=False)
            mcts = Explorer(machine, ExplorationOptions(
                bound=6, max_paths=400, strategy="mcts")).explore(
                    config, stop_at_first=False)
            assert violation_set(mcts.violations) == \
                violation_set(dfs.violations)
            assert mcts.paths_explored == dfs.paths_explored

    def test_nondefault_knobs_preserve_equivalence(self, monkeypatch):
        """Theorem B.20 holds for any UCT constants, not only the
        defaults: swap tuned frontiers in through the constructor seam."""
        case = find_case("kocher_03")
        dfs = _run(case, _case_options(case, strategy="dfs"))
        for c, depth in ((0.0, 0), (2.0, 16)):
            tuned = functools.partial(MCTSFrontier, exploration=c,
                                      playout_depth=depth)
            monkeypatch.setitem(frontier_module._STRATEGIES, "mcts", tuned)
            mcts = _run(case, _case_options(case))
            assert violation_set(mcts.violations) == \
                violation_set(dfs.violations)
