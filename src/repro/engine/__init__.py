"""``repro.engine`` — the structural-sharing execution core.

One engine under every driver: the Pitchfork explorer, the sequential
runner, the SCT two-trace product and the metatheory checks all step
configurations through :class:`ExecutionEngine`, which adds
step/fork/reuse accounting and a trial-step cache over the
(deterministic) machine relation.

The supporting structures make forking free:

* :class:`Log` — persistent cons-list logs (schedule/trace/violations)
  with O(1) append and fork, materialized lazily;
* :class:`MachineState` — one exploration arm: configuration + logs +
  budgets, forked in O(1);
* :class:`Frontier` — the pending-work set, with the visit order as a
  pluggable :func:`make_frontier` strategy (``dfs``/``random``/
  ``mcts``); the explorer pushes fork arms into one
  instead of hardcoding a stack, and may feed path outcomes back
  through the ``reward`` hook;
* :class:`MCTSFrontier` — best-first violation hunting: a UCT bandit
  over the fork trie with playout priors (speculation-window depth,
  tainted-load proximity, PC novelty) and back-propagated violation
  rewards (:mod:`repro.engine.mcts`);
* :mod:`repro.engine.por` — independence-based partial-order
  reduction: the commutation relation over directive pairs, sleep-set
  entries for covered rollback outcomes, and the ``none``/``sleepset``/
  ``full`` pruning levels drivers thread through ``prune=``;
* :mod:`repro.engine.subsume` — redundant-state subsumption over the
  hash-consed state core: the :class:`SeenStates` table prunes fork
  arms whose configuration was already explored with the same or
  weaker residual obligations, behind the ``subsume=`` knob.

See DESIGN.md ("The execution engine", "The frontier",
"Partial-order reduction", "State subsumption") for the design
rationale.
"""

from .core import EngineStats, ExecutionEngine
from .frontier import (DepthFirstFrontier, Frontier, RandomFrontier,
                       available_strategies, make_frontier,
                       register_strategy, strategy_descriptions)
from .journal import EMPTY_LOG, Log
from .mcts import MCTSFrontier
from .por import (PRUNE_LEVELS, Footprint, PruningStats, footprint,
                  hazard_load, independent, validate_prune)
from .state import MachineState
from .subsume import SeenStates, SubsumptionStats, validate_subsume

__all__ = [
    "DepthFirstFrontier", "EngineStats", "ExecutionEngine", "EMPTY_LOG", "Footprint", "Frontier",
    "Log", "MCTSFrontier", "MachineState", "PRUNE_LEVELS", "PruningStats",
    "RandomFrontier", "SeenStates", "SubsumptionStats",
    "available_strategies", "footprint", "hazard_load",
    "independent", "make_frontier", "register_strategy",
    "strategy_descriptions", "validate_prune", "validate_subsume",
]
