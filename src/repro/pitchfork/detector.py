"""The Pitchfork detector front end (Section 4.2).

``analyze`` runs one exploration; ``analyze_two_phase`` reproduces the
paper's evaluation procedure exactly (§4.2.1):

1. run *without* forwarding-hazard detection (Spectre v1/v1.1 only) at a
   large speculation bound (paper: 250);
2. only if that is clean, re-run *with* forwarding-hazard detection
   (Spectre v4) at a reduced bound (paper: 20) to keep the analysis
   tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

from ..core.config import Config
from ..core.isa import Evaluator
from ..core.machine import Machine
from ..core.program import Program
from ..engine import PruningStats, SubsumptionStats
from ..engine.mcts import DEFAULT_EXPLORATION, DEFAULT_PLAYOUT_DEPTH
from .explorer import (AnytimeStats, ExplorationOptions, ExplorationResult,
                       Explorer, Violation)

#: The speculation bounds used in the paper's evaluation.
PAPER_BOUND_NO_FWD = 250
PAPER_BOUND_FWD = 20


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of a Pitchfork analysis of one binary/configuration."""

    name: str
    secure: bool
    violations: Tuple[Violation, ...]
    paths_explored: int
    #: Schedule steps actually executed (each shared DFS prefix counts
    #: once).  Disjoint from ``states_reused``; their sum is what
    #: fork-by-copy re-execution would have cost.  Every analysis
    #: reports this pair with the same meaning.
    states_stepped: int
    truncated: bool
    phase: str                  #: "v1/v1.1", "v4", or "combined"
    bound: int
    #: Steps served from shared prefixes / the engine's step cache
    #: instead of being re-executed (0 for legacy producers).
    states_reused: int = 0
    #: Partial-order-reduction accounting (None for legacy producers):
    #: the pruning level, Mazurkiewicz-class representatives explored,
    #: and pruned subtree roots.  See :mod:`repro.engine.por`.
    pruning: Optional[PruningStats] = None
    #: Redundant-state-subsumption accounting (None for legacy
    #: producers): whether the SeenStates table was on, states recorded,
    #: fork arms pruned.  See :mod:`repro.engine.subsume`.
    subsumption: Optional[SubsumptionStats] = None
    #: Anytime coverage accounting; present iff a wall-clock budget was
    #: set.  A budget-truncated run reports ``truncated=True`` (never
    #: clean coverage).  See :class:`~repro.pitchfork.explorer.AnytimeStats`.
    anytime: Optional[AnytimeStats] = None
    #: Deterministic time-to-first-violation: ``{"pops", "steps",
    #: "wall_time"}`` when the run found a violation (pops and machine
    #: steps are strategy-comparable without external timing), None on
    #: clean runs and for legacy producers.
    first_violation: Optional[Mapping] = None
    #: Search telemetry (``{"heatmap", "fork_levels", "pops",
    #: "wall_time"}``, see :mod:`repro.obs.telemetry`); present iff the
    #: run was asked for it (``telemetry=True``), None otherwise.
    telemetry: Optional[Mapping] = None

    def __bool__(self) -> bool:
        return self.secure


def analyze(program: Program, config: Config,
            bound: int = PAPER_BOUND_FWD,
            fwd_hazards: bool = True,
            name: str = "<program>",
            stop_at_first: bool = True,
            evaluator: Optional[Evaluator] = None,
            explore_aliasing: bool = False,
            jmpi_targets: Sequence[int] = (),
            rsb_targets: Sequence[int] = (),
            max_paths: int = 20_000,
            max_steps: int = 40_000,
            rsb_policy: str = "directive",
            strategy: str = "dfs",
            seed: int = 0,
            prune: str = "sleepset",
            subsume: bool = False,
            budget_seconds: Optional[float] = None,
            mcts_c: float = DEFAULT_EXPLORATION,
            mcts_playout: int = DEFAULT_PLAYOUT_DEPTH,
            telemetry: bool = False,
            clock: Optional[Callable[[], float]] = None) -> AnalysisReport:
    """One Pitchfork run: explore DT(bound), flag secret observations.

    ``strategy`` selects the frontier's search order (see
    :mod:`repro.engine.frontier`) and leaves the flagged violation set
    unchanged (Theorem B.20 quantifies over the schedule set, which
    reordering does not alter).  ``prune`` selects the
    partial-order-reduction level (:mod:`repro.engine.por`):
    ``none``/``sleepset``/``full``, all flagging the same violation
    observations.  ``subsume`` prunes fork arms whose state was already
    explored with the same or weaker residual obligations
    (:mod:`repro.engine.subsume`) — same observation set, far fewer
    machine steps on re-convergent (loop-heavy) programs.
    ``budget_seconds`` runs in anytime mode: exploration stops at the
    wall-clock deadline, the report is marked truncated (never clean),
    and ``report.anytime`` carries honest coverage stats.  ``mcts_c``
    and ``mcts_playout`` tune ``strategy="mcts"``
    (:mod:`repro.engine.mcts`).  ``telemetry`` records the search's
    per-fetch-PC heatmap and fork-level schedule histogram onto the
    report (:mod:`repro.obs.telemetry`) — pure observation, the
    explored schedule set is unchanged.  ``clock`` injects a monotonic
    clock for deterministic anytime tests.
    """
    machine = Machine(program, evaluator=evaluator, rsb_policy=rsb_policy)
    options = ExplorationOptions(bound=bound, fwd_hazards=fwd_hazards,
                                 explore_aliasing=explore_aliasing,
                                 jmpi_targets=tuple(jmpi_targets),
                                 rsb_targets=tuple(rsb_targets),
                                 max_paths=max_paths,
                                 max_steps=max_steps,
                                 strategy=strategy,
                                 seed=seed,
                                 prune=prune,
                                 subsume=subsume,
                                 budget_seconds=budget_seconds,
                                 mcts_c=mcts_c,
                                 mcts_playout=mcts_playout,
                                 telemetry=telemetry)
    result = Explorer(machine, options, clock=clock).explore(
        config, stop_at_first=stop_at_first)
    phase = "v4" if fwd_hazards else "v1/v1.1"
    truncated = result.truncated or result.exhausted_paths > 0
    engine = result.engine
    first_violation = None
    if engine is not None and engine.first_violation_steps is not None:
        first_violation = {"pops": engine.first_violation_pops,
                           "steps": engine.first_violation_steps,
                           "wall_time": engine.first_violation_wall}
    return AnalysisReport(name, result.secure, tuple(result.violations),
                          result.paths_explored, result.applied_steps,
                          truncated, phase, bound,
                          states_reused=result.states_reused,
                          pruning=result.pruning,
                          subsumption=result.subsumption,
                          anytime=result.anytime,
                          first_violation=first_violation,
                          telemetry=result.telemetry)


def analyze_two_phase(program: Program, config: Config,
                      name: str = "<program>",
                      bound_no_fwd: int = PAPER_BOUND_NO_FWD,
                      bound_fwd: int = PAPER_BOUND_FWD,
                      max_paths: int = 20_000) -> AnalysisReport:
    """The paper's two-phase procedure (§4.2.1).

    Phase 1 looks for v1/v1.1 violations without forwarding hazards at
    ``bound_no_fwd``; if (and only if) it is clean, phase 2 re-enables
    forwarding-hazard detection at the reduced ``bound_fwd``.
    """
    first = analyze(program, config, bound=bound_no_fwd, fwd_hazards=False,
                    name=name, max_paths=max_paths)
    if not first.secure:
        return first
    second = analyze(program, config, bound=bound_fwd, fwd_hazards=True,
                     name=name, max_paths=max_paths)
    return second
