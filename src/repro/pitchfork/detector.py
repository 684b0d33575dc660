"""The Pitchfork detector front end (Section 4.2).

``analyze`` runs one exploration.  The paper's two-phase evaluation
procedure (§4.2.1) is :class:`repro.api.analyses.TwoPhaseAnalysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

from ..core.config import Config
from ..core.machine import Machine
from ..core.program import Program
from ..engine import PruningStats, SubsumptionStats
from .explorer import (AnytimeStats, ExplorationOptions, Explorer,
                       Violation, resolve_options)


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
            options: Optional[ExplorationOptions] = None, *,
            name: str = "<program>",
            clock: Optional[Callable[[], float]] = None,
            **overrides) -> AnalysisReport:
    """One Pitchfork run: explore DT(``options.bound``), flag secret
    observations.

    ``options`` is the run's :class:`ExplorationOptions` (an
    :class:`~repro.api.AnalysisOptions` works too: the explorer reads
    the fields it knows by name); keyword ``overrides`` replace fields
    of it by name, so ``analyze(p, c, bound=8, prune="full")`` still
    reads as it always did.  See the record for what each knob does.
    ``clock`` injects a monotonic clock for deterministic anytime tests.
    """
    options = resolve_options(options, overrides)
    machine = Machine(program, rsb_policy=options.rsb_policy)
    result = Explorer(machine, options, clock=clock).explore(
        config, stop_at_first=options.stop_at_first)
    phase = "v4" if options.fwd_hazards else "v1/v1.1"
    truncated = result.truncated or result.exhausted_paths > 0
    engine = result.engine
    first_violation = None
    if engine is not None and engine.first_violation_steps is not None:
        first_violation = {"pops": engine.first_violation_pops,
                           "steps": engine.first_violation_steps,
                           "wall_time": engine.first_violation_wall}
    return AnalysisReport(name, result.secure, tuple(result.violations),
                          result.paths_explored, result.applied_steps,
                          truncated, phase, options.bound,
                          states_reused=result.states_reused,
                          pruning=result.pruning,
                          subsumption=result.subsumption,
                          anytime=result.anytime,
                          first_violation=first_violation,
                          telemetry=result.telemetry)
