"""Explicit access to the tool-schedule family DT(n) (Definition B.18).

The explorer enumerates DT(n) implicitly.  This module materialises the
schedules — useful for the path-explosion measurements of §4.2 ("we were
able to support speculation bounds of up to 20 instructions … 250 when we
disabled checking for store-forwarding hazards") and for feeding the SCT
checker (Definition 3.1 quantifies over schedules; Theorem B.20 says
DT(n) suffices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.config import Config
from ..core.directives import Schedule
from ..core.machine import Machine
from .explorer import ExplorationOptions, Explorer, resolve_options


@dataclass(frozen=True)
class ScheduleStats:
    """Counts from materialising DT(bound) for one program."""

    bound: int
    fwd_hazards: bool
    schedules: int
    total_steps: int
    truncated: bool


def enumerate_schedules(machine: Machine, config: Config,
                        options: Optional[ExplorationOptions] = None,
                        **overrides) -> List[Schedule]:
    """All complete tool schedules for ``config`` at ``options.bound``.

    ``options`` and the keyword ``overrides`` work as for
    :func:`repro.pitchfork.analyze`.  ``strategy``/``seed`` only change
    the enumeration order (the schedule *set* is order-invariant);
    ``prune="full"`` keeps one representative per Mazurkiewicz class
    (:mod:`repro.engine.por`).  ``subsume`` additionally drops
    schedules continuing from already-covered states
    (:mod:`repro.engine.subsume`) — the *materialised* set shrinks, so
    leave it off when the schedules themselves are the product (the
    SCT check quantifies over all of them).  Leave
    ``budget_seconds`` unset too: a materialised schedule set cut at a
    wall-clock deadline is not DT(bound)."""
    result = Explorer(machine, resolve_options(options, overrides)
                      ).explore(config)
    return [p.schedule for p in result.paths if p.complete]


def schedule_stats(machine: Machine, config: Config,
                   options: Optional[ExplorationOptions] = None,
                   **overrides) -> ScheduleStats:
    """Count the tool schedules without keeping them (explosion sweeps)."""
    options = resolve_options(options, overrides)
    result = Explorer(machine, options).explore(config)
    return ScheduleStats(options.bound, options.fwd_hazards,
                         result.paths_explored, result.states_stepped,
                         result.truncated)
