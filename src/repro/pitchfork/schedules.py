"""Explicit access to the tool-schedule family DT(n) (Definition B.18).

The explorer enumerates DT(n) implicitly.  This module materialises the
schedules — useful for the path-explosion measurements of §4.2 ("we were
able to support speculation bounds of up to 20 instructions … 250 when we
disabled checking for store-forwarding hazards") and for feeding the SCT
checker (Definition 3.1 quantifies over schedules; Theorem B.20 says
DT(n) suffices).

Two shapes are offered: :func:`enumerate_schedules` flattens DT(bound)
into a list, while :func:`enumerate_schedule_tree` preserves the DFS
fork structure as a :class:`repro.engine.ScheduleTree` — each node is a
shared schedule prefix, each leaf carries the explorer's recorded
:class:`~repro.pitchfork.explorer.PathResult`.  Consumers that replay
schedules (the symbolic back end) walk the tree and resume from the
deepest shared prefix instead of re-running every schedule from step 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.config import Config
from ..core.directives import Schedule
from ..core.machine import Machine
from ..engine import ScheduleTree
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
                        options: Optional[ExplorationOptions] = None, *,
                        assume_unknown_branches: bool = False,
                        **overrides) -> List[Schedule]:
    """All complete tool schedules for ``config`` at ``options.bound``.

    ``options`` and the keyword ``overrides`` work as for
    :func:`repro.pitchfork.analyze`.  ``strategy``/``seed`` only change
    the enumeration order (the schedule *set* is order-invariant);
    ``prune="full"`` keeps one representative per Mazurkiewicz class
    (:mod:`repro.engine.por`).  ``subsume`` additionally drops
    schedules continuing from already-covered states
    (:mod:`repro.engine.subsume`) — the *materialised* set shrinks, so
    leave it off when the schedules themselves are the product (e.g.
    feeding symbolic replay, where concrete-state identity is not
    state identity).  Leave ``budget_seconds`` unset too: a
    materialised schedule set cut at a wall-clock deadline is not
    DT(bound).  ``assume_unknown_branches`` is the explorer's
    input-independent mode (see :class:`Explorer`)."""
    result = Explorer(machine, resolve_options(options, overrides),
                      assume_unknown_branches=assume_unknown_branches
                      ).explore(config)
    return [p.schedule for p in result.paths if p.complete]


def enumerate_schedule_tree(machine: Machine, config: Config,
                            options: Optional[ExplorationOptions] = None, *,
                            assume_unknown_branches: bool = False,
                            **overrides) -> ScheduleTree:
    """DT(bound) with its DFS fork structure preserved.

    The returned tree's ``payloads`` are the explorer's complete
    :class:`~repro.pitchfork.explorer.PathResult` records in enumeration
    order (so ``tree.schedules`` equals :func:`enumerate_schedules` on
    the same arguments), ``truncated`` reports whether any cap
    (``max_paths`` or a per-path budget) cut coverage, and
    ``engine_stats`` carries the enumeration's step accounting.
    ``subsume`` consults the SeenStates table at every fork the walk
    expands (same caveats as :func:`enumerate_schedules`).
    """
    result = Explorer(machine, resolve_options(options, overrides),
                      assume_unknown_branches=assume_unknown_branches
                      ).explore(config)
    complete = [p for p in result.paths if p.complete]
    truncated = result.truncated or result.exhausted_paths > 0
    return ScheduleTree.from_paths(
        ((p.schedule, p) for p in complete),
        truncated=truncated, engine_stats=result.engine)


def schedule_stats(machine: Machine, config: Config,
                   options: Optional[ExplorationOptions] = None,
                   **overrides) -> ScheduleStats:
    """Count the tool schedules without keeping them (explosion sweeps)."""
    options = resolve_options(options, overrides)
    result = Explorer(machine, options).explore(config)
    return ScheduleStats(options.bound, options.fwd_hazards,
                         result.paths_explored, result.states_stepped,
                         result.truncated)
