"""O(1)-fork execution states built on structural sharing.

A :class:`MachineState` is what one DFS arm of an exploration carries:
the machine configuration (already an immutable value — see
:class:`~repro.core.config.Config`) plus the three append-only logs
(schedule, trace, notes) as :class:`~repro.engine.journal.Log`
cons-lists, the per-path budget counters, and any small driver-local
bookkeeping (delayed indices, settled branch outcomes).

The seed Explorer copied three Python lists and a set at every fork;
:meth:`fork` here copies five references and a few small sets.  The logs
materialize back into tuples only when a path completes, so a fork that
is quickly pruned never pays for its prefix at all.
"""

from __future__ import annotations

from typing import Optional, Set

from ..core.config import Config
from .journal import EMPTY_LOG, Log

__all__ = ["MachineState"]


class MachineState:
    """One in-flight exploration state with O(1) fork.

    Mutable *between* forks (a driver advances it in place), constant
    time to fork: all history lives in shared persistent structures.
    """

    __slots__ = ("config", "schedule", "trace", "notes", "delayed",
                 "deferred", "sleep", "fetches", "steps", "exhausted",
                 "finished", "depth", "mispredicted")

    def __init__(self, config: Config,
                 schedule: Log = EMPTY_LOG,
                 trace: Log = EMPTY_LOG,
                 notes: Log = EMPTY_LOG,
                 delayed: Optional[Set[int]] = None,
                 fetches: int = 0, steps: int = 0,
                 deferred: Optional[Set[int]] = None,
                 sleep: Optional[Set[tuple]] = None,
                 depth: int = 0,
                 mispredicted: Optional[Set[int]] = None):
        self.config = config
        self.schedule = schedule      #: Log of Directive
        self.trace = trace            #: Log of Observation
        self.notes = notes            #: Log of driver-specific records
        self.delayed = delayed if delayed is not None else set()
        #: store indices whose address resolution the raw-B.18 driver
        #: chose to defer (prune="none"'s explicit choice point)
        self.deferred = deferred if deferred is not None else set()
        #: sleep-set entries: outcomes covered by a sibling fork arm
        #: (see repro.engine.por) — a rollback landing on one ends the
        #: path
        self.sleep = sleep if sleep is not None else set()
        self.fetches = fetches
        self.steps = steps
        self.exhausted = False        #: a per-path budget was hit
        self.finished = False         #: cleanly pruned by the driver
        #: fork-tree depth (number of choice points above this arm) —
        #: driver bookkeeping for the search-telemetry fork-level
        #: histogram, never consulted by the semantics
        self.depth = depth
        #: buffer indices whose branch has already resolved as
        #: mispredicted — a memo derived from the configuration (the
        #: outcome is fixed while the entry lives), so it is not an
        #: obligation and stays out of :meth:`residual_obligations`
        self.mispredicted = mispredicted if mispredicted is not None else set()

    def fork(self) -> "MachineState":
        """An independent state sharing all history with this one."""
        return MachineState(self.config, self.schedule, self.trace,
                            self.notes, set(self.delayed),
                            self.fetches, self.steps,
                            set(self.deferred), set(self.sleep),
                            self.depth, set(self.mispredicted))

    def residual_obligations(self):
        """What this state still owes the exploration, beyond its
        configuration: the driver-local scratch that determines which
        continuations the scheduler will generate from here.  Two
        states with equal configurations and equal obligations have
        identical futures (Theorem B.1 — the machine is deterministic
        and the scheduler is memoryless beyond these fields); the
        subsumption table (:mod:`repro.engine.subsume`) compares them
        component-wise under its weakening order instead of comparing
        this tuple directly.
        """
        return (frozenset(self.delayed), frozenset(self.deferred),
                frozenset(self.sleep), self.steps, self.fetches)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MachineState(pc={self.config.pc}, "
                f"|schedule|={len(self.schedule)}, steps={self.steps})")
