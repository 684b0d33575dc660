"""Worst-case schedule exploration (Section 4.1 / Definition B.18).

Pitchfork does not enumerate *all* schedules — that set is astronomically
large.  It explores the *tool schedules* DT(n), which Theorem B.20 proves
sound: if any schedule within speculation bound n leaks, some tool
schedule leaks.

The construction, exactly as Definition B.18 prescribes:

* fetch eagerly until the reorder buffer holds ``bound`` entries;
* ``op`` / ``load``: execute immediately after fetch;
* ``store``: resolve the data immediately; **choice point** — resolve the
  address now, or *defer* it (the deferred-address arm generates every
  store-to-load forwarding outcome, including Spectre v4's
  stale-from-memory reads; deferral is disabled when
  ``fwd_hazards=False``, the paper's "without forwarding hazard
  detection" mode);
* ``br``: **choice point** — fetch the correct arm (resolved immediately)
  or the wrong arm (resolution delayed until the branch is the oldest
  entry of a full buffer: the maximal speculation window);
* when the buffer is full (or there is nothing left to fetch), the oldest
  entry is resolved and retired, triggering any delayed rollbacks.

Calls and returns are fetched along the RSB prediction; their embedded
return-address store and load take part in the store-address choice
points — that is exactly how the OpenSSL MEE-CBC gadget (Fig 10) is
found.  Aliasing-predictor exploration (``execute i: fwd j``, §3.5) is an
optional extension the original tool did not implement.

The explorer runs the *concrete* machine with labelled values: by
Corollary B.10, a secret-labelled observation under any explored schedule
witnesses an SCT violation for sequentially-CT programs (and
:mod:`repro.core.sct` offers the full two-trace Definition 3.1 check).

Execution engine
----------------

The DFS runs on :class:`repro.engine.ExecutionEngine`.  Each live arm is
a :class:`repro.engine.MachineState`: the (immutable) configuration plus
persistent cons-list logs for the schedule, trace and pending
violations, so a fork is O(1) and two sibling arms share their entire
common history — nothing is re-executed or copied when the scheduler
forks.  The engine also caches trial steps: Definition B.18's "is this
directive enabled here?" probes and the subsequent commit of the chosen
arm evaluate each machine rule once, not twice.  The DFS fork structure
itself is preserved for downstream consumers (prefix-shared symbolic
replay) by :func:`repro.pitchfork.schedules.enumerate_schedule_tree`.

Partial-order reduction
-----------------------

``options.prune`` selects how much of the schedule space's redundancy
is cut (see :mod:`repro.engine.por` and DESIGN.md):

* ``"none"`` — the letter of Definition B.18: every store-address
  deferral is an explicit fork and rolled-back paths continue to
  completion.  Maximal, redundant, the differential baseline;
* ``"sleepset"`` (default) — deferral forks only where the store's
  address may alias an in-flight load (the independence argument) plus
  branch-misprediction rollback joins.  Byte-identical to the seed
  explorer's enumeration;
* ``"full"`` — additionally caps every *covered* speculation window at
  its rollback (store-forwarding hazards, aliasing-prediction
  validations, mispredicted jmpi/ret redirects whose correct arm was
  forked) and collapses degenerate fork arms that step to identical
  configurations.

All levels flag the same violation observations (the Mazurkiewicz-class
argument; pinned by ``tests/test_por_equivalence.py``), and pruning
composes with sharding — shard prefixes record the pruning
pseudo-actions, so a worker resumes with the exact sleep state of the
split.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Set, Tuple, Union)

from ..core.config import Config
from ..core.directives import Directive, Execute, Fetch, Retire, Schedule
from ..core.errors import ReproError, StuckError
from ..core.isa import Br, Jmpi, Ret
from ..core.machine import Machine, RSP
from ..core.observations import (Observation, Rollback, Trace,
                                 is_secret_dependent)
from ..core.rob import resolve_operands
from ..core.transient import (TBr, TCallMarker, TFence, TJmpi, TJump, TLoad,
                              TOp, TRetMarker, TStore, TValue)
from ..core.values import BOTTOM, Value
from ..engine import (EngineStats, ExecutionEngine, MachineState,
                      PruningStats, SeenStates, SubsumptionStats,
                      make_frontier)
from ..engine.mcts import (DEFAULT_EXPLORATION, DEFAULT_PLAYOUT_DEPTH,
                           validate_mcts)
from ..engine.por import drop_dead_entries, hazard_load, validate_prune
from ..engine.subsume import validate_subsume
from ..obs import SearchTelemetry, ambient_tracer, validate_telemetry


def validate_budget(budget_seconds: Optional[float]) -> None:
    """Validate a wall-clock budget (shared by every options type)."""
    if budget_seconds is None:
        return
    if not isinstance(budget_seconds, (int, float)) or \
            isinstance(budget_seconds, bool) or \
            not math.isfinite(budget_seconds) or budget_seconds <= 0:
        raise ValueError(f"budget_seconds must be a finite positive "
                         f"number of seconds, got {budget_seconds!r}")


@dataclass(frozen=True)
class ExplorationOptions:
    """Tuning knobs mirroring the paper's evaluation procedure (§4.2.1)."""

    bound: int = 20            #: speculation bound = max reorder-buffer size
    fwd_hazards: bool = True   #: explore deferred store addresses (v4 mode)
    explore_aliasing: bool = False  #: §3.5 extension: execute i: fwd j
    #: Search-order strategy for the frontier (see
    #: :mod:`repro.engine.frontier`): "dfs" (the seed order), "bfs",
    #: "random", "coverage".  Theorem B.20 makes the explored *set*
    #: order-invariant; only enumeration order (and which paths survive
    #: a cap) changes.
    strategy: str = "dfs"
    #: RNG seed for stochastic strategies ("random"); recorded so runs
    #: reproduce path-for-path.
    seed: int = 0
    #: extension: mistrained indirect-branch targets to explore (Spectre
    #: v2); the original tool does not explore these (§4, "Pitchfork only
    #: exercises a subset of our semantics").
    jmpi_targets: Tuple[int, ...] = ()
    #: extension: attacker-supplied return targets on RSB underflow
    #: (ret2spec); likewise not explored by the original tool.
    rsb_targets: Tuple[int, ...] = ()
    #: Treat every branch condition as statically unknown: both arms are
    #: fetched and resolution is always delayed to the window's end.
    #: This makes the generated schedules input-independent — the mode
    #: the symbolic back end (repro.pitchfork.symex) needs, since the
    #: "correct" arm varies with the symbolic inputs.
    assume_unknown_branches: bool = False
    max_paths: int = 20_000    #: cap on explored paths
    max_fetches: int = 2_000   #: per-path fetched-instruction budget
    max_steps: int = 40_000    #: per-path step budget
    #: Partial-order reduction level: "none" (raw Definition B.18),
    #: "sleepset" (the default — the seed enumeration), or "full"
    #: (window capping on covered rollbacks + degenerate-arm collapse).
    #: See :mod:`repro.engine.por`.
    prune: str = "sleepset"
    #: Redundant-state subsumption (see :mod:`repro.engine.subsume`):
    #: prune fork arms whose configuration was already explored with
    #: the same or weaker residual obligations.  Orthogonal to
    #: ``prune`` — POR cuts equivalent *schedules*, this cuts
    #: re-converged *states* — and off by default so the default
    #: enumeration (and its path/schedule identities) is unchanged.
    subsume: bool = False
    #: Anytime mode: wall-clock budget in seconds.  When set, the
    #: explorer stops popping at the deadline, marks the result
    #: ``truncated`` (budget expiry is a coverage failure, never a clean
    #: verdict) and reports honest coverage in ``result.anytime``.
    #: None (the default) disables the deadline entirely.
    budget_seconds: Optional[float] = None
    #: UCT exploration constant for ``strategy="mcts"`` (see
    #: :mod:`repro.engine.mcts`); ignored by other strategies.
    mcts_c: float = DEFAULT_EXPLORATION
    #: Static-playout lookahead depth for ``strategy="mcts"``; ignored
    #: by other strategies.
    mcts_playout: int = DEFAULT_PLAYOUT_DEPTH
    #: Search telemetry (see :mod:`repro.obs.telemetry`): accumulate
    #: the per-fetch-PC pop heatmap and per-fork-level schedule
    #: histogram and attach them to the result.  Pure counters over
    #: the run the explorer performs anyway — never changes which
    #: schedules are explored — and off by default so defaulted store
    #: keys are unchanged.
    telemetry: bool = False

    def __post_init__(self):
        validate_prune(self.prune)
        validate_subsume(self.subsume)
        validate_budget(self.budget_seconds)
        validate_mcts(self.mcts_c, self.mcts_playout)
        validate_telemetry(self.telemetry)


@dataclass(frozen=True)
class Violation:
    """A flagged secret-dependent observation."""

    observation: Observation
    step_index: int            #: position in the witnessing schedule
    directive: Directive
    buffer_index: Optional[int]
    schedule: Schedule         #: the witnessing schedule prefix
    trace: Trace               #: observations up to and including this one

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Violation({self.observation!r} at step {self.step_index} "
                f"via {self.directive!r})")


@dataclass(frozen=True)
class PathResult:
    """One completely explored tool schedule."""

    schedule: Schedule
    trace: Trace
    final: Config
    violations: Tuple[Violation, ...]
    complete: bool             #: False if a per-path budget was hit


@dataclass(frozen=True)
class ShardStats:
    """One shard of a sharded exploration (see
    :class:`~repro.pitchfork.sharding.ShardedExplorer`)."""

    index: int                 #: position in deterministic merge order
    prefix_len: int            #: schedule-prefix actions replayed
    paths_explored: int
    violations: int
    states_stepped: int        #: schedule steps applied (incl. replay)
    truncated: bool
    wall_time: float


@dataclass(frozen=True)
class AnytimeStats:
    """Honest coverage accounting for a wall-clock-budgeted run.

    The anytime contract: a budgeted run may stop early, but it must
    say so — how much of the budget was consumed, whether the deadline
    actually fired, how many paths completed versus how many frontier
    items were still pending, and (when a violation was found) how long
    the first one took.  A deadline-truncated run is *never* reported
    clean; ``--check`` maps it to the coverage-failure exit (2).
    """

    budget_seconds: float      #: the configured budget
    budget_consumed: float     #: wall seconds actually spent
    deadline_hit: bool         #: did the deadline stop the run?
    paths_explored: int        #: completed paths within the budget
    frontier_remaining: int    #: pending fork arms left unexplored
    first_violation_time: Optional[float] = None  #: seconds to first hit

    def to_dict(self) -> dict:
        return {
            "budget_seconds": self.budget_seconds,
            "budget_consumed": self.budget_consumed,
            "deadline_hit": self.deadline_hit,
            "paths_explored": self.paths_explored,
            "frontier_remaining": self.frontier_remaining,
            "first_violation_time": self.first_violation_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AnytimeStats":
        return cls(budget_seconds=data["budget_seconds"],
                   budget_consumed=data["budget_consumed"],
                   deadline_hit=data["deadline_hit"],
                   paths_explored=data["paths_explored"],
                   frontier_remaining=data["frontier_remaining"],
                   first_violation_time=data.get("first_violation_time"))


@dataclass
class ExplorationResult:
    """Everything the explorer found."""

    paths: List[PathResult] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    paths_explored: int = 0
    #: Naive step count: the sum over explored paths of their full
    #: root-to-end length — what fork-by-copy re-execution would cost.
    states_stepped: int = 0
    truncated: bool = False    #: max_paths was hit
    #: Paths cut short by a per-path budget (max_steps / max_fetches).
    exhausted_paths: int = 0
    #: Distinct schedule steps actually applied (DFS tree edges): the
    #: shared-prefix steps every forked sibling inherits for free.
    applied_steps: int = 0
    #: ``states_stepped - applied_steps``: steps completed paths reused
    #: from shared prefixes instead of re-executing.
    states_reused: int = 0
    #: The execution engine's counters for this exploration.
    engine: Optional[EngineStats] = None
    #: Per-shard accounting when the exploration was sharded (empty for
    #: single-process runs).
    shards: Tuple[ShardStats, ...] = ()
    #: Partial-order-reduction accounting (see :mod:`repro.engine.por`):
    #: the pruning level, completed representatives, and pruned subtree
    #: roots.
    pruning: Optional[PruningStats] = None
    #: Redundant-state-subsumption accounting (see
    #: :mod:`repro.engine.subsume`): states recorded and fork arms
    #: pruned as already-covered.
    subsumption: Optional[SubsumptionStats] = None
    #: Anytime coverage accounting; present iff ``budget_seconds`` was
    #: set on the options (honest even when the run beat the deadline).
    anytime: Optional[AnytimeStats] = None
    #: Search-telemetry section (see :mod:`repro.obs.telemetry`);
    #: present iff ``options.telemetry`` was set.  Already serialised
    #: (string keys) — it crosses the shard boundary and lands in the
    #: report verbatim.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def secure(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class _DelayJmpi:
    """Pseudo-action: postpone a mispredicted indirect jump.

    A ``jmpi`` whose computed target disagrees with its guess supports
    two attack schedules: executing it *now* redirects fetch to the
    actual target immediately (the speculative stale return of Fig 10),
    while *delaying* it keeps executing the guessed path (the mistrained
    window of Fig 11).  The explorer forks on both.
    """

    index: int


@dataclass(frozen=True)
class _Defer:
    """Pseudo-action (``prune="none"``): take the "defer" arm of §4.1's
    store-address choice point — leave this store's address pending
    until the oldest-entry sweep forces it."""

    index: int


@dataclass(frozen=True)
class _Sleep:
    """Pseudo-action (``prune="full"``): record a covered outcome in
    the path's sleep set (see :mod:`repro.engine.por`).

    ``entry`` is ``("fwd", store, load)`` or ``("redirect", index)``; a
    ``("redirect", None)`` resolves to the buffer's max index when
    applied (the just-fetched control transfer).  Carried inside fork
    arms so shard prefixes replay the exact sleep state of the split.
    """

    entry: tuple


_Action = Union[Directive, _DelayJmpi, _Defer, _Sleep]


def _state_pc(state: "MachineState") -> int:
    """Fetch-PC ranking key for the coverage-guided frontier."""
    return state.config.pc


@dataclass(frozen=True)
class _PendingViolation:
    """A violation recorded mid-path; its schedule/trace tuples are
    materialized from the shared logs only when the path completes."""

    observation: Observation
    step_index: int
    directive: Directive
    buffer_index: Optional[int]
    schedule_log: object       #: Log up to and including the directive
    trace_log: object          #: Log up to and including the observation

    def materialize(self) -> Violation:
        return Violation(self.observation, self.step_index, self.directive,
                         self.buffer_index, self.schedule_log.materialize(),
                         self.trace_log.materialize())


class Explorer:
    """Frontier-driven exploration of the tool schedules DT(bound).

    Paths are :class:`repro.engine.MachineState` values; forking is
    O(1) and all schedule/trace/violation history is shared between
    sibling arms.  The visit order comes from
    ``options.strategy`` (see :mod:`repro.engine.frontier`); the
    default ``"dfs"`` reproduces the seed explorer's enumeration order
    byte for byte.  After :meth:`explore`, :attr:`engine` holds the
    engine (with step/fork/reuse counters) of the last run.
    """

    def __init__(self, machine: Machine, options: ExplorationOptions,
                 clock: Optional[Callable[[], float]] = None):
        self.machine = machine
        self.options = options
        self.engine: ExecutionEngine = ExecutionEngine(machine)
        #: Monotonic clock for budget deadlines and first-violation
        #: wall times; injectable so anytime behaviour is testable with
        #: a fake clock instead of time.sleep.
        self._clock = clock if clock is not None else time.monotonic
        #: The ambient span recorder (NULL_TRACER unless a
        #: tracing_context encloses this construction).  Checked once
        #: per frontier pop — never inside the step loop.
        self._tracer = ambient_tracer()
        #: Search-telemetry accumulator (None when the knob is off).
        self._telemetry: Optional[SearchTelemetry] = \
            SearchTelemetry() if options.telemetry else None
        self._applied = 0  #: schedule steps applied in the current run
        self._skipped = 0  #: pruned subtree roots (joins + collapsed arms)
        self._pops = 0     #: frontier pops in the current run
        #: run start / budget deadline on the injected clock.  Armed
        #: lazily by explore_from only when unset, so the sharded
        #: merge can pin one shared deadline across sequential local
        #: jobs (each job must not restart the budget).
        self._started: Optional[float] = None
        self._deadline: Optional[float] = None
        self._deadline_hit = False
        self._frontier_remaining = 0
        #: the SeenStates table (see repro.engine.subsume), one per
        #: exploration — shard workers each build their own over their
        #: subtree and only the counters are merged
        self._seen: Optional[SeenStates] = \
            SeenStates() if options.subsume else None
        #: pending violations from subsumed arms, flushed (and drained)
        #: into the result at _finalize: pruning an arm must not drop
        #: observations its *prefix* already produced
        self._subsumed_notes: List[_PendingViolation] = []

    # -- driving ------------------------------------------------------------

    def explore(self, initial: Config,
                stop_at_first: bool = False) -> ExplorationResult:
        """Explore the tool schedules from an initial configuration."""
        self.engine = ExecutionEngine(self.machine)
        self._applied = 0
        self._skipped = 0
        self._pops = 0
        self._started = None
        self._deadline = None
        self._deadline_hit = False
        self._frontier_remaining = 0
        self._seen = SeenStates() if self.options.subsume else None
        self._subsumed_notes = []
        self._telemetry = SearchTelemetry() if self.options.telemetry \
            else None
        return self.explore_from([MachineState(initial)], stop_at_first)

    def explore_from(self, states: List[MachineState],
                     stop_at_first: bool = False) -> ExplorationResult:
        """Explore onward from pre-seeded states (shard workers resume a
        replayed subtree root here).  Unlike :meth:`explore` this does
        not reset the engine, so prefix-replay accounting survives."""
        result = ExplorationResult()
        if self._started is None:
            self._started = self._clock()
            if self.options.budget_seconds is not None:
                self._deadline = self._started + self.options.budget_seconds
        frontier = make_frontier(self.options.strategy,
                                 seed=self.options.seed,
                                 pc_of=_state_pc,
                                 program=self.machine.program,
                                 exploration=self.options.mcts_c,
                                 playout_depth=self.options.mcts_playout)
        frontier.extend(states)
        tracer = self._tracer
        telemetry = self._telemetry
        run_started = tracer.start() if tracer.enabled else 0.0
        while frontier:
            # Deadline checks sit at pop boundaries only, so a run with
            # an injected fake clock is deterministic: the same pops
            # happen before the same tick regardless of host speed.
            if self._deadline is not None and \
                    self._clock() >= self._deadline:
                result.truncated = True
                self._deadline_hit = True
                break
            if result.paths_explored >= self.options.max_paths:
                result.truncated = True
                break
            path = frontier.pop()
            self._pops += 1
            if telemetry is not None:
                telemetry.record_pop(path.config.pc)
            if tracer.enabled:
                forks = self._run_path_traced(path, frontier)
            else:
                forks = self._run_path(path)
            if forks is None:
                if telemetry is not None:
                    telemetry.record_schedule(path.depth)
                result.paths_explored += 1
                result.states_stepped += path.steps
                path_result = self._materialize(path)
                result.paths.append(path_result)
                result.violations.extend(path_result.violations)
                if not path_result.complete:
                    result.exhausted_paths += 1
                hit = bool(path_result.violations)
                frontier.reward(path, hit)
                if hit:
                    self.engine.stats.record_first_violation(
                        self._pops, self._applied,
                        self._clock() - self._started)
                if stop_at_first and hit:
                    break
            else:
                if stop_at_first and self._subsumed_notes:
                    # A subsumed arm carried a pending violation: the
                    # finding exists, stop exactly as a completed
                    # violating path would have.
                    self.engine.stats.record_first_violation(
                        self._pops, self._applied,
                        self._clock() - self._started)
                    break
                frontier.extend(forks)
        self._frontier_remaining = len(frontier)
        result = self._finalize(result)
        if tracer.enabled:
            tracer.add("explore", "explore", run_started, {
                "strategy": self.options.strategy,
                "pops": self._pops,
                "paths": result.paths_explored,
                "applied_steps": result.applied_steps,
                "violations": len(result.violations),
                "truncated": result.truncated})
        return result

    def _finalize(self, result: ExplorationResult) -> ExplorationResult:
        result.applied_steps = self._applied
        result.states_reused = max(0, result.states_stepped - self._applied)
        self.engine.count_reused(result.states_reused)
        if self._subsumed_notes:
            # Violations observed on prefixes of subsumed arms, appended
            # after the path-ordered violations (and drained: a sharded
            # run finalizes the same explorer once per local job).
            result.violations.extend(
                note.materialize() for note in self._subsumed_notes)
            self._subsumed_notes = []
        result.engine = self.engine.stats.snapshot()
        result.pruning = PruningStats(self.options.prune,
                                      classes_explored=result.paths_explored,
                                      schedules_skipped=self._skipped)
        seen = self._seen
        result.subsumption = (SubsumptionStats(False) if seen is None
                              else seen.stats(True))
        if self.options.budget_seconds is not None:
            result.anytime = AnytimeStats(
                budget_seconds=self.options.budget_seconds,
                budget_consumed=self._clock() - self._started,
                deadline_hit=self._deadline_hit,
                paths_explored=result.paths_explored,
                frontier_remaining=self._frontier_remaining,
                first_violation_time=result.engine.first_violation_wall)
        if self._telemetry is not None:
            # Cumulative per explorer, like the engine counters: a
            # sharded run's sequential local jobs share this
            # accumulator and the merge rebuilds the section once.
            result.telemetry = self._telemetry.to_section(
                self._clock() - self._started)
        return result

    @staticmethod
    def _materialize(path: MachineState) -> PathResult:
        return PathResult(
            path.schedule.materialize(), path.trace.materialize(),
            path.config.snapshot(),
            tuple(p.materialize() for p in path.notes),
            complete=not path.exhausted)

    def _run_path(self,
                  path: MachineState) -> Optional[List[MachineState]]:
        """Advance until the path terminates (None) or forks (list)."""
        arms = self.advance_to_fork(path)
        if arms is None:
            return None
        self.engine.count_fork(len(arms))
        return [clone for clone, _actions in self.expand(path, arms)]

    def _run_path_traced(self, path: MachineState,
                         frontier) -> Optional[List[MachineState]]:
        """:meth:`_run_path` under a span: one per frontier pop, its
        args the engine-counter *deltas* this segment caused — step
        batches, trial-cache hits, POR skips, subsumption probes —
        plus the frontier's scores for the pop when the strategy ranks
        (mcts prior/UCT).  Instrumenting here, at the pop seam, keeps
        the per-machine-step path untouched."""
        tracer = self._tracer
        stats = self.engine.stats
        ts = tracer.start()
        pc = path.config.pc
        steps0 = stats.steps
        hits0 = stats.cache_hits + stats.stuck_hits
        skips0 = self._skipped
        subsumed0 = stats.states_subsumed
        forks = self._run_path(path)
        args = {"pop": self._pops, "pc": pc, "depth": path.depth,
                "steps": stats.steps - steps0,
                "cache_hits": stats.cache_hits + stats.stuck_hits - hits0,
                "por_skips": self._skipped - skips0,
                "subsumed": stats.states_subsumed - subsumed0,
                "arms": 0 if forks is None else len(forks)}
        info = getattr(frontier, "last_pop_info", None)
        if info is not None:
            args.update(info)
        tracer.add("path", "explore", ts, args)
        return forks

    def expand(self, path: MachineState, arms: List[List[_Action]]
               ) -> List[Tuple[MachineState, Tuple[_Action, ...]]]:
        """Apply each fork arm to a fork of ``path``.

        Returns (clone, actions applied) pairs in arm order — the
        sharded splitter needs the actions to build job prefixes, and
        this is the single place both drivers collapse degenerate arms:
        under ``prune="full"``, an arm whose resulting configuration
        equals an earlier sibling's (with no observations of its own)
        heads an identical subtree — Theorem B.1 determinism — and is
        dropped as a duplicate representative.
        """
        base_trace = len(path.trace)
        expanded = []
        for arm in arms:
            clone = path.fork()
            clone.depth = path.depth + 1
            applied: List[_Action] = []
            for action in arm:
                if not self._apply(clone, action):
                    break
                applied.append(action)
            expanded.append((clone, tuple(applied)))
        if self.options.prune == "full" and len(expanded) >= 2:
            kept: List[Tuple[MachineState, Tuple[_Action, ...]]] = []
            for clone, applied in expanded:
                if len(clone.trace) == base_trace and any(
                        self._same_state(clone, other)
                        for other, _a in kept):
                    self._skipped += 1
                    continue
                kept.append((clone, applied))
            expanded = kept
        if self._seen is None:
            return expanded
        return self._subsume_arms(path, expanded)

    def _subsume_arms(self, path: MachineState,
                      expanded: List[Tuple[MachineState, Tuple[_Action, ...]]]
                      ) -> List[Tuple[MachineState, Tuple[_Action, ...]]]:
        """Consult the SeenStates table for each live fork arm.

        An arm whose post-fork state was already recorded with the same
        or weaker residual obligations is dropped — its subtree's
        observations are covered by the canonical state's subtree (see
        :mod:`repro.engine.subsume`).  Pending violations the arm's own
        actions produced are *not* covered (they are past, not future),
        so they are flushed to ``_subsumed_notes``; and when every arm
        of a fork is dropped, the shared prefix would never reach a
        completed path, so its pending violations are flushed too.
        Finished/exhausted arms pass through untouched: an exhausted
        state explored nothing and must never become (or be compared
        against) a canonical covering entry.
        """
        seen = self._seen
        base_notes = len(path.notes)
        kept: List[Tuple[MachineState, Tuple[_Action, ...]]] = []
        for clone, applied in expanded:
            if clone.finished or clone.exhausted:
                kept.append((clone, applied))
                continue
            if seen.subsumes(clone):
                self.engine.stats.states_subsumed += 1
                notes = list(clone.notes)
                self._subsumed_notes.extend(notes[base_notes:])
                continue
            seen.record(clone)
            kept.append((clone, applied))
        if not kept and expanded and base_notes:
            # Every arm subsumed: no descendant path will materialize
            # the shared prefix's pending violations — flush them here.
            self._subsumed_notes.extend(path.notes)
        return kept

    @staticmethod
    def _same_state(a: MachineState, b: MachineState) -> bool:
        """Do two sibling arms head identical subtrees?  Requires equal
        configurations, equal observation history, and equal driver
        flags; cheap discriminators first, structural equality last."""
        if a.finished != b.finished or a.exhausted != b.exhausted or \
                len(a.trace) != len(b.trace):
            return False
        ca, cb = a.config, b.config
        if ca is cb:
            return True
        if ca.pc != cb.pc or len(ca.buf) != len(cb.buf):
            return False
        return ca == cb

    def advance_to_fork(self, path: MachineState,
                        record: Optional[List[_Action]] = None
                        ) -> Optional[List[List[_Action]]]:
        """Apply forced moves until the next choice point.

        Returns the fork's arms, or None when the path terminated
        (finished, stuck, budget-exhausted, or nothing left to do).
        ``record`` collects every applied action — the sharded splitter
        uses it to build self-contained job prefixes, so this is the
        single copy of the scheduler drive loop both modes share.
        """
        while True:
            if path.exhausted or path.finished:
                return None
            if path.steps >= self.options.max_steps or \
                    path.fetches >= self.options.max_fetches:
                path.exhausted = True
                return None
            arms = self._next_actions(path)
            if arms is None:
                return None  # terminal: nothing to fetch, buffer empty
            if len(arms) != 1:
                return arms
            for action in arms[0]:
                if not self._apply(path, action):
                    return None
                if record is not None:
                    record.append(action)

    def _apply(self, path: MachineState, action: _Action) -> bool:
        """Apply one action; False if the path ended (stuck)."""
        if isinstance(action, _DelayJmpi):
            path.delayed.add(action.index)
            # The Execute-now sibling arm explores the redirect outcome,
            # so the eventual rollback of this delayed jump is covered.
            path.sleep.add(("redirect", action.index))
            return True
        if isinstance(action, _Defer):
            path.deferred.add(action.index)
            return True
        if isinstance(action, _Sleep):
            entry = action.entry
            if entry[0] == "redirect" and entry[1] is None:
                entry = ("redirect", path.config.buf.max_index())
            path.sleep.add(entry)
            return True
        try:
            config, leak = self.engine.step(path.config, action)
        except StuckError:
            # Only trial-checked directives reach here, so this is a
            # safety net; end the path.
            path.exhausted = True
            return False
        path.steps += 1
        self._applied += 1
        if isinstance(action, Fetch):
            path.fetches += 1
        schedule = path.schedule.append(action)
        if leak:
            trace = path.trace
            for obs in leak:
                trace = trace.append(obs)
                if is_secret_dependent(obs):
                    buffer_index = action.index \
                        if isinstance(action, Execute) else None
                    path.notes = path.notes.append(_PendingViolation(
                        obs, len(path.schedule), action, buffer_index,
                        schedule, trace))
            path.trace = trace
            if any(isinstance(o, Rollback) for o in leak):
                # Join *before* cleaning up: the squashed indices are
                # exactly what identifies the covered outcome.
                if self._rollback_join(path, action, config):
                    path.finished = True
                    self._skipped += 1
                path.delayed = {i for i in path.delayed
                                if i in config.buf}
                if path.deferred:
                    path.deferred = {i for i in path.deferred
                                     if i in config.buf}
                if path.sleep:
                    path.sleep = drop_dead_entries(path.sleep, config.buf)
        elif isinstance(action, Retire) and (path.sleep or path.deferred):
            # Retirement frees indices for reuse after a drain; stale
            # entries must not outlive their instructions.
            if path.deferred:
                path.deferred = {i for i in path.deferred
                                 if i in config.buf}
            path.sleep = drop_dead_entries(path.sleep, config.buf)
        path.schedule = schedule
        path.config = config
        return True

    def _rollback_join(self, path: MachineState, action: _Action,
                       config: Config) -> bool:
        """Does the sibling fork arm cover this rollback's continuation?

        The post-rollback configuration re-converges with the arm that
        predicted (or forwarded) correctly — modulo resolutions of
        *older* entries that commute past the squash (transient work
        never writes memory; only retirement does), so the sibling's
        subtree explores an equivalent continuation (Thm B.7 plus the
        commutation lemma, DESIGN.md).  The join fires only when that
        sibling was actually generated:

        * a delayed mispredicted branch — the correct-guess arm is
          always forked (``prune`` ≥ sleepset; this is the seed
          explorer's pruning, now named);
        * a mispredicted ``jmpi`` whose redirect is in the sleep set —
          the actual-target fetch arm or the Execute-now arm existed
          (``prune="full"``);
        * an aliasing-predicted load failing validation — the plain
          execution arm always exists alongside §3.5's guessed-forward
          arms (``prune="full"``);
        * a store-address hazard whose (store, load) pair is in the
          sleep set — the forwarding arm was generated at the load's
          fork (``prune="full"``).
        """
        prune = self.options.prune
        if prune == "none" or not isinstance(action, Execute):
            return False
        pre = path.config.buf.get(action.index)
        if isinstance(pre, TBr):
            return True
        if prune != "full":
            return False
        if isinstance(pre, TJmpi):
            return ("redirect", action.index) in path.sleep
        if isinstance(pre, TLoad) and pre.pred is not None:
            return True
        if isinstance(pre, TStore) and action.part == "addr":
            store = config.buf.get(action.index)
            if not isinstance(store, TStore) or store.addr is None:
                return False
            try:
                a = self.machine.evaluator.concretize(store.addr)
            except ReproError:
                return False
            k = hazard_load(path.config, action.index, a)
            if k is None:
                return False
            victim = path.config.buf[k]
            if victim.dep == action.index and victim.addr != a:
                # wrong-fwd hazard: the load had guessed-forwarded from
                # this store (§3.5) and the addresses now disagree; its
                # plain-execution sibling arm always exists.
                return True
            return ("fwd", action.index, k) in path.sleep
        return False

    # -- the scheduler: Definition B.18 ----------------------------------

    def _next_actions(self,
                      path: MachineState) -> Optional[List[List[_Action]]]:
        """The next action arm(s) DT(bound) performs from this state.

        Each arm is a *sequence* of actions; a single arm is a forced
        move, several arms are a choice point, None means the path has
        terminated.
        """
        config = path.config

        eager = self._eager_actions(path)
        if eager is not None:
            return eager

        if len(config.buf) < self.options.bound:
            fetches = self._fetch_choices(config)
            if fetches:
                return fetches

        if config.buf:
            return [[self._oldest_move(config)]]

        return None

    def _eager_actions(self,
                       path: MachineState) -> Optional[List[List[_Action]]]:
        """Definition B.18's "immediately after fetch" work, plus the
        choice points (per-load forwarding outcomes, aliasing
        prediction, mispredicted-jmpi timing)."""
        config = path.config
        for i, entry in config.buf.items():
            # Exact class tests: this sweep runs on every step, and most
            # entries (resolved values, jumps, markers) match no arm.
            kind = type(entry)
            if kind is TOp:
                if self._can(config, Execute(i)):
                    return [[Execute(i)]]
            elif kind is TLoad and entry.pred is None:
                arms = self._load_arms(config, i, entry)
                if arms is None:
                    continue
                if self.options.explore_aliasing:
                    arms += [[Execute(i, j)]
                             for j, other in config.buf.items()
                             if j < i and isinstance(other, TStore)
                             and other.value_resolved()
                             and self._can(config, Execute(i, j))]
                return arms
            elif kind is TStore:
                if not entry.value_resolved():
                    if self._can(config, Execute(i, "value")):
                        return [[Execute(i, "value")]]
                elif not entry.addr_resolved():
                    # Without forwarding-hazard exploration, store
                    # addresses resolve in order, immediately; with it,
                    # they stay pending until a load's forwarding arm or
                    # the oldest-entry sweep resolves them (§4.1).
                    if not self.options.fwd_hazards and \
                            self._can(config, Execute(i, "addr")):
                        return [[Execute(i, "addr")]]
                    # prune="none": §4.1's deferral is the *letter* of
                    # the definition — "resolve the address now, or
                    # defer it" is a choice point for every store.  The
                    # reduced levels fork only where the address may
                    # alias an in-flight load (the load-site arms
                    # below), which is the independence argument.
                    if self.options.fwd_hazards and \
                            self.options.prune == "none" and \
                            i not in path.deferred and \
                            self._can(config, Execute(i, "addr")):
                        return [[Execute(i, "addr")], [_Defer(i)]]
                    # Reduced levels rest on an independence argument:
                    # deferring a store's address resolution commutes
                    # with every other action, so only the aliasing
                    # choice points (the load-site arms) need forks.
                    # That argument breaks when the address *reads an
                    # in-flight value*: the resolution observation then
                    # leaks a possibly-transient value, and deferring
                    # it past the producer's hazard squash silently
                    # drops the leak (surfaced by the repro.sps.diff
                    # differential sweep) — so the timing fork comes
                    # back for exactly those stores.
                    if self.options.fwd_hazards and \
                            self.options.prune != "none" and \
                            i not in path.deferred and \
                            self._addr_reads_inflight(config, i,
                                                      entry.args) and \
                            self._can(config, Execute(i, "addr")):
                        return [[Execute(i, "addr")], [_Defer(i)]]
            elif kind is TBr:
                if self.options.assume_unknown_branches:
                    continue  # all branches delayed in symbolic mode
                # Resolve immediately only when the guess was correct
                # (mispredicted branches are delayed until oldest) and no
                # older fence blocks execution.
                arm = self._actual_br_target(config, i, entry)
                if arm is not None and arm == entry.guess and \
                        self._can(config, Execute(i)):
                    return [[Execute(i)]]
            elif kind is TJmpi:
                if i in path.delayed:
                    continue
                target = self._actual_jmpi_target(config, i, entry)
                if target is None or not self._can(config, Execute(i)):
                    continue
                if target == entry.guess:
                    return [[Execute(i)]]
                # Mispredicted: both "speculatively return now" (Fig 10)
                # and "keep running the guessed path" (Fig 11) matter.
                return [[Execute(i)], [_DelayJmpi(i)]]
        return None

    def _load_arms(self, config: Config, i: int,
                   entry: TLoad) -> Optional[List[List[_Action]]]:
        """§4.1's per-load forwarding outcomes.

        For load l, find the prior in-flight stores that *would* resolve
        to l's address.  One arm per such store s_k: resolve addresses up
        to and including s_k (so s_k forwards to l), leaving younger
        matching stores pending; plus one arm where none resolve and l
        reads (possibly stale) memory — the Spectre v4 probe.  Already-
        resolved younger matching stores make earlier outcomes
        unreachable and are skipped.
        """
        if not self.options.fwd_hazards or self.options.prune == "none":
            # Raw B.18 mode: the forwarding outcomes arise from the
            # store-address deferral forks, not from load-site
            # lookahead — the load just executes when it can.
            if not self._can(config, Execute(i)):
                return None
            return [[Execute(i)]]
        addr = self._eventual_address(config, i, entry.args)
        if addr is None:
            return None  # operands pending; retry after more eager work
        matching: List[Tuple[int, bool]] = []   # (index, already_resolved)
        for j, other in config.buf.items():
            if j >= i:
                break
            if type(other) is not TStore:
                continue
            if other.addr is not None:
                if self.machine.evaluator.concretize(other.addr) == addr:
                    matching.append((j, True))
            else:
                other_addr = self._eventual_address(config, j, other.args)
                if other_addr == addr:
                    matching.append((j, False))
        full = self.options.prune == "full"
        arms: List[List[_Action]] = []
        unresolved_suffix_ok = True  # no resolved store younger than s_k
        for pos in range(len(matching) - 1, -1, -1):
            j, resolved = matching[pos]
            if not unresolved_suffix_ok:
                break
            arm: List[_Action] = []
            if not resolved:
                store = config.buf[j]
                if not store.value_resolved():
                    arm.append(Execute(j, "value"))
                arm.append(Execute(j, "addr"))
            arm.append(Execute(i))
            if full:
                # A younger pending matching store resolving later will
                # hazard-squash this load into *its* forwarding outcome
                # — the sibling arm for that store explores it.
                arm += [_Sleep(("fwd", m, i)) for m, res in matching
                        if m > j and not res]
            arms.append(arm)
            if resolved:
                # Outcomes where an older store forwards (or memory is
                # read) are unreachable past an already-resolved store.
                unresolved_suffix_ok = False
        if unresolved_suffix_ok:
            arm = [Execute(i)]  # no store resolves: read memory
            if full:
                arm += [_Sleep(("fwd", m, i)) for m, res in matching
                        if not res]
            arms.append(arm)
        # An older fence (or an unresolved dependency) may block every
        # arm right now; report "not yet" so the sweep makes progress
        # elsewhere and retries after the blocker clears.
        arms = [arm for arm in arms if self._can_sequence(config, arm)]
        if not arms:
            return None
        return arms

    def _can_sequence(self, config: Config, arm: List[_Action]) -> bool:
        current = config
        for action in arm:
            if not isinstance(action, Execute):
                return True
            stepped = self.engine.try_step(current, action)
            if stepped is None:
                return False
            current = stepped[0]
        return True

    def _addr_reads_inflight(self, config: Config, i: int, args) -> bool:
        """Does entry ``i``'s address read a register whose youngest
        assignment is still in flight?  Such a value may be transient
        (a speculatively forwarded load, or computation on one), so the
        timing of the address resolution — and hence whether its
        ``fwd`` observation happens before a rollback squashes the
        entry — is not schedule-independent."""
        buf = config.buf
        for rv in args:
            if not isinstance(rv, Value) and \
                    buf.producer_before(i, rv) is not None:
                return True
        return False

    def _eventual_address(self, config: Config, i: int,
                          args) -> Optional[int]:
        """The address buffer entry ``i`` will resolve to, if its
        operands are available now."""
        try:
            vals = resolve_operands(config.buf, i, config.regs, args)
        except KeyError:
            return None
        if vals is None:
            return None
        try:
            return self.machine.evaluator.concretize(
                self.machine.evaluator.address(vals))
        except ReproError:
            return None

    def _can(self, config: Config, d: Execute) -> bool:
        return self.engine.can(config, d)

    # -- fetch choices -------------------------------------------------------

    def _fetch_choices(self, config: Config) -> List[List[_Action]]:
        """The fetch fork's arms.  Under ``prune="full"``, a mistrained
        (wrong-target) arm whose *actual*-target sibling is also forked
        carries a redirect sleep entry: its eventual
        jmpi-execute-incorrect rollback re-converges with that sibling,
        so the window is capped there (``("redirect", None)`` resolves
        to the just-fetched entry's index when applied)."""
        covered = ([_Sleep(("redirect", None))]
                   if self.options.prune == "full" else [])
        instr = self.machine.program.get(config.pc)
        if instr is None:
            return []
        if isinstance(instr, Br):
            if self.options.assume_unknown_branches:
                return [[Fetch(True)], [Fetch(False)]]
            correct = self._correct_arm(config, instr)
            if correct is None:
                return [[Fetch(True)], [Fetch(False)]]
            return [[Fetch(correct)], [Fetch(not correct)]]
        if isinstance(instr, Jmpi):
            target = self._static_jmpi_target(config, instr)
            choices: List[List[_Action]] = \
                [] if target is None else [[Fetch(target)]]
            choices += [[Fetch(t)] + (covered if target is not None else [])
                        for t in self.options.jmpi_targets if t != target]
            return choices
        if isinstance(instr, Ret):
            if config.rsb.top() is BOTTOM and \
                    self.machine.rsb_policy == "directive":
                # The original tool does not explore attacker-chosen RSB
                # targets; by default follow the architectural return
                # address, plus any configured mistrained targets.
                target = self._actual_return(config)
                choices = [] if target is None else [[Fetch(target)]]
                choices += [[Fetch(t)] + (covered if target is not None
                                          else [])
                            for t in self.options.rsb_targets
                            if t != target]
                return choices
            return [[Fetch(None)]]
        return [[Fetch(None)]]

    def _correct_arm(self, config: Config, instr: Br) -> Optional[bool]:
        i = config.buf.max_index() + 1
        try:
            vals = resolve_operands(config.buf, i, config.regs, instr.args)
        except KeyError:
            return None
        if vals is None:
            return None
        cond = self.machine.evaluator.evaluate(instr.opcode, vals)
        return self.machine.evaluator.truth(cond)

    def _static_jmpi_target(self, config: Config,
                            instr: Jmpi) -> Optional[int]:
        i = config.buf.max_index() + 1
        try:
            vals = resolve_operands(config.buf, i, config.regs, instr.args)
        except KeyError:
            return None
        if vals is None:
            return None
        addr = self.machine.evaluator.address(vals)
        return self.machine.evaluator.concretize(addr)

    def _actual_return(self, config: Config) -> Optional[int]:
        i = config.buf.max_index() + 1
        try:
            vals = resolve_operands(config.buf, i, config.regs, (RSP,))
        except KeyError:
            return None
        if vals is None:
            return None
        addr = self.machine.evaluator.concretize(vals[0])
        target = config.mem.read(addr)
        try:
            return self.machine.evaluator.concretize(target)
        except ReproError:
            return None

    # -- resolved targets of in-flight control flow ---------------------------

    def _actual_br_target(self, config: Config, i: int,
                          entry: TBr) -> Optional[int]:
        vals = resolve_operands(config.buf, i, config.regs, entry.args)
        if vals is None:
            return None
        cond = self.machine.evaluator.evaluate(entry.opcode, vals)
        taken = self.machine.evaluator.truth(cond)
        return entry.targets[0] if taken else entry.targets[1]

    def _actual_jmpi_target(self, config: Config, i: int,
                            entry: TJmpi) -> Optional[int]:
        vals = resolve_operands(config.buf, i, config.regs, entry.args)
        if vals is None:
            return None
        addr = self.machine.evaluator.address(vals)
        return self.machine.evaluator.concretize(addr)

    # -- the full-buffer move -------------------------------------------------

    def _oldest_move(self, config: Config) -> Directive:
        """Definition B.18's full-buffer step: resolve or retire the
        oldest instruction (or its call/ret group)."""
        i = config.buf.min_index()
        entry = config.buf[i]
        if isinstance(entry, TStore):
            if not entry.value_resolved():
                return Execute(i, "value")
            if not entry.addr_resolved():
                return Execute(i, "addr")
            return Retire()
        if isinstance(entry, (TBr, TJmpi)):
            # Before a delayed (mispredicted) branch resolves and rolls
            # the window back, resolve the window's pending store
            # addresses: Definition B.18 includes the execute-addr arm
            # for every store, and a store whose *address* depends on a
            # secret leaks exactly here (``fwd a_sec``).
            for j, other in config.buf.items():
                if (type(other) is TStore and other.addr is None
                        and isinstance(other.src, Value)
                        and self._can(config, Execute(j, "addr"))):
                    return Execute(j, "addr")
            return Execute(i)
        if isinstance(entry, TOp):
            return Execute(i)
        if isinstance(entry, TLoad):
            return Execute(i)
        if isinstance(entry, (TValue, TJump, TFence)):
            return Retire()
        if isinstance(entry, (TCallMarker, TRetMarker)):
            span = 3 if isinstance(entry, TCallMarker) else 4
            for k in range(i + 1, i + span):
                member = config.buf.get(k)
                if isinstance(member, TStore):
                    if not member.value_resolved():
                        return Execute(k, "value")
                    if not member.addr_resolved():
                        return Execute(k, "addr")
                elif isinstance(member, (TOp, TJmpi, TLoad)):
                    return Execute(k)
            return Retire()
        raise StuckError(f"scheduler cannot progress past {entry!r}")
