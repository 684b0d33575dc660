"""The unified execution core every driver steps through.

:class:`ExecutionEngine` wraps a :class:`~repro.core.machine.Machine`
and is a drop-in replacement for it wherever a driver only needs
``step``/``enabled_directives``/``program``/``rsb_policy`` — the
Explorer, the sequential runner, the SCT two-trace product and the
metatheory checks all accept either.  On top of the raw
small-step relation it adds:

* **step accounting** (:class:`EngineStats`): how many times the
  machine relation was actually evaluated, how many forks the driver
  took, and how many steps were *reused* — served from a snapshot or a
  shared prefix instead of being re-executed;
* **a trial-step cache**: schedulers like Definition B.18 trial-step a
  directive to ask "is this enabled here?" and then immediately commit
  the same step.  Configurations are immutable and evaluation keeps no
  hidden state, so the step relation is a function of
  ``(configuration, directive)`` (Theorem B.1, determinism); the engine
  remembers the trial's successor and hands it back on commit instead
  of re-running the rule.

The cache is keyed on the configuration's *structural hash* (cached on
the configuration and computed incrementally by its components, so a
key costs an int lookup) with a full-equality confirm on the pinned
configuration at hit time.  Structural keying is sound for the same
reason the cache exists at all — the step relation is a function
of the configuration's *value* (Theorem B.1) — and it is what lets
sibling branches share trials: two arms that converge on equal
configurations hit each other's entries and receive the *same*
successor object, so their downstream states compare by pointer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..core.config import Config
from ..core.directives import Directive, Execute
from ..core.errors import StuckError
from ..core.machine import Machine
from ..core.observations import StepLeakage

__all__ = ["EngineStats", "ExecutionEngine"]

#: Entries kept in the trial-step cache before it is cleared wholesale.
#: A trial and its commit are at most one scheduler decision apart (a
#: decision trial-steps a handful of arms, then applies one), so a tiny
#: bound retains nearly every useful hit while keeping pinned
#: configurations — and allocation churn — negligible.
_CACHE_LIMIT = 512


@dataclass
class EngineStats:
    """Counters exposing the engine's work (and the work it avoided)."""

    steps: int = 0          #: machine step rules actually evaluated
    cache_hits: int = 0     #: commits/trials served from the step cache
    stuck_hits: int = 0     #: cached "this directive is stuck here" answers
    forks: int = 0          #: fork points the driver took
    reused: int = 0         #: steps resumed from snapshots / shared prefixes
    states_subsumed: int = 0  #: fork arms pruned by the SeenStates table
    # Time-to-first-violation, recorded once by the driver when the
    # first violating path completes.  Pops and steps are deterministic
    # (strategy-comparable without external timing); wall time is the
    # driver clock's best effort.  None until/unless a violation is hit.
    first_violation_pops: Optional[int] = None
    first_violation_steps: Optional[int] = None
    first_violation_wall: Optional[float] = None

    def snapshot(self) -> "EngineStats":
        return EngineStats(self.steps, self.cache_hits, self.stuck_hits,
                           self.forks, self.reused, self.states_subsumed,
                           self.first_violation_pops,
                           self.first_violation_steps,
                           self.first_violation_wall)

    def record_first_violation(self, pops: int, steps: int,
                               wall: float) -> None:
        """Latch the first-violation point; later calls are ignored."""
        if self.first_violation_steps is None:
            self.first_violation_pops = pops
            self.first_violation_steps = steps
            self.first_violation_wall = wall

    @property
    def avoided(self) -> int:
        """Total step evaluations the engine did *not* have to run."""
        return self.cache_hits + self.stuck_hits + self.reused


class ExecutionEngine:
    """A counting, caching front end over one machine.

    Drop-in for :class:`~repro.core.machine.Machine` in every driver
    that steps configurations (``step`` raises :class:`StuckError`
    exactly like the machine does).
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.stats = EngineStats()
        # (hash(config), directive) -> (pinned config, (config', leak) | None);
        # the pinned configuration is equality-confirmed on every hit,
        # so hash collisions can only cost a miss, never a wrong answer.
        self._cache: Dict[Tuple[int, Directive], Tuple[Config, object]] = {}

    # -- Machine facade -----------------------------------------------------

    @property
    def program(self):
        return self.machine.program

    @property
    def rsb_policy(self) -> str:
        return self.machine.rsb_policy

    def enabled_directives(self, config: Config,
                           jmpi_candidates: Iterable[int] = ()):
        return self.machine.enabled_directives(config, jmpi_candidates)

    # -- stepping -----------------------------------------------------------

    def step(self, config: Config,
             directive: Directive) -> Tuple[Config, StepLeakage]:
        """``C ↪_d^o C'`` with accounting; raises StuckError as usual."""
        if type(directive) is not Execute:
            # Only execute directives are ever trial-stepped before
            # being committed; fetch/retire steps would fill (and
            # churn) the cache without any chance of a hit.
            self.stats.steps += 1
            return self.machine.step(config, directive)
        key = (hash(config), directive)
        hit = self._cache.get(key)
        if hit is not None and (hit[0] is config or hit[0] == config):
            if hit[1] is None:
                self.stats.stuck_hits += 1
                raise StuckError(f"directive {directive!r} is stuck here "
                                 f"(cached)", directive)
            self.stats.cache_hits += 1
            return hit[1]
        self.stats.steps += 1
        if len(self._cache) >= _CACHE_LIMIT:
            self._cache.clear()
        try:
            result = self.machine.step(config, directive)
        except StuckError:
            self._cache[key] = (config, None)
            raise
        self._cache[key] = (config, result)
        return result

    def try_step(self, config: Config, directive: Directive
                 ) -> Optional[Tuple[Config, StepLeakage]]:
        """The step's result, or None if the directive is stuck here."""
        try:
            return self.step(config, directive)
        except StuckError:
            return None

    def can(self, config: Config, directive: Directive) -> bool:
        """Is ``directive`` enabled at ``config``?"""
        return self.try_step(config, directive) is not None

    # -- explicit accounting hooks -----------------------------------------

    def count_fork(self, arms: int = 1) -> None:
        """Record that a driver forked into ``arms`` branches."""
        self.stats.forks += arms

    def count_reused(self, steps: int = 1) -> None:
        """Record ``steps`` resumed from a snapshot / shared prefix
        instead of being re-executed."""
        self.stats.reused += steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (f"ExecutionEngine(steps={s.steps}, hits={s.cache_hits}, "
                f"reused={s.reused})")
