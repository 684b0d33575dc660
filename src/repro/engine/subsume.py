"""Redundant-state subsumption over the hash-consed state core.

Partial-order reduction (:mod:`repro.engine.por`) prunes equivalent
*schedules*; nothing there prunes equivalent *states*: two different
speculation prefixes that converge on the same machine configuration
head byte-identical continuations (Theorem B.1, determinism), yet each
is explored in full.  Loop-heavy targets (the Table 2 kernels) converge
constantly — every store-forwarding outcome whose transient provenance
has retired, every re-fetch of a loop body after a rolled-back
excursion — which is exactly why donna still truncates at higher
bounds.  This is the Bugrara-style "redundant state detection" angr
lists under HELPWANTED (up to 50× reported there).

:class:`SeenStates` is the table the explorer consults at fork points:

* **keying** — states are looked up by the configuration's *cached
  structural hash* (see ``core/{memory,rob,config}.py``: memories
  maintain their hash incrementally on write, buffers and configs
  memoise theirs), so a probe costs an int compare, not a state walk;
* **collision safety** — a bucket hit is confirmed by full structural
  equality before anything is pruned.  Hash equality is evidence, never
  proof: two distinct states in one bucket simply coexist;
* **hash-consing** — when a recorded bucket already holds an equal
  configuration, the newcomer is repointed at the canonical instance
  (:meth:`SeenStates.record`), so structurally-equal states downstream
  compare by pointer (``is``) and share one object graph;
* **the obligation-weakening rule** — a fork arm is pruned only when a
  recorded state has the *same or weaker residual obligations*
  (:meth:`SeenStates.subsumes`): equal pending hazards
  (``delayed``/``deferred``), a sleep set no larger than the
  candidate's (a smaller sleep set explores *more* rollback
  continuations), and per-path budgets no more spent (a state with more
  remaining budget explores *deeper*).  Under those conditions every
  observation the candidate's subtree could produce is produced by the
  canonical state's subtree, so dropping the candidate never drops a
  finding.

Soundness is differential-tested exactly like POR's: the observation
set must be identical with subsumption on and off across the litmus
registry and random programs, composing with every strategy and every
``--prune`` level (``tests/test_subsume_equivalence.py``;
the ``BENCH_subsume.json`` CI gate re-checks findings identity on the
case studies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = ["SeenStates", "SubsumptionStats", "validate_subsume"]


def validate_subsume(value: object) -> bool:
    """Validate a ``subsume=`` knob (strictly boolean, like a prune
    level it gates a soundness-sensitive reduction and silent coercion
    of e.g. ``"off"`` (truthy!) would enable what the caller asked to
    disable)."""
    if not isinstance(value, bool):
        raise ValueError(f"subsume must be a bool, got {value!r}")
    return value


@dataclass(frozen=True)
class SubsumptionStats:
    """Skip accounting for one exploration, surfaced like POR's
    :class:`~repro.engine.por.PruningStats`."""

    enabled: bool
    #: Fork-arm states recorded in the table (candidates for future
    #: subsumption).
    states_seen: int = 0
    #: Fork arms pruned because a recorded state subsumed them — each
    #: the root of a subtree that was never explored.
    states_subsumed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form for the unified :class:`repro.api.Report`."""
        return {"enabled": self.enabled,
                "states_seen": self.states_seen,
                "states_subsumed": self.states_subsumed}


#: One recorded state: (canonical config, delayed, deferred, sleep,
#: steps spent, fetches spent).  The sets are frozen *copies* — the
#: live MachineState mutates its own in place as it advances.
_Entry = Tuple[Any, frozenset, frozenset, frozenset, int, int]


class SeenStates:
    """Structural-hash table of explored fork-arm states.

    ``subsumes(state)`` asks whether a recorded state covers ``state``
    under the obligation-weakening rule; ``record(state)`` files a kept
    arm (canonicalising its configuration against the bucket).  Both
    are driven by :meth:`repro.pitchfork.explorer.Explorer.expand`.
    """

    __slots__ = ("_table", "states_seen", "states_subsumed")

    def __init__(self) -> None:
        self._table: Dict[int, List[_Entry]] = {}
        self.states_seen = 0
        self.states_subsumed = 0

    def __len__(self) -> int:
        return self.states_seen

    def subsumes(self, state) -> bool:
        """Is ``state`` covered by a recorded state with the same or
        weaker residual obligations?

        The rule, per component (candidate = ``state``, entry = the
        recorded state; the entry's subtree is — or is being — fully
        explored):

        * configurations structurally equal (full ``==`` confirm after
          the hash bucket match: collisions coexist, they never prune);
        * ``delayed``/``deferred`` equal — pending-hazard bookkeeping
          changes which arms the scheduler generates, so any difference
          means different continuations;
        * entry ``sleep`` ⊆ candidate ``sleep`` — sleep entries only
          *suppress* rollback continuations, so the entry explores a
          superset of the candidate's outcomes;
        * entry budgets spent ≤ candidate's — the entry had at least as
          much budget remaining, so it explored at least as deep.
        """
        bucket = self._table.get(hash(state.config))
        if not bucket:
            return False
        for config, delayed, deferred, sleep, steps, fetches in bucket:
            if (steps <= state.steps and fetches <= state.fetches
                    and delayed == state.delayed
                    and deferred == state.deferred
                    and sleep <= state.sleep
                    and config == state.config):
                self.states_subsumed += 1
                return True
        return False

    def record(self, state) -> None:
        """File a kept fork arm, hash-consing its configuration: if the
        bucket already holds an equal configuration, ``state`` is
        repointed at that canonical instance, so later equality checks
        against this subtree's descendants are pointer compares."""
        bucket = self._table.setdefault(hash(state.config), [])
        for entry in bucket:
            if entry[0] == state.config:
                state.config = entry[0]
                break
        bucket.append((state.config,) + state.residual_obligations())
        self.states_seen += 1

    def stats(self, enabled: bool = True) -> SubsumptionStats:
        return SubsumptionStats(enabled, self.states_seen,
                                self.states_subsumed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SeenStates({self.states_seen} seen, "
                f"{self.states_subsumed} subsumed)")
