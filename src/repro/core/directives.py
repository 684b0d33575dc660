"""Attacker directives (Section 3.1).

The attacker resolves *all* scheduling and prediction non-determinism by
supplying a sequence of directives:

* ``fetch`` — fetch the next instruction (ops, loads, stores, fences,
  calls, and rets with a usable RSB);
* ``fetch: true`` / ``fetch: false`` — fetch a conditional branch,
  speculatively following the given arm;
* ``fetch: n`` — fetch an indirect jump (or a ret with an empty RSB),
  speculatively jumping to program point ``n``;
* ``execute i`` — execute the transient instruction at buffer index i;
* ``execute i : value`` / ``execute i : addr`` — resolve a store's data
  or address;
* ``execute i : fwd j`` — the aliasing predictor speculatively forwards
  from the store at index j to the load at index i (Section 3.5);
* ``retire`` — retire the oldest instruction.

A *schedule* is a sequence of directives; it is well-formed for a
configuration if no step gets stuck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union


@dataclass(frozen=True)
class Directive:
    """Base class for attacker directives."""


@dataclass(frozen=True)
class Fetch(Directive):
    """``fetch`` / ``fetch: b`` / ``fetch: n``.

    ``pred`` is None for plain fetches, a bool for conditional branches,
    and an int program point for indirect jumps / RSB-empty returns.
    """

    pred: Union[None, bool, int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.pred is None:
            return "fetch"
        return f"fetch: {self.pred}"


@dataclass(frozen=True)
class Execute(Directive):
    """``execute i`` with an optional part selector.

    ``part`` is None (whole instruction), "value" or "addr" (store
    halves), or an int ``j`` meaning ``fwd j`` (aliasing prediction).
    """

    index: int
    part: Union[None, str, int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.part is None:
            return f"execute {self.index}"
        if isinstance(self.part, int):
            return f"execute {self.index}: fwd {self.part}"
        return f"execute {self.index}: {self.part}"


@dataclass(frozen=True)
class Retire(Directive):
    """``retire`` — commit the oldest buffer entry."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "retire"


#: A schedule of directives D.
Schedule = Tuple[Directive, ...]

RETIRE = Retire()
FETCH = Fetch()


def fetch(pred: Union[None, bool, int] = None) -> Fetch:
    """Convenience constructor for fetch directives."""
    return Fetch(pred)


def execute(index: int, part: Union[None, str, int] = None) -> Execute:
    """Convenience constructor for execute directives."""
    if part not in (None, "value", "addr") and not isinstance(part, int):
        raise ValueError(f"bad execute part {part!r}")
    return Execute(index, part)


def retire_count(schedule: Tuple[Directive, ...]) -> int:
    """``N = #{d ∈ D | d = retire}`` — retired instructions in a schedule.

    Call/ret groups retire as one directive but remove several buffer
    entries; the paper counts retire *directives*, as do we.
    """
    return sum(1 for d in schedule if isinstance(d, Retire))
