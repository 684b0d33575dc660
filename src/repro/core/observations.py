"""Leakage observations (Section 3.1, "Our semantics ... produces a
sequence of observations").

The machine does not model caches or predictors; instead every externally
visible effect becomes an observation:

* ``read a_ℓ``  — a memory load from address ``a`` (cache-visible);
* ``fwd a_ℓ``   — a store-to-load forward for address ``a`` (the
  *absence* of a memory access is also visible to a cache attacker);
* ``write a_ℓ`` — a retired store to address ``a``;
* ``jump n_ℓ``  — resolved control flow (port contention, I-cache, …);
* ``rollback``  — a misspeculation or hazard was detected (timing).

The label ``ℓ`` on an observation is the join of the labels of the data
that produced the address/target.  *Speculative constant time* fails
exactly when two low-equivalent runs produce different observation
sequences; for sequentially-CT programs this coincides with some
observation carrying a non-public label (Cor. B.10), which is what
Pitchfork flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .lattice import Label, PUBLIC


@dataclass(frozen=True)
class Observation:
    """Base class of attacker-visible observations."""


@dataclass(frozen=True)
class Read(Observation):
    """``read a_ℓ`` — memory load at address ``a``."""

    addr: object
    label: Label = PUBLIC

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"read {self.addr}_{self.label}"


@dataclass(frozen=True)
class Fwd(Observation):
    """``fwd a_ℓ`` — store-to-load forward (or store address resolution)
    for address ``a``."""

    addr: object
    label: Label = PUBLIC

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"fwd {self.addr}_{self.label}"


@dataclass(frozen=True)
class Write(Observation):
    """``write a_ℓ`` — retired store to address ``a``."""

    addr: object
    label: Label = PUBLIC

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"write {self.addr}_{self.label}"


@dataclass(frozen=True)
class Jump(Observation):
    """``jump n_ℓ`` — resolved control flow to program point ``n``."""

    target: int
    label: Label = PUBLIC

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"jump {self.target}_{self.label}"


@dataclass(frozen=True)
class Rollback(Observation):
    """``rollback`` — misspeculation/hazard detected and squashed."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "rollback"


#: The (possibly empty) leakage of one small step, e.g. ``rollback, jump n``.
StepLeakage = Tuple[Observation, ...]

#: A full trace O.
Trace = Tuple[Observation, ...]


def labelled(obs: Observation) -> bool:
    """Does this observation carry a label at all (rollbacks do not)?"""
    return hasattr(obs, "label")


def is_secret_dependent(obs: Observation) -> bool:
    """True iff the observation's label is not public.

    These are precisely the observations Pitchfork flags: an attacker
    watching the trace learns something about non-public data.
    """
    return labelled(obs) and not obs.label.is_public()  # type: ignore[attr-defined]


def secret_observations(trace: Trace) -> Trace:
    """The sub-trace of secret-dependent observations."""
    return tuple(o for o in trace if is_secret_dependent(o))


def addresses(trace: Trace) -> Tuple[object, ...]:
    """All addresses/targets mentioned by a trace, in order (the input to
    a cache model — any eviction policy is a function of these)."""
    out = []
    for o in trace:
        if isinstance(o, (Read, Fwd, Write)):
            out.append(o.addr)
        elif isinstance(o, Jump):
            out.append(o.target)
    return tuple(out)
