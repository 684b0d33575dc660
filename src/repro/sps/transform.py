"""The speculation-passing transformation: directives → program sites.

The paper's attacker resolves speculation by *directives* supplied to an
out-of-order machine.  Speculation-passing style compiles that
nondeterminism into the program itself: every program point that can
misspeculate becomes an explicit nondeterministic choice — a
:class:`SpecSite` — whose arms are the speculative continuations the
machine could be steered into.  A plain sequential constant-time check
over every arm of the transformed program then decides speculative
constant time for the original.

The table below is the whole transformation.  For each instruction of
the source program it records which speculative arms exist; the
sequential interpreter (:mod:`repro.sps.interp`) consults the table and
forks exactly there, nowhere else:

=========  =============  ====================================================
kind       instruction    arms materialised
=========  =============  ====================================================
mispredict ``br``         fetch the wrong side of the branch for up to
                          ``bound`` instructions, then roll back
mistrain   ``jmpi``       fetch any attacker-trained target (Spectre v2)
bypass     ``load``       read stale memory under a pending matching store,
                          or forward from a *non-youngest* matching store
                          (Spectre v4 / forwarding hazards)
alias      ``load``       forward from a non-matching in-flight store
                          (§3.5 aliasing prediction)
rsb        ``ret``        return-address load takes the ``bypass`` arms, and
                          an underflowing RSB fetches attacker targets
                          (ret2spec)
=========  =============  ====================================================

``fence`` has no site: it is the speculation barrier, so the transformed
program simply ends every excursion there.  ``call`` has no site of its
own but contributes a forwarding source (the return-address store) to
younger ``bypass``/``rsb`` sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..core.isa import Br, Call, Fence, Jmpi, Load, Ret, Store
from ..core.program import Program
from ..pitchfork.explorer import ExplorationOptions, resolve_options

#: The speculative-arm kinds, in the order tables report them.
SITE_KINDS = ("mispredict", "mistrain", "bypass", "alias", "rsb")


@dataclass(frozen=True)
class SpecSite:
    """One materialised speculative choice point of the product program.

    ``arms`` are the statically known alternative continuations (wrong
    branch side, mistrained targets, attacker return targets); arm kinds
    whose continuations depend on dynamic state (``bypass``, ``alias`` —
    the set of in-flight matching stores) have an empty ``arms`` tuple
    and are resolved by the interpreter against the live store buffer.
    """

    pp: int
    kind: str
    arms: Tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arms = f" -> {list(self.arms)}" if self.arms else ""
        return f"SpecSite({self.kind} @ {self.pp}{arms})"


def speculation_sites(program: Program,
                      options: Optional[ExplorationOptions] = None,
                      **overrides) -> Dict[int, Tuple[SpecSite, ...]]:
    """The site table of the speculation-passing transformation.

    Maps each program point to the speculative choice points
    materialised there, under the Spectre-variant toggles of
    ``options`` (an :class:`~repro.pitchfork.ExplorationOptions`, with
    keyword overrides of its fields).  Program points without
    speculation (``op``, ``fence``, plain ``call``) are absent: the
    transformed program is deterministic there and the sequential check
    just steps through.
    """
    options = resolve_options(options, overrides)
    table: Dict[int, Tuple[SpecSite, ...]] = {}
    for pp, instr in program.items():
        sites = []
        if isinstance(instr, Br):
            sites.append(SpecSite(pp, "mispredict",
                                  (instr.n_true, instr.n_false)))
        elif isinstance(instr, Jmpi):
            sites.append(SpecSite(pp, "mistrain", options.jmpi_targets))
        elif isinstance(instr, Load):
            if options.fwd_hazards:
                sites.append(SpecSite(pp, "bypass"))
            if options.explore_aliasing:
                sites.append(SpecSite(pp, "alias"))
        elif isinstance(instr, Ret):
            sites.append(SpecSite(pp, "rsb", options.rsb_targets))
            if options.fwd_hazards:
                sites.append(SpecSite(pp, "bypass"))
            if options.explore_aliasing:
                sites.append(SpecSite(pp, "alias"))
        elif isinstance(instr, (Store, Call, Fence)):
            pass  # forwarding sources / barriers, not choice points
        if sites:
            table[pp] = tuple(sites)
    return table


def site_counts(table: Mapping[int, Tuple[SpecSite, ...]]) -> Dict[str, int]:
    """Per-kind site counts — the report's transformation summary."""
    counts = {kind: 0 for kind in SITE_KINDS}
    for sites in table.values():
        for site in sites:
            counts[site.kind] += 1
    return {kind: n for kind, n in counts.items() if n}
