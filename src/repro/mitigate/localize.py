"""Counterexample localization: from violations to program points.

The Pitchfork explorer hands back :class:`~repro.pitchfork.Violation`
values — a flagged observation plus the witnessing directive schedule.
Directives talk about *reorder-buffer indices*, not program points, so
before anything can be repaired the witness has to be replayed: the
machine relation is deterministic in ``(configuration, directive)``
(Theorem B.1), so stepping the schedule from the same initial
configuration reproduces the leaking execution exactly, and watching
the fetch stage recovers the map from buffer indices to the program
points they were fetched from.  The same determinism lets a batch of
witnesses share the replay of their common schedule prefixes
(:func:`localize_all`).

The result is a structured :class:`ViolationSite` naming

* the **leak point** — the instruction whose execution produced the
  secret-labelled observation (the transient load, the store address
  resolution, the branch on tainted data);
* the **speculation sources** still in flight when it leaked — the
  mispredicted branch that opened the window (Spectre v1/v1.1), the
  mistrained indirect jump or return (v2 / ret2spec), the
  not-yet-resolved older stores a load may have bypassed (v4);
* a **cause** classification, including ``"sequential"`` when no
  speculation source was in flight — an architectural leak no fence
  placement can remove (the program was not sequentially constant-time
  to begin with; Corollary B.10's hypothesis fails).

:mod:`repro.mitigate.synth` consumes sites to decide *where* to place
a fence or an SLH mask, and the re-verification loop — not the
attribution — carries the soundness argument, so localization is free
to be heuristic about blame and exact only about the leak point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import Config
from ..core.directives import Directive, Execute, Fetch, Retire, Schedule
from ..core.errors import ReproError
from ..core.isa import (Br, Call, Fence, Instruction, Jmpi, Load, Op, Ret,
                        Store, address, concretize, evaluate, truth)
from ..core.machine import Machine
from ..core.rob import resolve_operands
from ..core.transient import TBr, TJmpi, TStore, TValue
from ..pitchfork.explorer import Violation


@dataclass(frozen=True)
class ViolationSite:
    """One violation attributed to responsible program points."""

    #: Program point of the instruction whose execution leaked.
    leak_pp: int
    #: Kind of the physical instruction at ``leak_pp``
    #: ("load"/"store"/"branch"/"jump"/"return"/"op"/"call"/"fence").
    kind: str
    #: "v1", "v1.1", "v4", "v2", "ret2spec", "aliasing", "sequential",
    #: or "unknown".
    cause: str
    observation: str           #: repr of the flagged observation
    step_index: int            #: position in the witnessing schedule
    #: Youngest in-flight mispredicted conditional branch older than the
    #: leaking instruction — the window the SLH mask re-checks.
    branch_pp: Optional[int] = None
    #: Was the speculated (leaking) arm the branch's true target?
    branch_taken: Optional[bool] = None
    #: Older stores with unresolved addresses at leak time (v4 bypass
    #: candidates).
    store_pps: Tuple[int, ...] = ()
    #: In-flight mispredicted indirect jump / return, if any.
    jmpi_pp: Optional[int] = None
    #: The access load that *introduced* the secret into the transient
    #: data flow (the youngest older in-flight load resolved to a
    #: secret-labelled value) — in a classic v1 gadget the transmitting
    #: load is flagged but masking must hit this one, or the tainted
    #: label survives the mask's label join.
    taint_pp: Optional[int] = None

    def describe(self) -> str:
        parts = [f"{self.cause} leak at {self.leak_pp} ({self.kind})"]
        if self.branch_pp is not None:
            parts.append(f"window opened by branch at {self.branch_pp}")
        if self.jmpi_pp is not None:
            parts.append(f"mistrained jump at {self.jmpi_pp}")
        if self.store_pps:
            parts.append(f"bypassed store(s) at {list(self.store_pps)}")
        return "; ".join(parts)


@dataclass
class LocalizeStats:
    """Work done by :func:`localize_all` calls that share this record."""

    steps: int = 0                  #: machine steps the replays took


def _instruction_kind(instr: Optional[Instruction]) -> str:
    if isinstance(instr, Load):
        return "load"
    if isinstance(instr, Store):
        return "store"
    if isinstance(instr, Br):
        return "branch"
    if isinstance(instr, Jmpi):
        return "jump"
    if isinstance(instr, Ret):
        return "return"
    if isinstance(instr, Call):
        return "call"
    if isinstance(instr, Op):
        return "op"
    if isinstance(instr, Fence):
        return "fence"
    return "halt"


def replay_attribution(machine: Machine, config: Config,
                       schedule: Schedule
                       ) -> Tuple[List[Config], Dict[int, int]]:
    """Replay a witnessing schedule, recovering index → program point.

    Returns the configuration after every step (``configs[0]`` is the
    initial one) and the map from reorder-buffer indices to the program
    points their instructions were fetched from (call/ret groups map
    every member to the group's point).  Determinism (Theorem B.1)
    makes the replay exact.
    """
    index_pp: Dict[int, int] = {}
    current = config
    configs = [current]
    for directive in schedule:
        if isinstance(directive, Fetch):
            pc = current.pc
            before = current.buf.max_index()
            current, _leak = machine.step(current, directive)
            for i in range(before + 1, current.buf.max_index() + 1):
                index_pp[i] = pc
        else:
            current, _leak = machine.step(current, directive)
        configs.append(current)
    return configs, index_pp


def _branch_mispredicted(config: Config, j: int,
                         entry: TBr) -> Optional[bool]:
    """Did the in-flight branch guess wrong?  None when its operands are
    still unresolved (treated as "possibly mispredicted" by callers —
    under DT(n) an eagerly-resolvable correct branch would already have
    executed, so a lingering branch is almost always the window)."""
    try:
        vals = resolve_operands(config.buf, j, config.regs, entry.args)
    except KeyError:
        return None
    if vals is None:
        return None
    try:
        cond = evaluate(entry.opcode, vals)
        taken = truth(cond)
    except ReproError:
        return None
    actual = entry.targets[0] if taken else entry.targets[1]
    return actual != entry.guess


def _jmpi_mispredicted(config: Config, j: int,
                       entry: TJmpi) -> Optional[bool]:
    try:
        vals = resolve_operands(config.buf, j, config.regs, entry.args)
    except KeyError:
        return None
    if vals is None:
        return None
    try:
        addr = address(vals)
        return concretize(addr) != entry.guess
    except ReproError:
        return None


class _PrefixReplay:
    """Replays witnessing schedules, stepping each distinct prefix once.

    Theorem B.1 makes the configuration after a schedule prefix a
    function of that prefix, so a state reached once can stand for
    every witness that shares the prefix.  The walker keeps one
    ``(config, index → pp)`` entry per directive of the last schedule
    it replayed; a new schedule cuts that stack back to the common
    prefix and steps only its own suffix.  Witnesses from one
    exploration arrive in visit order, so neighbours share the longest
    prefixes.  The index map is copied only when a fetch extends it:
    an older entry keeps its own view even after a later witness rolls
    back and refetches one of its indices.
    """

    def __init__(self, machine: Machine, config: Config):
        self.machine = machine
        self.directives: List[Directive] = []
        self.states: List[Tuple[Config, Dict[int, int]]] = [(config, {})]
        self.steps = 0              #: machine steps taken so far

    def state_after(self, schedule: Schedule, length: int
                    ) -> Tuple[Config, Dict[int, int]]:
        """The configuration after ``schedule[:length]`` and the
        index → program point map of the fetches along the way."""
        done = self.directives
        n = 0
        common = min(length, len(done))
        while n < common and (schedule[n] is done[n]
                              or schedule[n] == done[n]):
            n += 1
        del done[n:]
        del self.states[n + 1:]
        config, index_pp = self.states[-1]
        step = self.machine.step
        for k in range(n, length):
            directive = schedule[k]
            if isinstance(directive, Fetch):
                pc = config.pc
                before = config.buf.max_index()
                config, _leak = step(config, directive)
                index_pp = dict(index_pp)
                for i in range(before + 1, config.buf.max_index() + 1):
                    index_pp[i] = pc
            else:
                config, _leak = step(config, directive)
            done.append(directive)
            self.states.append((config, index_pp))
        self.steps += length - n
        return config, index_pp


def _flagged(pre: Config, index_pp: Dict[int, int],
             directive: Directive) -> Tuple[int, int]:
    """(buffer index, program point) of the instruction whose step
    from ``pre`` under ``directive`` leaked."""
    if isinstance(directive, Execute):
        return directive.index, index_pp.get(directive.index, pre.pc)
    if isinstance(directive, Retire) and pre.buf:
        flagged = pre.buf.min_index()
        return flagged, index_pp.get(flagged, pre.pc)
    return pre.buf.max_index() + 1, pre.pc


def _site(machine: Machine, pre: Config, index_pp: Dict[int, int],
          violation: Violation, flagged: int,
          leak_pp: int) -> ViolationSite:
    """Blame the speculation sources in flight in ``pre`` — the
    configuration just before the flagging step — older than the
    flagged buffer index."""
    directive = violation.directive
    branch_pp: Optional[int] = None
    branch_taken: Optional[bool] = None
    jmpi_pp: Optional[int] = None
    taint_pp: Optional[int] = None
    store_pps: List[int] = []
    for j, entry in pre.buf.items():
        if j >= flagged:
            break
        if isinstance(entry, TValue) and entry.is_load_result() and \
                not entry.value.is_public():
            # Resolved loads carry the program point of the physical
            # load (the hazard rules roll back to it).
            taint_pp = entry.pp if entry.pp is not None else index_pp.get(j)
        if isinstance(entry, TBr):
            wrong = _branch_mispredicted(pre, j, entry)
            if wrong is None or wrong:
                branch_pp = index_pp.get(j, branch_pp)
                branch_taken = entry.guess == entry.targets[0]
        elif isinstance(entry, TJmpi):
            wrong = _jmpi_mispredicted(pre, j, entry)
            if wrong is None or wrong:
                jmpi_pp = index_pp.get(j, jmpi_pp)
        elif isinstance(entry, TStore) and not entry.addr_resolved():
            pp = index_pp.get(j)
            if pp is not None:
                store_pps.append(pp)

    kind = _instruction_kind(machine.program.get(leak_pp))
    if isinstance(directive, Execute) and isinstance(directive.part, int):
        cause = "aliasing"
    elif branch_pp is not None:
        cause = "v1.1" if kind == "store" else "v1"
    elif jmpi_pp is not None:
        jmpi_instr = machine.program.get(jmpi_pp)
        cause = "ret2spec" if isinstance(jmpi_instr, Ret) else "v2"
    elif store_pps:
        cause = "v4"
    else:
        cause = "sequential"

    return ViolationSite(
        leak_pp=leak_pp, kind=kind, cause=cause,
        observation=repr(violation.observation),
        step_index=violation.step_index,
        branch_pp=branch_pp, branch_taken=branch_taken,
        store_pps=tuple(store_pps), jmpi_pp=jmpi_pp, taint_pp=taint_pp)


def localize(machine: Machine, config: Config,
             violation: Violation) -> ViolationSite:
    """Attribute one violation to its responsible program points.

    Replays the witnessing schedule up to (not including) its final,
    flagging directive and inspects the configuration reached there.
    """
    return localize_all(machine, config, (violation,))[0]


def localize_all(machine: Machine, config: Config,
                 violations: Iterable[Violation], *,
                 stats: Optional[LocalizeStats] = None
                 ) -> List[ViolationSite]:
    """Localize a batch of violations, deduplicated by leak point.

    The first witness per program point wins (sites are repaired per
    point, so extra witnesses of the same point add no information);
    a later witness of a point that already has a site costs its replay
    but no blame scan.

    The replays share work: every witness is stepped from the state its
    longest common prefix with the previous witness reached, so each
    distinct schedule prefix of a run of neighbours is stepped once.
    That is exact, not an approximation — by Theorem B.1 the state
    after a prefix depends only on the prefix.  ``stats``, when given,
    accumulates the machine steps taken.
    """
    replay = _PrefixReplay(machine, config)
    seen: Dict[int, ViolationSite] = {}
    for violation in violations:
        schedule = violation.schedule
        pre, index_pp = replay.state_after(schedule,
                                           max(len(schedule) - 1, 0))
        flagged, leak_pp = _flagged(pre, index_pp, violation.directive)
        if leak_pp not in seen:
            seen[leak_pp] = _site(machine, pre, index_pp, violation,
                                  flagged, leak_pp)
    if stats is not None:
        stats.steps += replay.steps
    return list(seen.values())
