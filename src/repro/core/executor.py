"""Big-step execution: running schedules and collecting traces.

``run`` implements the paper's ``C ⇓_D^N,O C'`` — the reflexive-transitive
closure of the small-step relation under a schedule D, collecting the
observation trace O and counting retire directives N.  A schedule is
*well-formed* for a configuration iff no step gets stuck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .config import Config
from .directives import Directive, Fetch, Retire, Schedule
from .errors import StuckError
from .machine import Machine
from .observations import Observation, StepLeakage, Trace


@dataclass(frozen=True)
class StepRecord:
    """One executed step: the directive, its leakage, and the successor."""

    directive: Directive
    leakage: StepLeakage
    after: Config


@dataclass(frozen=True)
class RunResult:
    """The result of a big step ``C ⇓_D^N,O C'``."""

    initial: Config
    final: Config
    schedule: Schedule
    trace: Trace
    steps: Tuple[StepRecord, ...]
    retired: int  #: N — the number of retire directives executed


def run(machine: Machine, config: Config,
        schedule: Iterable[Directive],
        record_steps: bool = True) -> RunResult:
    """Execute ``schedule`` from ``config``; raise StuckError (annotated
    with the failing step index) if the schedule is not well-formed.

    ``machine`` may be a plain :class:`Machine` or a counting
    :class:`repro.engine.ExecutionEngine` — both expose the same
    ``step`` relation, so every big-step driver (this one, the SCT
    product, the metatheory checks) runs on the engine when given one.
    """
    trace: List[Observation] = []
    steps: List[StepRecord] = []
    retired = 0
    current = config
    directives = tuple(schedule)
    for idx, d in enumerate(directives):
        try:
            current, leak = machine.step(current, d)
        except StuckError as e:
            raise StuckError(
                f"schedule stuck at step {idx} ({d!r}): {e}", d) from e
        trace.extend(leak)
        if record_steps:
            steps.append(StepRecord(d, leak, current))
        if isinstance(d, Retire):
            retired += 1
    return RunResult(config, current, directives, tuple(trace),
                     tuple(steps), retired)


def is_well_formed(machine: Machine, config: Config,
                   schedule: Iterable[Directive]) -> bool:
    """Does the schedule run to completion without getting stuck?"""
    try:
        run(machine, config, schedule, record_steps=False)
    except StuckError:
        return False
    return True


def drain(machine: Machine, config: Config,
          max_steps: int = 10_000) -> RunResult:
    """Resolve and retire everything currently in flight, preferring the
    oldest instruction, without fetching anything new.

    Useful to bring a mid-speculation configuration back to a terminal
    one (|buf| = 0).  Raises StuckError if the buffer cannot drain (e.g.
    a store whose operands will never resolve).
    """
    schedule: List[Directive] = []
    current = config
    trace: List[Observation] = []
    steps: List[StepRecord] = []
    retired = 0
    for _ in range(max_steps):
        if not current.buf:
            break
        progressed = False
        for d in machine.enabled_directives(current):
            if isinstance(d, Fetch):
                continue
            # Prefer retiring; otherwise execute the oldest executable.
            try:
                nxt, leak = machine.step(current, d)
            except StuckError:
                continue
            current = nxt
            trace.extend(leak)
            schedule.append(d)
            steps.append(StepRecord(d, leak, current))
            if isinstance(d, Retire):
                retired += 1
            progressed = True
            break
        if not progressed:
            raise StuckError("buffer cannot drain from this configuration")
    return RunResult(config, current, tuple(schedule), tuple(trace),
                     tuple(steps), retired)
