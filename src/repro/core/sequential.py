"""Sequential (in-order) execution — Definitions B.3/B.4.

A *sequential schedule* executes and retires every instruction
immediately upon fetching it, so the reorder buffer never holds more than
one in-flight instruction (or one call/ret group).  Each program has a
*canonical* sequential schedule; ``run_sequential`` constructs it on the
fly by always predicting correctly:

* conditional branches are fetched with the arm the condition actually
  takes (evaluated against committed state — the buffer is empty);
* indirect jumps are fetched with their computed target;
* returns use the RSB when it is usable, and otherwise the actual return
  address in memory.

Theorem 3.2 (sequential equivalence) says any well-formed schedule's
final configuration is ``≈``-equivalent to the canonical sequential one
after the same number of retires; :mod:`repro.verify.theorems` checks
this empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .config import Config
from .directives import Directive, Execute, Fetch, Retire
from .errors import StuckError
from .executor import RunResult, StepRecord
from .isa import (Br, Call, Fence, Instruction, Jmpi, Load, Op, Ret, Store,
                  address, concretize, evaluate, truth)
from .machine import Machine, RSP
from .observations import Observation
from .rob import resolve_operands
from .transient import TStore
from .values import BOTTOM


def _predict(machine: Machine, config: Config) -> Fetch:
    """The correct prediction for the instruction at the current pc,
    evaluated against committed state (the canonical schedule never
    misspeculates on purpose)."""
    instr = machine.program[config.pc]
    if isinstance(instr, Br):
        vals = resolve_operands(config.buf, config.buf.max_index() + 1,
                                config.regs, instr.args)
        if vals is None:
            raise StuckError("sequential fetch with unresolved condition")
        cond = evaluate(instr.opcode, vals)
        return Fetch(truth(cond))
    if isinstance(instr, Jmpi):
        vals = resolve_operands(config.buf, config.buf.max_index() + 1,
                                config.regs, instr.args)
        if vals is None:
            raise StuckError("sequential fetch with unresolved jump target")
        addr = address(vals)
        return Fetch(concretize(addr))
    if isinstance(instr, Ret):
        if config.rsb.top() is BOTTOM and machine.rsb_policy == "directive":
            # Predict the actual return address: the top of the stack.
            rsp = config.regs[RSP]
            addr = concretize(rsp)
            target = config.mem.read(addr)
            return Fetch(concretize(target))
        return Fetch(None)
    return Fetch(None)


def _instruction_steps(machine: Machine, config: Config,
                       instr: Instruction) -> List[Directive]:
    """The execute/retire directives that complete the instruction just
    fetched at the buffer's maximum index(es)."""
    buf = config.buf
    if isinstance(instr, (Op, Load, Br, Jmpi)):
        return [Execute(buf.max_index()), Retire()]
    if isinstance(instr, Store):
        i = buf.max_index()
        entry = buf[i]
        assert isinstance(entry, TStore)
        steps: List[Directive] = []
        if not entry.value_resolved():
            steps.append(Execute(i, "value"))
        if not entry.addr_resolved():
            steps.append(Execute(i, "addr"))
        return steps + [Retire()]
    if isinstance(instr, Fence):
        return [Retire()]
    if isinstance(instr, Call):
        g = buf.max_index() - 2  # marker index
        return [Execute(g + 1), Execute(g + 2, "addr"), Retire()]
    if isinstance(instr, Ret):
        g = buf.max_index() - 3
        return [Execute(g + 1), Execute(g + 2), Execute(g + 3), Retire()]
    raise StuckError(f"unknown instruction {instr!r}")


def run_sequential(machine: Machine, config: Config,
                   max_retires: int = 100_000,
                   stop_at: Optional[int] = None) -> RunResult:
    """Run the canonical sequential schedule from an initial config.

    Stops when the program halts (pc leaves the program and the buffer
    is empty), after ``max_retires`` retire directives, or — if
    ``stop_at`` is given — after exactly ``stop_at`` retires (Theorem 3.2
    compares runs at equal retire counts N).
    """
    if not config.is_initial():
        raise StuckError("sequential execution starts from |buf| = 0")
    current = config
    schedule: List[Directive] = []
    trace: List[Observation] = []
    steps: List[StepRecord] = []
    retired = 0
    budget = stop_at if stop_at is not None else max_retires
    while retired < budget:
        if machine.program.get(current.pc) is None:
            break  # halted
        instr = machine.program[current.pc]
        fetch = _predict(machine, current)
        current, leak = machine.step(current, fetch)
        schedule.append(fetch)
        trace.extend(leak)
        steps.append(StepRecord(fetch, leak, current))
        for d in _instruction_steps(machine, current, instr):
            current, leak = machine.step(current, d)
            schedule.append(d)
            trace.extend(leak)
            steps.append(StepRecord(d, leak, current))
            if isinstance(d, Retire):
                retired += 1
    return RunResult(config, current, tuple(schedule), tuple(trace),
                     tuple(steps), retired)


@dataclass(frozen=True)
class SequentialCT:
    """Result of a sequential constant-time check (the classical notion)."""

    ok: bool
    trace_a: Tuple[Observation, ...]
    trace_b: Tuple[Observation, ...]
    divergence: Optional[int] = None  #: index of the first differing obs

    def __bool__(self) -> bool:
        return self.ok


def check_sequential_ct(machine: Machine, config_a: Config,
                        config_b: Config,
                        max_retires: int = 100_000) -> SequentialCT:
    """Classical constant-time: equal observation traces for the two
    low-equivalent configurations under sequential execution."""
    ra = run_sequential(machine, config_a, max_retires)
    rb = run_sequential(machine, config_b, max_retires)
    if ra.trace == rb.trace:
        return SequentialCT(True, ra.trace, rb.trace)
    div = next((k for k, (x, y) in enumerate(zip(ra.trace, rb.trace))
                if x != y), min(len(ra.trace), len(rb.trace)))
    return SequentialCT(False, ra.trace, rb.trace, div)
