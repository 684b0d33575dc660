"""Random program / configuration / schedule generators.

Used by the executable metatheory (:mod:`repro.verify.theorems`) and the
hypothesis-based property tests.  Programs are loop-free (branches only
jump forward), so every schedule terminates; stores and loads stay
within a small arena so forwarding and hazards actually happen.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..core.config import Config
from ..core.directives import Directive, Execute, Fetch, Retire, Schedule
from ..core.isa import Br, Fence, Load, Op, Store
from ..core.lattice import PUBLIC, SECRET
from ..core.machine import Machine
from ..core.memory import Memory, Region
from ..core.program import Program
from ..core.values import Reg, Value, operands

REGS = ("r0", "r1", "r2", "r3")
ARENA = 0x40
ARENA_SIZE = 8
OPCODES = ("add", "sub", "xor", "and", "ltu", "eq", "mul")


def random_program(rng: random.Random, length: int = 10,
                   p_secret_data: float = 0.3) -> Program:
    """A loop-free random program of ``length`` instructions."""
    instrs = {}
    for n in range(1, length + 1):
        nxt = n + 1
        kind = rng.choices(("op", "load", "store", "br", "fence"),
                           weights=(30, 25, 25, 15, 5))[0]
        if kind == "op" or (kind == "br" and n == length):
            dest = Reg(rng.choice(REGS))
            opcode = rng.choice(OPCODES)
            args = operands(rng.choice(REGS),
                            rng.choice([rng.randrange(8), rng.choice(REGS)]))
            instrs[n] = Op(dest, opcode, args, nxt)
        elif kind == "load":
            dest = Reg(rng.choice(REGS))
            base = ARENA + rng.randrange(ARENA_SIZE)
            if rng.random() < 0.5:
                args = operands(base)
            else:
                args = operands(ARENA, rng.choice(REGS))
            instrs[n] = Load(dest, args, nxt)
        elif kind == "store":
            src = (Value(rng.randrange(8)) if rng.random() < 0.5
                   else Reg(rng.choice(REGS)))
            base = ARENA + rng.randrange(ARENA_SIZE)
            if rng.random() < 0.5:
                args = operands(base)
            else:
                args = operands(ARENA, rng.choice(REGS))
            instrs[n] = Store(src, args, nxt)
        elif kind == "br":
            # forward-only targets keep programs loop-free
            t = rng.randrange(n + 1, length + 2)
            f = rng.randrange(n + 1, length + 2)
            args = operands(rng.choice(REGS), rng.randrange(4))
            instrs[n] = Br(rng.choice(("ltu", "eq", "ne", "geu")), args, t, f)
        else:
            instrs[n] = Fence(nxt)
    return Program(instrs, entry=1)


def random_config(rng: random.Random,
                  p_secret_data: float = 0.3) -> Config:
    """A random initial configuration over the arena."""
    regs = {}
    for r in REGS:
        label = SECRET if rng.random() < p_secret_data else PUBLIC
        regs[r] = Value(rng.randrange(ARENA_SIZE), label)
    mem = Memory()
    cells = []
    for off in range(ARENA_SIZE):
        label = SECRET if rng.random() < p_secret_data else PUBLIC
        cells.append((ARENA + off, Value(rng.randrange(16), label)))
    mem = mem.with_region(Region("arena", ARENA, ARENA_SIZE, PUBLIC), None)
    mem = mem.write_all(cells)
    return Config.initial(regs, mem, pc=1)


def random_schedule(machine: Machine, config: Config, rng: random.Random,
                    max_steps: int = 400,
                    drain: bool = True) -> Tuple[Schedule, Config]:
    """A random well-formed schedule, built by stepping random enabled
    directives.  With ``drain`` the schedule runs to a terminal
    configuration (needed by the consistency corollaries)."""
    schedule: List[Directive] = []
    current = config
    for _ in range(max_steps):
        enabled = machine.enabled_directives(current)
        if drain and machine.program.get(current.pc) is None:
            # Halted: stop fetching, only wind down the buffer.
            enabled = [d for d in enabled if not isinstance(d, Fetch)]
        if not enabled:
            break
        # Light bias towards draining so schedules terminate.
        weights = [3 if isinstance(d, (Execute, Retire)) else 2
                   for d in enabled]
        d = rng.choices(enabled, weights=weights)[0]
        current, _leak = machine.step(current, d)
        schedule.append(d)
        if drain and not current.buf and \
                machine.program.get(current.pc) is None:
            break
    return tuple(schedule), current
