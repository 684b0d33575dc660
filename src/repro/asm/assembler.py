"""Assembler: parsed source → :class:`repro.core.program.Program`.

Program points are assigned sequentially starting from ``base`` (default
1, matching the paper's figures).  ``halt`` reserves a point with no
instruction — fetching it is stuck, which is this machine's notion of
termination.  Labels resolve to the point of the instruction they prefix.
"""

from __future__ import annotations

from typing import Dict

from ..core.errors import AssemblerError
from ..core.isa import Br, Call, Fence, Instruction, Jmpi, Load, Op, Ret, Store
from ..core.program import Program
from .parser import ParsedProgram, Target, parse


def _resolve(target: Target, labels: Dict[str, int], line: int) -> int:
    if isinstance(target, int):
        return target
    if target not in labels:
        raise AssemblerError(f"line {line}: undefined label {target!r}")
    return labels[target]


def assemble_parsed(parsed: ParsedProgram, base: int = 1) -> Program:
    """Lay out a parsed program from program point ``base``."""
    points = {idx: base + idx for idx in range(len(parsed.instrs))}
    labels = {name: points[idx] if idx < len(parsed.instrs) else base + idx
              for name, idx in parsed.labels.items()}
    end = base + len(parsed.instrs)

    instrs: Dict[int, Instruction] = {}
    for idx, p in enumerate(parsed.instrs):
        n = points[idx]
        # Sequential instructions fall through to the next line unless an
        # explicit `-> target` successor was written (mitigation passes
        # splice fences and relocated instructions, whose successors are
        # not the following point).
        nxt = (_resolve(p.targets[0], labels, p.line)
               if p.kind in ("op", "load", "store") and p.targets
               else n + 1)
        if p.kind == "op":
            instrs[n] = Op(p.dest, p.opcode, p.args, nxt)
        elif p.kind == "load":
            instrs[n] = Load(p.dest, p.args, nxt)
        elif p.kind == "store":
            instrs[n] = Store(p.src, p.args, nxt)
        elif p.kind == "br":
            instrs[n] = Br(p.opcode, p.args,
                           _resolve(p.targets[0], labels, p.line),
                           _resolve(p.targets[1], labels, p.line))
        elif p.kind == "jmpi":
            instrs[n] = Jmpi(p.args)
        elif p.kind == "call":
            ret_to = (_resolve(p.targets[1], labels, p.line)
                      if len(p.targets) == 2 else nxt)
            instrs[n] = Call(_resolve(p.targets[0], labels, p.line), ret_to)
        elif p.kind == "ret":
            instrs[n] = Ret()
        elif p.kind == "fence":
            if p.targets == ("@self",):
                instrs[n] = Fence(n)
            elif p.targets:
                instrs[n] = Fence(_resolve(p.targets[0], labels, p.line))
            else:
                instrs[n] = Fence(nxt)
        elif p.kind == "halt":
            pass  # reserve the point, map no instruction
        else:  # pragma: no cover - parser guarantees kinds
            raise AssemblerError(f"unknown kind {p.kind!r}")

    entry = base
    if parsed.entry:
        if parsed.entry in labels:
            entry = labels[parsed.entry]
        else:
            try:
                entry = int(parsed.entry, 0)
            except ValueError:
                entry = base
    if not instrs:
        raise AssemblerError("program assembles to no instructions")
    return Program(instrs, entry=entry, labels=labels)


def assemble(source: str, base: int = 1) -> Program:
    """Parse and assemble assembly source text."""
    return assemble_parsed(parse(source), base)
