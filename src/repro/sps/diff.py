"""Differential harness: the SPS backend vs the explorer oracle.

Two independent decision procedures for speculative constant time exist
in this tree — the out-of-order :mod:`repro.pitchfork` explorer and the
sequential speculation-passing check (:mod:`repro.sps`).  They share no
semantics code, so their *agreement artifact* — the set of flagged
secret-dependent observations, ``sorted({repr(v.observation)})`` over a
``stop_at_first=False`` run with identical knobs — is a strong
correctness signal, and every divergence is a bug in one of them.

This module hunts for divergences:

* :func:`sweep_registry` runs both backends over every registered
  litmus case, at that case's ground-truth options;
* :func:`sweep_random` adds seeded random programs in three flavours —
  the plain loop-free generator, the same with the §3.5
  aliasing-prediction extension, and an extended ``call``/``ret``
  generator (:func:`random_callret_program`) with stack-smashing stores
  and random RSB policies, which the plain generator never emits;
* :func:`minimize` delta-debugs a disagreeing program down to a minimal
  instruction sequence that still disagrees, for landing as a
  :mod:`repro.litmus.diffregress` regression case.

Classification protocol: backends may legitimately differ when either
run was cut by a search budget (``max_paths`` truncation or per-path
``max_fetches``/``max_steps`` exhaustion — non-terminating product
programs built from ``ret``-through-just-written-return-address loops
are the common cause).  Such records are ``explained-budget``, reported
but not failures.  Equal sets where either run was cut short are
``unconfirmed``: agreement where one side is incomplete is not
evidence, so only equal sets from two complete runs ``agree``.  A
divergence between two *complete* runs is a real ``disagree`` — the
harness minimises it and exits nonzero.

Run it directly::

    python -m repro.sps.diff --random 50 --seed 0 --check
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api.project import AnalysisOptions
from ..core.config import Config
from ..core.isa import (Br, Call, Fence, Instruction, Load, Op, Ret, Store)
from ..core.lattice import PUBLIC, SECRET
from ..core.machine import Machine
from ..core.memory import Memory, Region
from ..core.program import Program
from ..core.values import Reg, Value, operands
from ..litmus import all_cases
from ..pitchfork.explorer import ExplorationOptions, Explorer
from ..verify.generators import (ARENA, ARENA_SIZE, REGS, random_config,
                                 random_program)
from .interp import explore_sps

#: Stack region for the call/ret generator (below the arena, like the
#: spec_rsb litmus cases).
STACK = 0x20
STACK_SIZE = 8
#: Initial stack pointer: the top slot of the stack region.
RSP_INIT = STACK + STACK_SIZE - 1


@dataclass
class DiffRecord:
    """One backend-vs-backend comparison and its verdict."""

    name: str
    program: Program
    config: Config
    options: AnalysisOptions
    pf_obs: Tuple[str, ...]
    sps_obs: Tuple[str, ...]
    pf_complete: bool
    sps_complete: bool
    pf_wall: float
    sps_wall: float
    #: Filled by the sweep when a real disagreement is minimised.
    minimized: Optional[Program] = None

    @property
    def complete(self) -> bool:
        """No search budget interfered with either run."""
        return self.pf_complete and self.sps_complete

    @property
    def agree(self) -> bool:
        """Equal sets from two complete runs: the only agreement that
        is evidence."""
        return self.pf_obs == self.sps_obs and self.complete

    @property
    def unconfirmed(self) -> bool:
        """Equal sets, but a search budget cut at least one run short,
        so the equality may hide what the missing coverage would
        flag."""
        return self.pf_obs == self.sps_obs and not self.complete

    @property
    def explained(self) -> bool:
        """Divergent, but a search budget interfered with either run."""
        return self.pf_obs != self.sps_obs and not self.complete

    @property
    def disagree(self) -> bool:
        """Divergent with both runs complete: a real bug somewhere."""
        return self.pf_obs != self.sps_obs and self.complete

    @property
    def status(self) -> str:
        if self.pf_obs == self.sps_obs:
            return "agree" if self.complete else "unconfirmed"
        return "DISAGREE" if self.complete else "explained-budget"

    def section(self) -> dict:
        """The report's ``cross_check`` mapping (schema 8).

        Everything is deterministic except the two wall times, which
        the store's ``strip_volatile`` zeroes by their ``_wall_time``
        suffix.
        """
        return {
            "backends": ["pitchfork", "sps"],
            "pitchfork_observations": list(self.pf_obs),
            "sps_observations": list(self.sps_obs),
            "pitchfork_complete": self.pf_complete,
            "sps_complete": self.sps_complete,
            "agree": self.agree,
            "classification": self.status.lower(),
            "pitchfork_wall_time": self.pf_wall,
            "sps_wall_time": self.sps_wall,
        }


def _pf_observations(program: Program, config: Config,
                     options: AnalysisOptions) -> Tuple[Tuple[str, ...], bool]:
    """The explorer's flagged observation set, plus completeness."""
    opts = ExplorationOptions(
        bound=options.bound,
        fwd_hazards=options.fwd_hazards,
        explore_aliasing=options.explore_aliasing,
        jmpi_targets=options.jmpi_targets,
        rsb_targets=options.rsb_targets,
        max_paths=options.max_paths,
        max_steps=options.max_steps)
    explorer = Explorer(Machine(program, rsb_policy=options.rsb_policy), opts)
    result = explorer.explore(config, stop_at_first=False)
    obs = tuple(sorted({repr(v.observation) for v in result.violations}))
    complete = not result.truncated and result.exhausted_paths == 0
    return obs, complete


def _sps_observations(program: Program, config: Config,
                      options: AnalysisOptions) -> Tuple[Tuple[str, ...], bool]:
    """The SPS backend's flagged observation set, plus completeness."""
    result = explore_sps(
        program, config,
        bound=options.bound,
        fwd_hazards=options.fwd_hazards,
        explore_aliasing=options.explore_aliasing,
        jmpi_targets=options.jmpi_targets,
        rsb_targets=options.rsb_targets,
        rsb_policy=options.rsb_policy,
        max_paths=options.max_paths,
        max_steps=options.max_steps,
        stop_at_first=False)
    obs = tuple(sorted({repr(v.observation) for v in result.violations}))
    return obs, result.complete


def compare(program: Program, config: Config,
            options: Optional[AnalysisOptions] = None,
            name: str = "<program>") -> DiffRecord:
    """Run both backends on identical questions and compare the
    agreement artifact."""
    if options is None:
        options = AnalysisOptions()
    t0 = time.perf_counter()
    pf_obs, pf_complete = _pf_observations(program, config, options)
    t1 = time.perf_counter()
    sps_obs, sps_complete = _sps_observations(program, config, options)
    t2 = time.perf_counter()
    return DiffRecord(name=name, program=program, config=config,
                      options=options, pf_obs=pf_obs, sps_obs=sps_obs,
                      pf_complete=pf_complete, sps_complete=sps_complete,
                      pf_wall=t1 - t0, sps_wall=t2 - t1)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_registry() -> List[DiffRecord]:
    """Both backends over every registered litmus case, at the case's
    ground-truth options."""
    records = []
    for case in all_cases():
        options = AnalysisOptions.for_case(case)
        records.append(compare(case.program, case.config(), options,
                               name=case.name))
    return records


def random_callret_program(rng: random.Random,
                           body_length: int = 5,
                           fn_length: int = 3) -> Program:
    """A random program exercising ``call``/``ret``: a straight-line
    main body with one call into a small function whose body may smash
    the just-pushed return address (``store .. [%rsp]``) — the shapes
    the loop-free generator never emits, and exactly where the RSB,
    return-address forwarding, and rollback models of the two backends
    can drift apart."""
    instrs: Dict[int, Instruction] = {}
    fn_entry = body_length + 2
    call_at = rng.randrange(1, body_length + 1)
    for n in range(1, body_length + 1):
        if n == call_at:
            instrs[n] = Call(fn_entry, n + 1)
        else:
            instrs[n] = _body_instr(rng, n, n + 1, allow_rsp=False)
    # Main falls off at body_length + 1 (missing point: halt).
    pp = fn_entry
    for _ in range(fn_length):
        instrs[pp] = _body_instr(rng, pp, pp + 1, allow_rsp=True)
        pp += 1
    instrs[pp] = Ret()
    return Program(instrs, entry=1)


def _body_instr(rng: random.Random, n: int, nxt: int,
                allow_rsp: bool) -> Instruction:
    """One straight-line instruction for the call/ret generator."""
    kind = rng.choices(("op", "load", "store", "rsp_store"),
                       weights=(30, 30, 25, 15 if allow_rsp else 0))[0]
    if kind == "op":
        return Op(Reg(rng.choice(REGS)), rng.choice(("add", "and", "ltu")),
                  operands(rng.choice(REGS), rng.randrange(8)), nxt)
    if kind == "load":
        if rng.random() < 0.5:
            args = operands(ARENA + rng.randrange(ARENA_SIZE))
        else:
            args = operands(ARENA, rng.choice(REGS))
        return Load(Reg(rng.choice(REGS)), args, nxt)
    if kind == "rsp_store":
        # Smash the return-address slot: value forwards into the ret.
        src = (Value(rng.randrange(1, 10)) if rng.random() < 0.5
               else Reg(rng.choice(REGS)))
        return Store(src, operands("rsp"), nxt)
    src = (Value(rng.randrange(8)) if rng.random() < 0.5
           else Reg(rng.choice(REGS)))
    return Store(src, operands(ARENA + rng.randrange(ARENA_SIZE)), nxt)


def random_callret_config(rng: random.Random,
                          p_secret_data: float = 0.3) -> Config:
    """An initial configuration with a stack region and ``%rsp``."""
    regs = {}
    for r in REGS:
        label = SECRET if rng.random() < p_secret_data else PUBLIC
        regs[r] = Value(rng.randrange(ARENA_SIZE), label)
    regs["rsp"] = Value(RSP_INIT)
    mem = Memory()
    mem = mem.with_region(Region("stack", STACK, STACK_SIZE, PUBLIC), None)
    mem = mem.with_region(Region("arena", ARENA, ARENA_SIZE, PUBLIC), None)
    cells = []
    for off in range(ARENA_SIZE):
        label = SECRET if rng.random() < p_secret_data else PUBLIC
        cells.append((ARENA + off, Value(rng.randrange(16), label)))
    mem = mem.write_all(cells)
    return Config.initial(regs, mem, pc=1)


def sweep_random(n: int = 50, seed: int = 0) -> List[DiffRecord]:
    """``n`` seeded random comparisons cycling through three flavours:
    plain loop-free programs, the same under the aliasing-prediction
    extension, and call/ret programs with random RSB policies."""
    records = []
    for i in range(n):
        rng = random.Random(seed * 1_000_003 + i)
        flavour = ("plain", "aliasing", "callret")[i % 3]
        if flavour == "plain":
            program = random_program(rng, length=10)
            config = random_config(rng)
            options = AnalysisOptions(bound=12, fwd_hazards=True,
                                      stop_at_first=False)
        elif flavour == "aliasing":
            program = random_program(rng, length=8)
            config = random_config(rng)
            options = AnalysisOptions(bound=12, fwd_hazards=True,
                                      explore_aliasing=True,
                                      stop_at_first=False)
        else:
            program = random_callret_program(rng)
            config = random_callret_config(rng)
            policy = rng.choice(("directive", "circular", "refuse"))
            targets = tuple(sorted(rng.sample(
                sorted(program.points()), k=min(2, len(program))))) \
                if policy == "directive" and rng.random() < 0.5 else ()
            options = AnalysisOptions(bound=8, fwd_hazards=True,
                                      rsb_policy=policy, rsb_targets=targets,
                                      stop_at_first=False)
        record = compare(program, config, options,
                         name=f"random-{flavour}-{seed}-{i}")
        if record.disagree:
            record.minimized = minimize(program, config, options)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Delta-debugging minimiser
# ---------------------------------------------------------------------------

def _still_disagrees(program: Program, config: Config,
                     options: AnalysisOptions) -> bool:
    try:
        record = compare(program, config, options)
    except Exception:  # a shrink step may produce a degenerate program
        return False
    return record.disagree


def _drop_instruction(program: Program, pp: int) -> Optional[Program]:
    """``program`` without point ``pp``, references rewired to its
    fall-through successor.  Only sequential instructions (those with a
    static ``next``) and calls (rewired to their return point) can be
    dropped; None when ``pp`` has no unambiguous successor."""
    victim = program.get(pp)
    if victim is None:
        return None
    if isinstance(victim, (Op, Load, Store, Fence)):
        successor = victim.next
    elif isinstance(victim, Call):
        successor = victim.ret
    else:
        return None

    def rewire(target: int) -> int:
        return successor if target == pp else target

    instrs: Dict[int, Instruction] = {}
    for point, instr in program.items():
        if point == pp:
            continue
        if isinstance(instr, (Op, Load, Store, Fence)):
            instr = replace(instr, next=rewire(instr.next))
        elif isinstance(instr, Br):
            instr = replace(instr, n_true=rewire(instr.n_true),
                            n_false=rewire(instr.n_false))
        elif isinstance(instr, Call):
            instr = replace(instr, target=rewire(instr.target),
                            ret=rewire(instr.ret))
        instrs[point] = instr
    entry = rewire(program.entry)
    if entry not in instrs:
        return None
    return Program(instrs, entry=entry)


def minimize(program: Program, config: Config,
             options: Optional[AnalysisOptions] = None,
             still_fails: Optional[Callable[[Program], bool]] = None
             ) -> Program:
    """Greedy delta-debug: repeatedly drop single instructions while the
    disagreement (or the caller's ``still_fails`` predicate) persists."""
    if options is None:
        options = AnalysisOptions()
    if still_fails is None:
        def still_fails(candidate: Program) -> bool:
            return _still_disagrees(candidate, config, options)
    current = program
    shrunk = True
    while shrunk:
        shrunk = False
        for pp in sorted(current.points()):
            candidate = _drop_instruction(current, pp)
            if candidate is not None and still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _print_record(record: DiffRecord, verbose: bool) -> None:
    line = (f"  {record.name:<28} {record.status:<16} "
            f"pf={record.pf_wall:.3f}s sps={record.sps_wall:.3f}s")
    print(line)
    if verbose or not record.agree:
        print(f"    pf : {list(record.pf_obs)} "
              f"(complete={record.pf_complete})")
        print(f"    sps: {list(record.sps_obs)} "
              f"(complete={record.sps_complete})")
    if record.minimized is not None:
        print("    minimised repro:")
        for pp, instr in sorted(record.minimized.items()):
            print(f"      {pp}: {instr!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.sps.diff",
        description="Differential sweep: SPS backend vs the explorer.")
    parser.add_argument("--random", type=int, default=50, metavar="N",
                        help="seeded random programs to sweep (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    parser.add_argument("--skip-registry", action="store_true",
                        help="random sweep only")
    parser.add_argument("--verbose", action="store_true",
                        help="print observation sets for agreeing cases too")
    args = parser.parse_args(argv)

    records: List[DiffRecord] = []
    if not args.skip_registry:
        print("== litmus registry ==")
        for record in sweep_registry():
            records.append(record)
            _print_record(record, args.verbose)
    if args.random > 0:
        print(f"== {args.random} random programs (seed {args.seed}) ==")
        for record in sweep_random(args.random, args.seed):
            records.append(record)
            _print_record(record, args.verbose)

    agree = sum(1 for r in records if r.agree)
    unconfirmed = sum(1 for r in records if r.unconfirmed)
    explained = sum(1 for r in records if r.explained)
    disagree = [r for r in records if r.disagree]
    print(f"== {len(records)} comparisons: {agree} agree, "
          f"{unconfirmed} unconfirmed, {explained} explained-budget, "
          f"{len(disagree)} disagree ==")
    return 1 if disagree else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
