"""Sequential interpreter for the speculation-passing product program.

The second opinion.  Where :mod:`repro.pitchfork.explorer` drives an
out-of-order machine through worst-case directive schedules, this
interpreter runs the *transformed* program — the original instructions
plus the speculative arms the transformation materialised
(:mod:`repro.sps.transform`) — strictly **in order**, and checks plain
sequential constant time on every resolved arm.

The product semantics, in full:

* Execution is in-order over labelled values; each instruction consumes
  one *fetch index* (``call`` three, ``ret`` four — the reorder-buffer
  footprint of their expanded groups), and the speculation window is
  measured in fetch indices.
* Stores execute into a **sliding store buffer**: a store becomes
  architectural (``write`` observation, memory update) only once it is
  ``bound`` fetch indices old — until then younger loads may forward
  from it, which is exactly the window in which Spectre v4 choices
  exist.  Resolving a store's address emits ``fwd`` immediately, as the
  machine does.
* A wrong speculative choice — wrong branch side, mistrained indirect
  target, stale-memory load under a pending matching store, forward
  from the wrong store — opens an **excursion**: execution simply
  continues in-order down the wrong arm, but the path is doomed to end
  once the fetch index reaches the excursion's window end (the point at
  which the machine would detect the misprediction or hazard and roll
  back).  Rollback needs no modelling beyond that: the architectural
  continuation after rollback is, observation-for-observation, the
  sibling arm that made the correct choice.  Speculative stores die
  with the excursion; architectural (pre-excursion) stores still age
  out and commit during it, exactly as the machine retires entries
  older than an unresolved branch.
* ``fence`` drains the store buffer on the architectural path and
  terminates any excursion (nothing younger than a fence executes
  speculatively).
* ``call``/``ret`` maintain a shadow RSB; a return whose predicted
  target disagrees with the loaded return address forks the mistrained
  continuation as an excursion, with the usual RSB-underflow policies
  ("directive" explores attacker targets, "circular" replays the last
  popped prediction, "refuse" stops).

Every observation a step produces — ``read``/``fwd``/``write``/``jump``
with the label join of its address operands — is checked on the spot;
secret-dependent ones become :class:`repro.pitchfork.explorer.Violation`
records (one witness per distinct observation), so downstream report
plumbing is shared with the first opinion verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.config import Config
from ..core.directives import Directive, Execute, Fetch
from ..core.errors import ReproError
from ..core.isa import (Br, Call, Fence, Jmpi, Load, Op, Ret, Store, address,
                        concretize, evaluate, truth)
from ..core.machine import RSP
from ..core.memory import Memory
from ..core.observations import (Fwd, Jump, Observation, Read, Write,
                                 is_secret_dependent)
from ..core.program import Program
from ..core.values import Reg, Value
from ..pitchfork.explorer import (MAX_FETCHES, ExplorationOptions,
                                  Violation, resolve_options)
from .transform import site_counts, speculation_sites

#: Cap on the per-path schedule/trace tails kept for violation reports
#: (summaries only ever show the last 8); the step *counter* is exact.
_TAIL = 64


class _Stuck(ReproError):
    """A path read an undefined register / non-integer address: the
    machine's StuckError analogue — the path ends, prior observations
    stand."""


@dataclass(frozen=True)
class _Frame:
    """One open excursion: wrong-choice kind and its window end
    (exclusive fetch index at which the machine would roll back)."""

    kind: str
    end: int


class _BufStore:
    """A store executed but not yet architectural."""

    __slots__ = ("index", "addr", "value", "label")

    def __init__(self, index: int, addr: int, value: Value, label) -> None:
        self.index = index
        self.addr = addr
        self.value = value
        self.label = label


class _State:
    """One in-order path of the product program (mutable; cloned at
    forks)."""

    __slots__ = ("regs", "mem", "pc", "buf", "frames", "rsb", "last_popped",
                 "idx", "schedule", "trace", "nsteps")

    def __init__(self, regs: Dict[Reg, Value], mem: Memory,
                 pc: Optional[int]) -> None:
        self.regs = regs
        self.mem = mem
        self.pc = pc
        self.buf: List[_BufStore] = []
        self.frames: List[_Frame] = []
        self.rsb: List[int] = []
        self.last_popped = 0
        self.idx = 0
        self.schedule: List[Directive] = []
        self.trace: List[Observation] = []
        self.nsteps = 0

    def clone(self) -> "_State":
        other = _State.__new__(_State)
        other.regs = dict(self.regs)
        other.mem = self.mem
        other.pc = self.pc
        other.buf = list(self.buf)
        other.frames = list(self.frames)
        other.rsb = list(self.rsb)
        other.last_popped = self.last_popped
        other.idx = self.idx
        other.schedule = list(self.schedule)
        other.trace = list(self.trace)
        other.nsteps = self.nsteps
        return other

    @property
    def window_end(self) -> Optional[int]:
        if not self.frames:
            return None
        return min(frame.end for frame in self.frames)

    def capped_end(self, end: int) -> int:
        cur = self.window_end
        return end if cur is None else min(cur, end)


@dataclass
class SpsResult:
    """Everything the speculation-passing check found."""

    violations: List[Violation] = field(default_factory=list)
    paths_explored: int = 0
    states_stepped: int = 0
    truncated: bool = False     #: max_paths was hit
    #: Paths cut short by a per-path budget (max_steps / MAX_FETCHES) —
    #: non-terminating product programs (a ``ret`` looping through a
    #: just-written return address) end up here, exactly as the
    #: explorer's per-path ``MAX_FETCHES`` cap cuts the machine's loops.
    exhausted_paths: int = 0
    #: Per-kind counts from the transformation's site table.
    sites: Mapping[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """No budget interfered: the flagged set is the full set."""
        return not self.truncated and not self.exhausted_paths

    @property
    def secure(self) -> bool:
        return not self.violations


class _Interp:
    def __init__(self, program: Program,
                 options: ExplorationOptions) -> None:
        self.program = program
        self.options = options
        self.result = SpsResult()
        self.seen: set = set()
        self.stack: List[_State] = []
        self.done = False

    # -- bookkeeping --------------------------------------------------------

    def _record(self, st: _State, directive: Directive,
                obs: Observation) -> None:
        st.schedule.append(directive)
        st.trace.append(obs)
        st.nsteps += 1
        if len(st.schedule) > _TAIL:
            del st.schedule[:-_TAIL]
            del st.trace[:-_TAIL]
        if is_secret_dependent(obs) and repr(obs) not in self.seen:
            self.seen.add(repr(obs))
            self.result.violations.append(Violation(
                observation=obs, step_index=st.nsteps - 1,
                directive=directive, buffer_index=st.idx,
                schedule=tuple(st.schedule), trace=tuple(st.trace)))
            if self.options.stop_at_first:
                self.done = True

    def _silent(self, st: _State, directive: Directive) -> None:
        st.schedule.append(directive)
        st.nsteps += 1
        if len(st.schedule) > _TAIL:
            del st.schedule[:-_TAIL]

    def _end_path(self, st: _State) -> None:
        if not st.frames:
            self._drain(st)
        self.result.paths_explored += 1

    def _drain(self, st: _State) -> None:
        """Commit every buffered store (program end / fence)."""
        for entry in st.buf:
            st.mem = st.mem.write(entry.addr, entry.value)
            self._record(st, Execute(entry.index),
                         Write(entry.addr, entry.label))
        del st.buf[:]

    def _commit_aged(self, st: _State, bound: int) -> None:
        """Slide the window: stores ``bound`` indices old retire."""
        while st.buf and st.buf[0].index <= st.idx - bound:
            entry = st.buf.pop(0)
            st.mem = st.mem.write(entry.addr, entry.value)
            self._record(st, Execute(entry.index),
                         Write(entry.addr, entry.label))

    def _operand(self, st: _State, rv) -> Value:
        if isinstance(rv, Value):
            return rv
        got = st.regs.get(rv)
        if got is None:
            raise _Stuck(f"undefined register {rv!r}")
        return got

    def _operands(self, st: _State, rvs) -> Tuple[Value, ...]:
        return tuple(self._operand(st, rv) for rv in rvs)

    def _address(self, st: _State, args) -> Tuple[int, Value]:
        addr_v = address(self._operands(st, args))
        try:
            return concretize(addr_v), addr_v
        except ReproError as exc:
            raise _Stuck(str(exc))

    # -- load forwarding arms ----------------------------------------------

    def _load_arms(self, st: _State, addr: int, addr_v: Value,
                   load_idx: int):
        """The correct resolution plus every materialised wrong arm.

        Returns ``(value, obs, anchor, kind, directive)`` tuples; the
        first entry is the architecturally correct arm (``anchor`` is
        None), the rest open excursions ending at ``anchor + bound`` —
        the index at which the invalidating store's address resolution
        raises the hazard.
        """
        label = addr_v.label
        options = self.options
        matching = [entry for entry in st.buf if entry.addr == addr]
        arms = []
        if matching:
            newest = matching[-1]
            arms.append((newest.value, Fwd(addr, label), None, None,
                         Execute(load_idx)))
        else:
            arms.append((st.mem.read(addr), Read(addr, label), None, None,
                         Execute(load_idx)))
        if options.fwd_hazards and matching:
            oldest = matching[0]
            arms.append((st.mem.read(addr), Read(addr, label), oldest.index,
                         "bypass", Execute(oldest.index, "addr")))
            for pos, entry in enumerate(matching[:-1]):
                invalidating = matching[pos + 1]
                arms.append((entry.value, Fwd(addr, label),
                             invalidating.index, "fwd",
                             Execute(load_idx, entry.index)))
        if options.explore_aliasing:
            # The aliasing guess (§3.5) validates only when the *load*
            # resolves its own address — by which time the originating
            # store has retired, so the machine validates against
            # memory and the observation is a ``read`` at the load's
            # true address, not a ``fwd``.  The wrong value lives until
            # that validation: the window is anchored at the load.
            for entry in st.buf:
                if entry.addr != addr:
                    arms.append((entry.value, Read(addr, label), load_idx,
                                 "alias", Execute(load_idx, entry.index)))
        return arms

    # -- instruction steps --------------------------------------------------

    def _step_op(self, st: _State, instr: Op) -> None:
        value = evaluate(instr.opcode, self._operands(st, instr.args))
        st.regs[instr.dest] = value
        self._silent(st, Execute(st.idx))
        st.pc = instr.next
        st.idx += 1

    def _step_load(self, st: _State, instr: Load) -> None:
        addr, addr_v = self._address(st, instr.args)
        arms = self._load_arms(st, addr, addr_v, st.idx)
        for value, obs, anchor, kind, directive in arms[1:]:
            wrong = st.clone()
            wrong.frames.append(_Frame(
                kind, wrong.capped_end(anchor + self.options.bound)))
            if kind == "alias" and st.frames:
                # An aliasing guess emits its fwd only at validation
                # (when the load's address resolves); nested inside an
                # excursion the enclosing rollback squashes the guess
                # first, so the machine never observes it.
                self._silent(wrong, directive)
            else:
                self._record(wrong, directive, obs)
            wrong.regs[instr.dest] = value
            wrong.pc = instr.next
            wrong.idx += 1
            self.stack.append(wrong)
        value, obs, _, _, directive = arms[0]
        self._record(st, directive, obs)
        st.regs[instr.dest] = value
        st.pc = instr.next
        st.idx += 1

    def _step_store(self, st: _State, instr: Store) -> None:
        value = self._operand(st, instr.src)
        addr, addr_v = self._address(st, instr.args)
        self._record(st, Execute(st.idx, "addr"), Fwd(addr, addr_v.label))
        st.buf.append(_BufStore(st.idx, addr, value, addr_v.label))
        st.pc = instr.next
        st.idx += 1

    def _step_br(self, st: _State, instr: Br) -> None:
        cond = evaluate(instr.opcode, self._operands(st, instr.args))
        taken = truth(cond)
        correct = instr.n_true if taken else instr.n_false
        mispredicted = instr.n_false if taken else instr.n_true
        branch_idx = st.idx
        wrong = st.clone()
        wrong.frames.append(_Frame(
            "mispredict", wrong.capped_end(branch_idx + self.options.bound)))
        self._silent(wrong, Fetch(not taken))
        wrong.pc = mispredicted
        wrong.idx = branch_idx + 1
        self.stack.append(wrong)
        self._record(st, Execute(branch_idx), Jump(correct, cond.label))
        st.pc = correct
        st.idx = branch_idx + 1

    def _step_jmpi(self, st: _State, instr: Jmpi) -> None:
        target, addr_v = self._address(st, instr.args)
        jmpi_idx = st.idx
        for trained in self.options.jmpi_targets:
            if trained == target:
                continue
            wrong = st.clone()
            wrong.frames.append(_Frame(
                "mispredict", wrong.capped_end(jmpi_idx + self.options.bound)))
            self._silent(wrong, Fetch(trained))
            wrong.pc = trained
            wrong.idx = jmpi_idx + 1
            self.stack.append(wrong)
        self._record(st, Execute(jmpi_idx), Jump(target, addr_v.label))
        st.pc = target
        st.idx = jmpi_idx + 1

    def _step_fence(self, st: _State, instr: Fence) -> None:
        if st.frames:
            # Nothing younger than a fence executes speculatively: the
            # excursion is over.
            st.pc = None
            return
        self._drain(st)
        self._silent(st, Execute(st.idx))
        st.pc = instr.next
        st.idx += 1

    def _step_call(self, st: _State, instr: Call) -> None:
        rsp = self._operand(st, RSP)
        new_rsp = evaluate("succ", (rsp,))
        st.regs[RSP] = new_rsp
        try:
            addr = concretize(new_rsp)
        except ReproError as exc:
            raise _Stuck(str(exc))
        # The expanded group is marker/op/store: three buffer slots,
        # the return-address store in the third.
        store_idx = st.idx + 2
        self._record(st, Execute(store_idx, "addr"),
                     Fwd(addr, new_rsp.label))
        st.buf.append(_BufStore(store_idx, addr, Value(instr.ret),
                                new_rsp.label))
        st.rsb.append(instr.ret)
        st.pc = instr.target
        st.idx += 3

    def _step_ret(self, st: _State, instr: Ret) -> None:
        # Prediction first: it is a property of the shadow RSB, shared
        # by every forwarding arm of the return-address load.
        if st.rsb:
            predicted: Optional[int] = st.rsb.pop()
            st.last_popped = predicted
        elif self.options.rsb_policy == "refuse":
            raise _Stuck("ret with an empty RSB (policy: refuse)")
        elif self.options.rsb_policy == "circular":
            predicted = st.last_popped
        else:  # "directive": attacker supplies the fetch target
            predicted = None
        rsp = self._operand(st, RSP)
        addr_v = address((rsp,))
        try:
            addr = concretize(addr_v)
        except ReproError as exc:
            raise _Stuck(str(exc))
        # Group footprint marker/load/op/jmpi: four slots, load second,
        # jmpi fourth.
        load_idx = st.idx + 1
        jmpi_idx = st.idx + 3
        st.regs[RSP] = evaluate("pred", (rsp,))
        arms = self._load_arms(st, addr, addr_v, load_idx)
        correct_value, correct_obs, _, _, correct_dir = arms[0]
        for value, obs, anchor, kind, directive in arms[1:]:
            wrong = st.clone()
            wrong.frames.append(_Frame(
                kind, wrong.capped_end(anchor + self.options.bound)))
            if kind == "alias" and st.frames:
                self._silent(wrong, directive)  # see _step_load
            else:
                self._record(wrong, directive, obs)
            self._finish_ret(wrong, value, predicted, jmpi_idx,
                             speculative_load=True)
        self._record(st, correct_dir, correct_obs)
        self._finish_ret(st, correct_value, predicted, jmpi_idx,
                         speculative_load=False)

    def _finish_ret(self, st: _State, value: Value,
                    predicted: Optional[int], jmpi_idx: int,
                    *, speculative_load: bool) -> None:
        """Resolve the return's indirect jump against the prediction.

        Every continuation (the architectural one included) is pushed
        onto the DFS stack: the main loop hands control back after a
        ``ret`` and re-pops them.
        """
        end = st.idx + 4
        try:
            actual = concretize(value)
        except ReproError:
            st.pc = None
            self.stack.append(st)
            return
        if predicted is None:
            # RSB underflow, "directive" policy: the attacker may fetch
            # any trained target; the correct continuation resolves with
            # a rollback either way.
            for trained in self.options.rsb_targets:
                if trained == actual:
                    continue
                wrong = st.clone()
                wrong.frames.append(_Frame("mispredict", wrong.capped_end(
                    jmpi_idx + self.options.bound)))
                self._silent(wrong, Fetch(trained))
                wrong.pc = trained
                wrong.idx = end
                self.stack.append(wrong)
        elif predicted != actual:
            # Mispredicted return: the wrong path runs at the predicted
            # target until the jump resolves.
            wrong = st.clone()
            wrong.frames.append(_Frame(
                "mispredict", wrong.capped_end(jmpi_idx + self.options.bound)))
            self._silent(wrong, Fetch(predicted))
            wrong.pc = predicted
            wrong.idx = end
            self.stack.append(wrong)
        if speculative_load and predicted is not None and predicted == actual:
            # A wrong forwarded value that happens to match the
            # prediction never resolves before the forwarding hazard
            # squashes the group: no transient jump observation.
            self._silent(st, Execute(jmpi_idx))
            st.pc = predicted
        else:
            self._record(st, Execute(jmpi_idx), Jump(actual, value.label))
            st.pc = actual
        st.idx = end
        self.stack.append(st)

    # -- driver -------------------------------------------------------------

    def run(self, config: Config) -> SpsResult:
        root = _State(dict(config.regs), config.mem, config.pc)
        self.stack.append(root)
        max_paths = self.options.max_paths
        while self.stack and not self.done:
            if self.result.paths_explored >= max_paths:
                self.result.truncated = True
                break
            st = self.stack.pop()
            self._run_path(st)
        return self.result

    def _run_path(self, st: _State) -> None:
        bound, max_steps = self.options.bound, self.options.max_steps
        while not self.done:
            if st.nsteps >= max_steps or st.idx >= MAX_FETCHES:
                # Per-path budgets, mirroring the explorer's
                # max_steps/MAX_FETCHES: this path is cut, but every
                # queued sibling arm still runs — a non-terminating
                # architectural loop cannot starve the search.
                self.result.exhausted_paths += 1
                self.result.paths_explored += 1
                return
            end = st.window_end
            if end is not None and st.idx >= end:
                break  # rollback point: the excursion's window is spent
            if st.pc is None:
                break
            instr = self.program.get(st.pc)
            if instr is None:
                st.pc = None
                break
            self._commit_aged(st, bound)
            self.result.states_stepped += 1
            try:
                if isinstance(instr, Op):
                    self._step_op(st, instr)
                elif isinstance(instr, Load):
                    self._step_load(st, instr)
                elif isinstance(instr, Store):
                    self._step_store(st, instr)
                elif isinstance(instr, Br):
                    self._step_br(st, instr)
                elif isinstance(instr, Jmpi):
                    self._step_jmpi(st, instr)
                elif isinstance(instr, Fence):
                    self._step_fence(st, instr)
                elif isinstance(instr, Call):
                    self._step_call(st, instr)
                elif isinstance(instr, Ret):
                    self._step_ret(st, instr)
                    return  # _step_ret queued every continuation
                else:  # pragma: no cover - exhaustive over the ISA
                    raise _Stuck(f"unknown instruction {instr!r}")
            except _Stuck:
                break
        self._end_path(st)


def explore_sps(program: Program, config: Config,
                options: Optional[ExplorationOptions] = None,
                **overrides) -> SpsResult:
    """Decide speculative constant time by sequential check of the
    speculation-passing product program.

    Takes the :class:`~repro.pitchfork.ExplorationOptions` record that
    :func:`repro.pitchfork.analyze` takes, plus keyword overrides of its
    fields — same speculation bound, same Spectre-variant toggles, same
    per-path ``max_steps``/``MAX_FETCHES`` budgets — so the two
    backends are run on identical questions and their flagged
    observation sets are directly comparable.  The search-order knobs
    (``strategy``, ``prune``, ``subsume``, ...) have no meaning for an
    in-order interpreter and are not read.
    """
    options = resolve_options(options, overrides)
    result = _Interp(program, options).run(config)
    result.sites = site_counts(speculation_sites(program, options))
    return result
