"""The speculative out-of-order machine — every rule of Section 3 + App A.

:class:`Machine` implements the small-step relation ``C ↪_d^o C'``: given
a configuration and an attacker directive it produces the successor
configuration and the step's (possibly compound) leakage.

Implemented rules
-----------------

==============================  =============================================
fetch                           cond-fetch, simple-fetch, jmpi-fetch,
                                call-direct-fetch, ret-fetch-rsb,
                                ret-fetch-rsb-empty
execute                         op-execute, cond-execute-correct/-incorrect,
                                jmpi-execute-correct/-incorrect,
                                load-execute-nodep / -forward,
                                load-execute-forwarded-guessed (§3.5),
                                load-execute-addr-ok / -addr-hazard (§3.5),
                                load-execute-addr-mem-match / -mem-hazard,
                                store-execute-value,
                                store-execute-addr-ok / -addr-hazard
retire                          value-retire, store-retire, jump-retire,
                                fence-retire, call-retire, ret-retire
==============================  =============================================

Engineering notes (documented divergences, both also in DESIGN.md):

* Reorder-buffer indices increase monotonically across retires instead of
  resetting when the buffer drains; this matches the paper's own worked
  examples (e.g. Fig 13 numbers new fetches above retired indices) and is
  required for the RSB's index-ordered command log to be meaningful.
* A hazard rollback that targets a load fetched as part of a call/ret
  group squashes the *whole* group (the group's transients are useless
  without their marker) and resumes at the group's program point.  The
  observation sequence is unchanged.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .config import Config
from .directives import Directive, Execute, Fetch, Retire
from .errors import StuckError
from .isa import (Br, Call, Fence, Instruction, Jmpi, Load, Op, Ret, Store,
                  address, concretize, evaluate, next_of, truth)
from .observations import Fwd, Jump, Read, Rollback, StepLeakage, Write
from .program import Program
from .rob import ReorderBuffer, resolve_operand, resolve_operands
from .transient import (TBr, TCallMarker, TFence, TJmpi, TJump, TLoad, TOp,
                        TRetMarker, TStore, TValue, Transient)
from .values import BOTTOM, Reg, Value

#: Register used as the stack pointer by call/ret (Appendix A.2).
RSP = Reg("rsp")

#: Scratch register used by the ret sequence (Appendix A.2).
RTMP = Reg("rtmp")


class Machine:
    """The speculative machine for a fixed program.

    Parameters
    ----------
    program:
        The program memory µ (instruction half).
    rsb_policy:
        Behaviour of ``ret`` fetched with an empty RSB:
        ``"directive"`` (attacker supplies the target — Intel BTB
        fallback), ``"refuse"`` (stuck — AMD), or ``"circular"``
        (replay a stale slot — most Intel).  See Appendix A.2.
    """

    def __init__(self, program: Program, rsb_policy: str = "directive"):
        if rsb_policy not in ("directive", "refuse", "circular"):
            raise ValueError(f"unknown rsb_policy {rsb_policy!r}")
        self.program = program
        self.rsb_policy = rsb_policy

    # ------------------------------------------------------------------
    # The step function
    # ------------------------------------------------------------------

    def step(self, config: Config,
             directive: Directive) -> Tuple[Config, StepLeakage]:
        """One small step ``C ↪_d^o C'``; raises StuckError if no rule
        applies."""
        if isinstance(directive, Fetch):
            return self._fetch(config, directive)
        if isinstance(directive, Execute):
            return self._execute(config, directive)
        if isinstance(directive, Retire):
            return self._retire(config)
        raise StuckError(f"unknown directive {directive!r}", directive)

    # ------------------------------------------------------------------
    # Fetch stage
    # ------------------------------------------------------------------

    def _fetch(self, config: Config,
               d: Fetch) -> Tuple[Config, StepLeakage]:
        instr = self.program.get(config.pc)
        if instr is None:
            raise StuckError(f"nothing to fetch at program point {config.pc}", d)

        if isinstance(instr, Br):
            return self._fetch_br(config, instr, d)
        if isinstance(instr, Jmpi):
            return self._fetch_jmpi(config, instr, d)
        if isinstance(instr, Call):
            return self._fetch_call(config, instr, d)
        if isinstance(instr, Ret):
            return self._fetch_ret(config, instr, d)
        if d.pred is not None:
            raise StuckError(f"{instr!r} takes a plain fetch directive", d)

        # simple-fetch: op / load / store / fence.
        transient = self._transient_of(instr, config.pc)
        _i, buf = config.buf.insert_next(transient)
        return config.with_(pc=next_of(instr), buf=buf), ()

    @staticmethod
    def _transient_of(instr: Instruction, pc: int) -> Transient:
        """``transient(µ(n))`` for the simple-fetch rule.

        Loads are annotated with their program point ``pc`` — hazard
        rollbacks resume there (§3.4).
        """
        if isinstance(instr, Op):
            return TOp(instr.dest, instr.opcode, instr.args)
        if isinstance(instr, Load):
            return TLoad(instr.dest, instr.args, pp=pc)
        if isinstance(instr, Store):
            return TStore(instr.src, instr.args)
        if isinstance(instr, Fence):
            return TFence()
        raise StuckError(f"{instr!r} has no simple transient form")

    def _fetch_br(self, config: Config, instr: Br,
                  d: Fetch) -> Tuple[Config, StepLeakage]:
        """cond-fetch: speculatively follow the directive's arm."""
        if not isinstance(d.pred, bool):
            raise StuckError("br requires fetch: true or fetch: false", d)
        guess = instr.n_true if d.pred else instr.n_false
        transient = TBr(instr.opcode, instr.args, guess,
                        (instr.n_true, instr.n_false))
        _i, buf = config.buf.insert_next(transient)
        return config.with_(pc=guess, buf=buf), ()

    def _fetch_jmpi(self, config: Config, instr: Jmpi,
                    d: Fetch) -> Tuple[Config, StepLeakage]:
        """jmpi-fetch: the attacker guesses the target (App A.1)."""
        if not isinstance(d.pred, int) or isinstance(d.pred, bool):
            raise StuckError("jmpi requires fetch: n with a program point", d)
        transient = TJmpi(instr.args, d.pred)
        _i, buf = config.buf.insert_next(transient)
        return config.with_(pc=d.pred, buf=buf), ()

    def _fetch_call(self, config: Config, instr: Call,
                    d: Fetch) -> Tuple[Config, StepLeakage]:
        """call-direct-fetch: marker + rsp bump + return-address store."""
        if d.pred is not None:
            raise StuckError("call takes a plain fetch directive", d)
        i = config.buf.max_index() + 1
        group = (
            TCallMarker(),
            TOp(RSP, "succ", (RSP,)),
            TStore(Value(instr.ret), (RSP,)),
        )
        buf = config.buf.append_all(group)
        rsb = config.rsb.push(i, instr.ret)
        return config.with_(pc=instr.target, buf=buf, rsb=rsb), ()

    def _fetch_ret(self, config: Config, instr: Ret,
                   d: Fetch) -> Tuple[Config, StepLeakage]:
        """ret-fetch-rsb / ret-fetch-rsb-empty (App A.2)."""
        predicted = config.rsb.top()
        if predicted is BOTTOM:
            if self.rsb_policy == "refuse":
                raise StuckError("RSB empty and policy refuses to speculate", d)
            if self.rsb_policy == "circular":
                if d.pred is not None:
                    raise StuckError("circular RSB ignores fetch targets", d)
                target = config.rsb.last_popped()
            else:  # "directive": the attacker picks the target.
                if not isinstance(d.pred, int) or isinstance(d.pred, bool):
                    raise StuckError(
                        "ret with empty RSB requires fetch: n", d)
                target = d.pred
        else:
            if d.pred is not None:
                raise StuckError("ret with a usable RSB takes a plain fetch", d)
            target = predicted

        i = config.buf.max_index() + 1
        group = (
            TRetMarker(),
            TLoad(RTMP, (RSP,), pp=config.pc, group=i),
            TOp(RSP, "pred", (RSP,)),
            TJmpi((RTMP,), target),
        )
        buf = config.buf.append_all(group)
        rsb = config.rsb.pop(i)
        return config.with_(pc=target, buf=buf, rsb=rsb), ()

    # ------------------------------------------------------------------
    # Execute stage
    # ------------------------------------------------------------------

    def _execute(self, config: Config,
                 d: Execute) -> Tuple[Config, StepLeakage]:
        i = d.index
        if i not in config.buf:
            raise StuckError(f"no buffer entry at index {i}", d)
        self._check_no_fence_before(config.buf, i, d)
        instr = config.buf[i]

        if isinstance(instr, TOp) and d.part is None:
            return self._exec_op(config, i, instr)
        if isinstance(instr, TBr) and d.part is None:
            return self._exec_br(config, i, instr)
        if isinstance(instr, TJmpi) and d.part is None:
            return self._exec_jmpi(config, i, instr)
        if isinstance(instr, TLoad):
            if isinstance(d.part, int):
                return self._exec_load_guess_fwd(config, i, instr, d.part)
            if d.part is None and instr.pred is None:
                return self._exec_load_plain(config, i, instr)
            if d.part is None:
                return self._exec_load_predicted(config, i, instr)
        if isinstance(instr, TStore):
            if d.part == "value":
                return self._exec_store_value(config, i, instr)
            if d.part == "addr":
                return self._exec_store_addr(config, i, instr)
        raise StuckError(f"directive {d!r} does not apply to {instr!r}", d)

    @staticmethod
    def _check_no_fence_before(buf: ReorderBuffer, i: int,
                               d: Directive) -> None:
        """The highlighted side condition ``∀j < i : buf(j) ≠ fence``.

        Uses the buffer's cached oldest-fence index — this check runs
        on every execute step, so rescanning the window would be
        quadratic over a speculation bound's worth of executes.
        """
        j = buf.first_fence()
        if j is not None and j < i:
            raise StuckError(
                f"fence at {j} blocks execution of index {i}", d)

    def _resolve_all(self, config: Config, i: int, args) -> Tuple[Value, ...]:
        try:
            vals = resolve_operands(config.buf, i, config.regs, args)
        except KeyError as e:
            # A (speculative) path read a register the program never
            # defined; treat as unresolvable rather than crashing.
            raise StuckError(f"undefined register at buffer index {i}: {e}")
        if vals is None:
            raise StuckError(f"operands of buffer index {i} are unresolved")
        return vals

    # -- ops ------------------------------------------------------------

    def _exec_op(self, config: Config, i: int,
                 instr: TOp) -> Tuple[Config, StepLeakage]:
        """Resolve an arithmetic op to a value instruction (Table 1)."""
        vals = self._resolve_all(config, i, instr.args)
        result = evaluate(instr.opcode, vals)
        buf = config.buf.set(i, TValue(instr.dest, result))
        return config.with_(buf=buf), ()

    # -- conditional branches (§3.3) -------------------------------------

    def _exec_br(self, config: Config, i: int,
                 instr: TBr) -> Tuple[Config, StepLeakage]:
        vals = self._resolve_all(config, i, instr.args)
        cond = evaluate(instr.opcode, vals)
        taken = truth(cond)
        target = instr.targets[0] if taken else instr.targets[1]
        label = cond.label
        if target == instr.guess:
            # cond-execute-correct
            buf = config.buf.set(i, TJump(target))
            return config.with_(buf=buf), (Jump(target, label),)
        # cond-execute-incorrect: squash everything younger than i.
        buf = config.buf.truncate_before(i)
        _i, buf = buf.insert_next(TJump(target))
        rsb = config.rsb.truncate_before(i)
        new = config.with_(pc=target, buf=buf, rsb=rsb)
        return new, (Rollback(), Jump(target, label))

    # -- indirect jumps (App A.1) -----------------------------------------

    def _exec_jmpi(self, config: Config, i: int,
                   instr: TJmpi) -> Tuple[Config, StepLeakage]:
        vals = self._resolve_all(config, i, instr.args)
        addr = address(vals)
        target = concretize(addr)
        label = addr.label
        if target == instr.guess:
            # jmpi-execute-correct
            buf = config.buf.set(i, TJump(target))
            return config.with_(buf=buf), (Jump(target, label),)
        # jmpi-execute-incorrect
        buf = config.buf.truncate_before(i)
        _i, buf = buf.insert_next(TJump(target))
        rsb = config.rsb.truncate_before(i)
        new = config.with_(pc=target, buf=buf, rsb=rsb)
        return new, (Rollback(), Jump(target, label))

    # -- loads (§3.4) -------------------------------------------------------

    def _matching_stores(self, buf: ReorderBuffer, below: int,
                         addr: int) -> List[int]:
        """Indices j < below of stores with a resolved address equal to
        ``addr`` (the pattern ``buf(j) = store(_, a)``)."""
        out = []
        for j, instr in buf.items():
            if j >= below:
                break
            if (type(instr) is TStore and instr.addr is not None
                    and concretize(instr.addr) == addr):
                out.append(j)
        return out

    def _exec_load_plain(self, config: Config, i: int,
                         instr: TLoad) -> Tuple[Config, StepLeakage]:
        """load-execute-nodep / load-execute-forward."""
        vals = self._resolve_all(config, i, instr.args)
        addr_v = address(vals)
        a = concretize(addr_v)
        label = addr_v.label
        matching = self._matching_stores(config.buf, i, a)
        if not matching:
            # load-execute-nodep: read from memory.
            value = config.mem.read(a)
            buf = config.buf.set(i, TValue(instr.dest, value, dep=BOTTOM,
                                           addr=a, pp=instr.pp,
                                           group=instr.group))
            return config.with_(buf=buf), (Read(a, label),)
        j = max(matching)
        store = config.buf[j]
        assert isinstance(store, TStore)
        if not store.value_resolved():
            raise StuckError(
                f"matching store at {j} has an unresolved value; resolve it "
                f"first or choose a different schedule")
        # load-execute-forward: take the store's data, skip memory.
        buf = config.buf.set(i, TValue(instr.dest, store.src, dep=j,
                                       addr=a, pp=instr.pp,
                                       group=instr.group))
        return config.with_(buf=buf), (Fwd(a, label),)

    def _exec_load_guess_fwd(self, config: Config, i: int, instr: TLoad,
                             j: int) -> Tuple[Config, StepLeakage]:
        """load-execute-forwarded-guessed (§3.5): the aliasing predictor
        forwards from store ``j`` before the load's address is known."""
        if instr.pred is not None:
            raise StuckError(f"load at {i} already has a forwarded value")
        if j >= i or j not in config.buf:
            raise StuckError(f"fwd source {j} must be an older buffer entry")
        store = config.buf[j]
        if not isinstance(store, TStore) or not store.value_resolved():
            raise StuckError(
                f"fwd source {j} must be a store with a resolved value")
        assert isinstance(store.src, Value)
        buf = config.buf.set(
            i, TLoad(instr.dest, instr.args, pp=instr.pp,
                     pred=(store.src, j), group=instr.group))
        return config.with_(buf=buf), ()

    def _exec_load_predicted(self, config: Config, i: int,
                             instr: TLoad) -> Tuple[Config, StepLeakage]:
        """Resolve a partially resolved load (§3.5): check the guessed
        forward against the now-known address."""
        assert instr.pred is not None
        value, j = instr.pred
        vals = self._resolve_all(config, i, instr.args)
        addr_v = address(vals)
        a = concretize(addr_v)
        label = addr_v.label

        if j in config.buf:
            store = config.buf[j]
            assert isinstance(store, TStore)
            store_addr_ok = (not store.addr_resolved()
                             or concretize(store.addr) == a)
            intervening = [k for k in self._matching_stores(config.buf, i, a)
                           if j < k]
            if store_addr_ok and not intervening:
                # load-execute-addr-ok
                buf = config.buf.set(i, TValue(instr.dest, value, dep=j,
                                               addr=a, pp=instr.pp,
                                               group=instr.group))
                return config.with_(buf=buf), (Fwd(a, label),)
            # load-execute-addr-hazard: squash the load and younger.
            return self._rollback_to_load(config, i, instr.pp, instr.group,
                                          (Rollback(), Fwd(a, label)))

        # Originating store already retired: validate against memory.
        if self._matching_stores(config.buf, i, a):
            raise StuckError(
                f"prior in-flight store to {a:#x} shadows memory validation")
        actual = config.mem.read(a)
        if actual == value:
            # load-execute-addr-mem-match
            buf = config.buf.set(i, TValue(instr.dest, value, dep=BOTTOM,
                                           addr=a, pp=instr.pp,
                                           group=instr.group))
            return config.with_(buf=buf), (Read(a, label),)
        # load-execute-addr-mem-hazard
        return self._rollback_to_load(config, i, instr.pp, instr.group,
                                      (Rollback(), Read(a, label)))

    def _rollback_to_load(self, config: Config, k: int, pp: int,
                          group: Optional[int],
                          leak: StepLeakage) -> Tuple[Config, StepLeakage]:
        """Squash buffer index ``k`` and younger and refetch from ``pp``.

        When the hazarded load belongs to a call/ret group, the whole
        group (starting at its marker) is squashed instead, since the
        remaining group fragments could never retire.
        """
        cut = group if group is not None else k
        buf = config.buf.truncate_before(cut)
        rsb = config.rsb.truncate_before(cut)
        return config.with_(pc=pp, buf=buf, rsb=rsb), leak

    # -- stores (§3.4) -----------------------------------------------------

    def _exec_store_value(self, config: Config, i: int,
                          instr: TStore) -> Tuple[Config, StepLeakage]:
        """store-execute-value."""
        if instr.value_resolved():
            raise StuckError(f"store at {i} already has a resolved value")
        try:
            value = resolve_operand(config.buf, i, config.regs, instr.src)
        except KeyError as e:
            raise StuckError(f"undefined register at buffer index {i}: {e}")
        if value is BOTTOM:
            raise StuckError(f"store data at {i} is still unresolved")
        buf = config.buf.set(i, TStore(value, instr.args, instr.addr))
        return config.with_(buf=buf), ()

    def _exec_store_addr(self, config: Config, i: int,
                         instr: TStore) -> Tuple[Config, StepLeakage]:
        """store-execute-addr-ok / store-execute-addr-hazard.

        The hazard check walks all younger *resolved* loads
        ``(r = v{j_k, a_k})``: a load of address ``a`` that took its value
        from memory (``j_k = ⊥``) or from a store older than this one
        (``j_k < i``) read stale data; a load that forwarded from *this*
        store (``j_k = i``) but resolved a different address forwarded
        wrongly.  (⊥ < n for all n, per §3.4.)
        """
        if instr.addr_resolved():
            raise StuckError(f"store at {i} already has a resolved address")
        vals = self._resolve_all(config, i, instr.args)
        addr_v = address(vals)
        a = concretize(addr_v)
        label = addr_v.label
        resolved = Value(a, label)

        hazard_k: Optional[int] = None
        hazard_load: Optional[TValue] = None
        for k, entry in config.buf.items():
            # Younger resolved loads only: TValue with a load annotation.
            if k <= i or type(entry) is not TValue or entry.addr is None:
                continue
            jk, ak = entry.dep, entry.addr
            jk_lt_i = (jk is BOTTOM) or (jk < i)  # ⊥ < n for every n
            stale_read = (ak == a and jk_lt_i)
            wrong_fwd = (jk == i and ak != a)
            if stale_read or wrong_fwd:
                hazard_k = k
                hazard_load = entry
                break  # min(k) > i: the earliest hazarded load

        if hazard_k is None:
            # store-execute-addr-ok
            buf = config.buf.set(i, TStore(instr.src, instr.args, resolved))
            return config.with_(buf=buf), (Fwd(a, label),)

        # store-execute-addr-hazard: squash the hazarded load and younger,
        # keep (and resolve) this store, restart at the load's pp.
        assert hazard_load is not None
        cut = hazard_load.group if hazard_load.group is not None else hazard_k
        buf = config.buf.truncate_before(cut)
        buf = buf.set(i, TStore(instr.src, instr.args, resolved))
        rsb = config.rsb.truncate_before(cut)
        new = config.with_(pc=hazard_load.pp, buf=buf, rsb=rsb)
        return new, (Rollback(), Fwd(a, label))

    # ------------------------------------------------------------------
    # Retire stage
    # ------------------------------------------------------------------

    def _retire(self, config: Config) -> Tuple[Config, StepLeakage]:
        if not config.buf:
            raise StuckError("nothing to retire")
        i = config.buf.min_index()
        instr = config.buf[i]

        if isinstance(instr, TValue):
            # value-retire (also used for resolved loads).
            regs = dict(config.regs)
            regs[instr.dest] = instr.value
            return config.with_(regs=regs, buf=config.buf.remove_min()), ()

        if isinstance(instr, TStore):
            if not instr.fully_resolved():
                raise StuckError(f"store at {i} is not fully resolved")
            assert isinstance(instr.src, Value) and instr.addr is not None
            a = concretize(instr.addr)
            mem = config.mem.write(a, instr.src)
            leak = (Write(a, instr.addr.label),)
            return config.with_(mem=mem, buf=config.buf.remove_min()), leak

        if isinstance(instr, TJump):
            # jump-retire
            return config.with_(buf=config.buf.remove_min()), ()

        if isinstance(instr, TFence):
            # fence-retire
            return config.with_(buf=config.buf.remove_min()), ()

        if isinstance(instr, TCallMarker):
            return self._retire_call(config, i)

        if isinstance(instr, TRetMarker):
            return self._retire_ret(config, i)

        raise StuckError(f"cannot retire unresolved {instr!r}")

    def _retire_call(self, config: Config, i: int) -> Tuple[Config, StepLeakage]:
        """call-retire: commit rsp and the return-address store together."""
        bump = config.buf.get(i + 1)
        store = config.buf.get(i + 2)
        if not (isinstance(bump, TValue) and bump.dest == RSP):
            raise StuckError("call group: rsp bump not yet resolved")
        if not (isinstance(store, TStore) and store.fully_resolved()):
            raise StuckError("call group: return-address store not resolved")
        assert isinstance(store.src, Value) and store.addr is not None
        regs = dict(config.regs)
        regs[RSP] = bump.value
        a = concretize(store.addr)
        mem = config.mem.write(a, store.src)
        leak = (Write(a, store.addr.label),)
        return config.with_(regs=regs, mem=mem,
                            buf=config.buf.remove_min(3)), leak

    def _retire_ret(self, config: Config, i: int) -> Tuple[Config, StepLeakage]:
        """ret-retire: commit rsp only (rtmp is microarchitectural)."""
        load = config.buf.get(i + 1)
        bump = config.buf.get(i + 2)
        jump = config.buf.get(i + 3)
        if not (isinstance(load, TValue) and load.dest == RTMP):
            raise StuckError("ret group: return-address load not resolved")
        if not (isinstance(bump, TValue) and bump.dest == RSP):
            raise StuckError("ret group: rsp bump not yet resolved")
        if not isinstance(jump, TJump):
            raise StuckError("ret group: indirect jump not yet resolved")
        regs = dict(config.regs)
        regs[RSP] = bump.value
        return config.with_(regs=regs, buf=config.buf.remove_min(4)), ()

    # ------------------------------------------------------------------
    # Directive enumeration (for explorers and random testing)
    # ------------------------------------------------------------------

    def enabled_directives(self, config: Config,
                           jmpi_candidates: Iterable[int] = ()) -> List[Directive]:
        """All directives that take a step from ``config``.

        ``jmpi_candidates`` seeds guessed targets for indirect fetches
        (the space of ``fetch: n`` is unbounded; callers choose it).
        Determined by trial stepping, which is exact by construction.
        """
        candidates: List[Directive] = []
        instr = self.program.get(config.pc)
        if isinstance(instr, Br):
            candidates += [Fetch(True), Fetch(False)]
        elif isinstance(instr, (Jmpi, Ret)):
            candidates.append(Fetch(None))
            candidates += [Fetch(n) for n in jmpi_candidates]
        elif instr is not None:
            candidates.append(Fetch(None))
        for i, entry in config.buf.items():
            if isinstance(entry, TStore):
                candidates += [Execute(i, "value"), Execute(i, "addr")]
            elif isinstance(entry, TLoad):
                candidates.append(Execute(i))
                for j, other in config.buf.items():
                    if j < i and isinstance(other, TStore):
                        candidates.append(Execute(i, j))
            elif isinstance(entry, (TOp, TBr, TJmpi)):
                candidates.append(Execute(i))
        if config.buf:
            candidates.append(Retire())

        enabled = []
        for d in candidates:
            try:
                self.step(config, d)
            except StuckError:
                continue
            enabled.append(d)
        return enabled
