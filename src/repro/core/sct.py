"""Speculative constant-time — Definition 3.1, executable.

A configuration C with schedule D satisfies SCT iff for every C' with
``C ≃pub C'``::

    C ⇓_D^O C1   iff   C' ⇓_D^O' C1'   and   C1 ≃pub C1'   and   O = O'.

This module provides the two-trace check directly (``check_pair``), a
quantifier over secret variations (``check_sct``), and helpers to
construct low-equivalent partner configurations by re-drawing secret
payloads.

For programs that are *sequentially* constant-time (all crypto code the
paper audits), Corollary B.10 lets a single-trace criterion stand in:
some observation carries a non-public label iff SCT fails under some
partner.  That criterion is what Pitchfork flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .config import Config
from .directives import Schedule
from .errors import StuckError
from .executor import run
from .machine import Machine
from .observations import Trace
from .values import Value


@dataclass(frozen=True)
class SCTCounterExample:
    """Witness of an SCT violation: two low-equivalent runs that differ."""

    schedule: Schedule
    config_a: Config
    config_b: Config
    trace_a: Trace
    trace_b: Trace
    reason: str

    def first_divergence(self) -> Optional[int]:
        for k, (x, y) in enumerate(zip(self.trace_a, self.trace_b)):
            if x != y:
                return k
        if len(self.trace_a) != len(self.trace_b):
            return min(len(self.trace_a), len(self.trace_b))
        return None


@dataclass(frozen=True)
class SCTResult:
    """Outcome of an SCT check over a family of configuration pairs.

    ``ok=True`` with ``vacuous=True`` means the quantifier was empty —
    every generated partner equalled the configuration or failed
    low-equivalence, so *no pair was actually checked*.  Callers must
    not read a vacuous pass as evidence of security.
    """

    ok: bool
    counterexample: Optional[SCTCounterExample] = None
    pairs_checked: int = 0
    vacuous: bool = False

    def __bool__(self) -> bool:
        return self.ok


def check_pair(machine: Machine, config_a: Config, config_b: Config,
               schedule: Schedule) -> Optional[SCTCounterExample]:
    """Definition 3.1 for one pair and one schedule.

    Returns a counterexample, or None if the pair is indistinguishable.
    """
    if not config_a.low_equivalent(config_b):
        raise ValueError("check_pair needs low-equivalent configurations")
    try:
        ra = run(machine, config_a, schedule, record_steps=False)
        a_ok = True
    except StuckError:
        a_ok = False
    try:
        rb = run(machine, config_b, schedule, record_steps=False)
        b_ok = True
    except StuckError:
        b_ok = False
    if a_ok != b_ok:
        # The schedule is well-formed for one side only: distinguishable.
        return SCTCounterExample(schedule, config_a, config_b,
                                 ra.trace if a_ok else (),
                                 rb.trace if b_ok else (),
                                 "well-formedness differs")
    if not a_ok:
        return None  # stuck on both sides at the same schedule: vacuous
    if ra.trace != rb.trace:
        return SCTCounterExample(schedule, config_a, config_b,
                                 ra.trace, rb.trace,
                                 "observation traces differ")
    if not ra.final.low_equivalent(rb.final):
        return SCTCounterExample(schedule, config_a, config_b,
                                 ra.trace, rb.trace,
                                 "final configurations not low-equivalent")
    return None


def secret_variations(config: Config,
                      payloads: Sequence[int] = (0, 1, 7, 42, 255),
                      limit: int = 8) -> List[Config]:
    """Low-equivalent partners of ``config`` obtained by re-drawing every
    secret register and memory cell from ``payloads``.

    The full product is truncated to ``limit`` configurations, cycling
    payload choices so that each secret location varies at least once.
    """
    secret_regs = [r for r, v in config.regs.items() if not v.is_public()]
    secret_addrs = [a for a in config.mem.addresses()
                    if not config.mem.read(a).is_public()]
    slots = len(secret_regs) + len(secret_addrs)
    if slots == 0:
        return [config]
    out: List[Config] = []
    for k in range(limit):
        regs = dict(config.regs)
        mem = config.mem
        for s, reg in enumerate(secret_regs):
            payload = payloads[(k + s) % len(payloads)]
            regs[reg] = Value(payload, regs[reg].label)
        writes = []
        for s, addr in enumerate(secret_addrs):
            payload = payloads[(k + len(secret_regs) + s) % len(payloads)]
            writes.append((addr, Value(payload, mem.read(addr).label)))
        mem = mem.write_all(writes)
        candidate = config.with_(regs=regs, mem=mem)
        if candidate not in out:
            out.append(candidate)
    return out


def check_sct(machine: Machine, config: Config,
              schedules: Iterable[Schedule],
              partners: Optional[Iterable[Config]] = None) -> SCTResult:
    """Check Definition 3.1 for ``config`` over the given schedules,
    against either the provided partners or auto-generated secret
    variations.

    ``machine`` may also be a :class:`repro.engine.ExecutionEngine`,
    which counts the quantifier's work (every schedule × every partner,
    two runs per pair) so it can surface in ``api.Report``.
    """
    partner_list = list(partners) if partners is not None \
        else secret_variations(config)
    pairs = 0
    for schedule in schedules:
        for partner in partner_list:
            if partner == config:
                continue
            if not config.low_equivalent(partner):
                continue
            pairs += 1
            cex = check_pair(machine, config, partner, schedule)
            if cex is not None:
                return SCTResult(False, cex, pairs)
    return SCTResult(True, None, pairs, vacuous=(pairs == 0))
