"""Independence-based partial-order reduction for the schedule tree.

Definition B.18's tool schedules DT(n) contain *families* of schedules
that are permutations of one another by swaps of adjacent, commuting
directives — Mazurkiewicz-equivalent interleavings that reach the same
configuration and produce the same observation multiset, so exploring
more than one representative per class is pure waste.  Two sources
dominate:

* **store-address deferral** (§4.1): "resolve the address now, or defer
  it" is a choice point for *every* store, but the two arms only differ
  observably when the store's address aliases an in-flight load — for
  every other store the arms commute with the rest of the schedule;
* **rollback joins**: the continuation after a misprediction or hazard
  rollback re-converges with the sibling arm that predicted (or
  forwarded) correctly — Theorem B.7-style determinism makes the two
  subtrees equivalent, so the rolled-back path's continuation is a
  duplicate whenever that sibling arm was generated at the same fork.

This module supplies the ingredients the drivers prune with:

* :func:`footprint` / :func:`independent` — the commutation relation
  over directive pairs: two directives are independent when their
  read/write footprints (ROB indices, register sources, memory cells,
  control state) are disjoint and neither can raise a hazard affecting
  the other, and both orders are enabled.  Swapping an independent
  adjacent pair in a schedule replays to the same final configuration
  and the same observations (checked, not just argued, by
  ``tests/test_por_independence.py``);
* **sleep-set entries** — ``("fwd", s, l)`` records that the outcome
  "store ``s`` forwards to load ``l``" is covered by a sibling arm;
  ``("redirect", i)`` records that the redirect outcome of the
  mispredicted control transfer at buffer index ``i`` is covered.  A
  path whose rollback lands on a sleeping outcome is *finished* at the
  rollback: the sibling arm explores the (equivalent) continuation.
  Entries are invalidated the moment a member index leaves the buffer
  (indices are reused after rollbacks and drains, see
  :class:`~repro.core.rob.ReorderBuffer`);
* :func:`hazard_load` — mirrors the machine's store-addr hazard scan so
  the driver can name the (store, load) pair a rollback was for;
* :class:`PruningStats` — classes explored / schedules skipped,
  surfaced in reports.

Pruning levels (:data:`PRUNE_LEVELS`), validated by
:func:`validate_prune`:

``none``
    Faithful Definition B.18: every store-address deferral is a real
    fork and rolled-back paths run to completion.  The unreduced
    baseline the differential suite and ``BENCH_por.json`` compare
    against.
``sleepset``
    The matching-store reduction (deferral forks only where the store
    may alias an in-flight load — the footprint-disjointness argument)
    plus branch-misprediction rollback joins: the seed explorer's
    reductions.
``full``
    ``sleepset`` plus speculation-window capping on every *covered*
    rollback: store-forwarding hazard joins, aliasing-prediction
    validation joins, and mispredicted jmpi/ret redirect joins, plus
    collapse of degenerate fork arms that step to identical
    configurations.  This is the default.

See DESIGN.md ("Partial-order reduction") for the soundness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set, Tuple

from ..core.config import Config
from ..core.directives import Directive, Execute, Fetch, Retire
from ..core.errors import ReproError
from ..core.isa import Call, Ret, address, concretize, evaluate, truth
from ..core.rob import resolve_operands
from ..core.transient import (TBr, TCallMarker, TFence, TJmpi, TJump, TLoad,
                              TOp, TRetMarker, TStore, TValue)
from ..core.values import BOTTOM, Reg

__all__ = ["PRUNE_LEVELS", "validate_prune", "PruningStats", "Footprint",
           "footprint", "independent", "hazard_load", "drop_dead_entries"]

#: The pruning levels, weakest reduction first.
PRUNE_LEVELS = ("none", "sleepset", "full")


def validate_prune(level: str) -> str:
    """Validate a pruning level, returning it."""
    if level not in PRUNE_LEVELS:
        raise ValueError(f"prune must be one of {list(PRUNE_LEVELS)}, "
                         f"got {level!r}")
    return level


@dataclass
class PruningStats:
    """What the reduction explored and what it skipped.

    ``classes_explored`` counts completed paths — with pruning on, each
    is the representative of one Mazurkiewicz class; ``schedules_skipped``
    counts pruned subtree roots (each a rollback join or a collapsed
    duplicate fork arm standing in for at least one whole schedule).
    """

    level: str = "full"
    classes_explored: int = 0
    schedules_skipped: int = 0

    def to_dict(self) -> dict:
        return {"level": self.level,
                "classes_explored": self.classes_explored,
                "schedules_skipped": self.schedules_skipped}


# ---------------------------------------------------------------------------
# Footprints and the commutation relation
# ---------------------------------------------------------------------------

#: Footprint tokens:  ("pc",) control flow; ("size",) the buffer's
#: index frontier (fetch appends, retire pops — their order is a real
#: scheduling constraint); ("buf", i) one reorder-buffer entry;
#: ("reg", name) one architectural register; ("mem", a) one memory cell
#: *including its store-queue visibility* — a store-address resolution
#: writes the token for its cell so it conflicts with every load of the
#: same cell (forwarding and hazard detection are communication through
#: that cell, §3.4); ("rsb",) the return stack.
Token = Tuple


@dataclass(frozen=True)
class Footprint:
    """The read/write set of one directive at one configuration."""

    reads: FrozenSet[Token]
    writes: FrozenSet[Token]

    def conflicts(self, other: "Footprint") -> bool:
        """Write/write or read/write overlap — the dependency relation."""
        return bool(self.writes & other.writes
                    or self.writes & other.reads
                    or self.reads & other.writes)


def _operand_sources(config: Config, i: int, args) -> Optional[Set[Token]]:
    """Where the operands of buffer entry ``i`` come from: the youngest
    older buffer entry assigning each register, or the architectural
    register file.  None when an operand is still unresolved (the
    directive is not enabled, hence not analyzable)."""
    tokens: Set[Token] = set()
    for arg in args:
        if not isinstance(arg, Reg):
            continue
        hit = config.buf.producer_before(i, arg)
        tokens.add(("reg", arg.name) if hit is None else ("buf", hit[0]))
    return tokens


def eventual_address(config: Config, i: int, args) -> Optional[int]:
    """The concrete address entry ``i``'s operands resolve to now."""
    try:
        vals = resolve_operands(config.buf, i, config.regs, args)
    except KeyError:
        return None
    if vals is None:
        return None
    try:
        return concretize(address(vals))
    except ReproError:
        return None


def footprint(machine, config: Config, d: Directive) -> Optional[Footprint]:
    """The directive's read/write footprint at this configuration.

    Returns None when the footprint cannot be determined (directive not
    applicable here, unresolved operands, non-integer addresses) — callers
    must treat that as "dependent on everything".

    The footprint encodes the hazard relation of §3.4 as data: a
    store-address resolution *writes* its cell token, a load *reads* its
    cell token, so a pair that could raise (or suppress) a forwarding
    hazard always conflicts.  A mispredicting branch/jmpi execution
    writes the pc and every younger buffer index (the squash).
    """
    buf = config.buf
    if isinstance(d, Fetch):
        reads: Set[Token] = {("pc",)}
        writes: Set[Token] = {("pc",), ("size",), ("buf", buf.max_index() + 1)}
        instr = machine.program.get(config.pc)
        if isinstance(instr, (Call, Ret)):
            writes.add(("rsb",))
            span = 3 if isinstance(instr, Call) else 4
            writes |= {("buf", buf.max_index() + 1 + k) for k in range(span)}
        return Footprint(frozenset(reads), frozenset(writes))

    if isinstance(d, Retire):
        if not buf:
            return None
        i = buf.min_index()
        entry = buf[i]
        reads = {("buf", i), ("size",)}
        writes = {("buf", i), ("size",)}
        if isinstance(entry, TValue):
            writes.add(("reg", entry.dest.name))
        elif isinstance(entry, TStore):
            if entry.addr is None:
                return None
            try:
                writes.add(("mem", concretize(entry.addr)))
            except ReproError:
                return None
        elif isinstance(entry, TFence):
            # Retiring the oldest fence re-enables every younger execute
            # (the fence side condition reads the whole window).
            writes |= {("buf", j) for j in buf.indices()}
        elif isinstance(entry, (TCallMarker, TRetMarker)):
            span = 3 if isinstance(entry, TCallMarker) else 4
            for k in range(i, i + span):
                reads.add(("buf", k))
                writes.add(("buf", k))
                member = buf.get(k)
                if isinstance(member, TValue):
                    writes.add(("reg", member.dest.name))
                elif isinstance(member, TStore):
                    if member.addr is None:
                        return None
                    try:
                        writes.add(("mem", concretize(member.addr)))
                    except ReproError:
                        return None
        elif not isinstance(entry, TJump):
            return None
        return Footprint(frozenset(reads), frozenset(writes))

    if not isinstance(d, Execute):
        return None
    i = d.index
    entry = buf.get(i)
    if entry is None:
        return None

    if isinstance(entry, TOp) and d.part is None:
        sources = _operand_sources(config, i, entry.args)
        if sources is None:
            return None
        return Footprint(frozenset(sources), frozenset({("buf", i)}))

    if isinstance(entry, TStore) and d.part == "value":
        sources = _operand_sources(config, i, (entry.src,))
        if sources is None:
            return None
        return Footprint(frozenset(sources), frozenset({("buf", i)}))

    if isinstance(entry, TStore) and d.part == "addr":
        sources = _operand_sources(config, i, entry.args)
        addr = eventual_address(config, i, entry.args)
        if sources is None or addr is None:
            return None
        # Writing the cell token makes this conflict with every load of
        # the same cell (forward visibility + the hazard scan) and with
        # other stores to it (forwarding priority).  A hazard here also
        # squashes younger entries; conservatively own them all.
        writes = {("buf", i), ("mem", addr)}
        writes |= {("buf", j) for j in buf.indices() if j > i}
        return Footprint(frozenset(sources), frozenset(writes))

    if isinstance(entry, TLoad):
        addr = eventual_address(config, i, entry.args)
        sources = _operand_sources(config, i, entry.args)
        if sources is None or addr is None:
            return None
        reads = set(sources) | {("mem", addr)}
        if d.part is None and entry.pred is None:
            return Footprint(frozenset(reads), frozenset({("buf", i)}))
        # Aliasing-predicted forms (§3.5): validation may roll back and
        # squash younger entries; guessed forwarding reads the source
        # store's entry.
        writes = {("buf", i)}
        if isinstance(d.part, int):
            reads.add(("buf", d.part))
        else:
            writes |= {("buf", j) for j in buf.indices() if j > i}
            writes.add(("pc",))
        return Footprint(frozenset(reads), frozenset(writes))

    if isinstance(entry, (TBr, TJmpi)) and d.part is None:
        sources = _operand_sources(config, i, entry.args)
        if sources is None:
            return None
        reads = set(sources)
        writes = {("buf", i)}
        mispredicted = True  # unknown ⇒ assume the worst (squash)
        try:
            vals = resolve_operands(buf, i, config.regs, entry.args)
        except KeyError:
            vals = None
        if vals is not None:
            try:
                if isinstance(entry, TBr):
                    cond = evaluate(entry.opcode, vals)
                    taken = truth(cond)
                    target = entry.targets[0] if taken else entry.targets[1]
                else:
                    target = concretize(address(vals))
                mispredicted = target != entry.guess
            except ReproError:
                mispredicted = True
        if mispredicted:
            writes.add(("pc",))
            writes.add(("rsb",))
            writes |= {("buf", j) for j in buf.indices() if j > i}
        return Footprint(frozenset(reads), frozenset(writes))

    return None


def independent(machine, config: Config, a: Directive,
                b: Directive) -> bool:
    """The commutation relation: may ``a`` and ``b`` swap at ``config``?

    True only when the footprints are disjoint *and* both orders are
    enabled — then ``a;b`` and ``b;a`` reach the same configuration and
    produce the same observations in swapped order (the commutation
    lemma, DESIGN.md).  Symmetric by construction; any pair with
    overlapping footprints (including a directive with itself) is
    dependent.
    """
    fa = footprint(machine, config, a)
    fb = footprint(machine, config, b)
    if fa is None or fb is None or fa.conflicts(fb):
        return False
    step = getattr(machine, "try_step", None)
    if step is None:                     # raw Machine: adapt
        from .core import ExecutionEngine
        machine = ExecutionEngine(machine)
        step = machine.try_step
    ab = step(config, a)
    ba = step(config, b)
    if ab is None or ba is None:
        return False
    return (step(ab[0], b) is not None
            and step(ba[0], a) is not None)


# ---------------------------------------------------------------------------
# Rollback-join helpers
# ---------------------------------------------------------------------------

def hazard_load(config: Config, store_index: int,
                addr: int) -> Optional[int]:
    """The load index a store-addr hazard rollback at ``store_index``
    (resolving to ``addr``) squashes — the machine's §3.4 scan, mirrored
    so the driver can name the (store, load) pair after the fact.
    ``config`` is the configuration *before* the store-addr step."""
    for k, entry in config.buf.items():
        if k <= store_index or not isinstance(entry, TValue):
            continue
        if not entry.is_load_result():
            continue
        jk, ak = entry.dep, entry.addr
        jk_lt_i = (jk is BOTTOM) or (jk < store_index)
        if (ak == addr and jk_lt_i) or (jk == store_index and ak != addr):
            return k
    return None


def drop_dead_entries(entries: Set[Tuple], buf) -> Set[Tuple]:
    """Remove sleep entries naming indices no longer in the buffer.

    Indices are reused after rollbacks and full drains, so an entry
    must die with its instruction — a stale entry could otherwise match
    an unrelated instruction at a recycled index and license an unsound
    join."""
    return {e for e in entries
            if all(i in buf for i in e[1:] if isinstance(i, int))}
