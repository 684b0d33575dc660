"""Best-first violation hunting: UCT bandit search over the fork trie.

Every other strategy optimises for *exhaustive* enumeration of DT(n);
this one optimises the bug-hunting objective — reach a speculative-CT
violation in as few machine steps as possible.  It is the Legion idea
(MCTS over the path tree, cheap simulations scoring subtrees before
committing expensive effort) applied to Definition B.18's schedule
tree: the frontier mirrors the explorer's fork structure as a trie,
every fork arm is a bandit arm, and each ``pop`` walks root-to-leaf
choosing the child maximising the UCT score

    Q(child) + c * sqrt(ln(N(parent) + 1) / (N(child) + 1))

where ``Q = (hits + prior) / (N + 1)`` blends back-propagated
violation rewards with a *prior* computed from cheap playout signals
already available in the engine:

* **pending tainted transmitter** — the strongest signal: the arm's
  reorder buffer already holds an unexecuted observation producer (a
  branch condition, load or store address, or indirect-jump target)
  whose operands resolve — through the in-flight values ahead of it in
  the buffer — to a secret label.  Executing that entry *is* the leak;
  the score saturates when the arm's fetch has also run off the
  program, because a draining buffer executes its backlog immediately;
* **tainted-load proximity** — otherwise, a bounded static walk (the
  "playout") over the program's successor graph from the arm's fetch
  PC; a ``load`` within reach scores by closeness, boosted when its
  operands already hold (architecturally or in flight) secret-labelled
  values;
* **speculation-window depth** — arms with a fuller reorder buffer are
  deeper into a speculation window, where secret-dependent transient
  observations live;
* **novelty** — ``1 / (1 + visits(pc))`` of the arm's fetch-PC
  footprint, so saturated program regions decay (one term of the
  score, re-ranked on every pop).

Completed-path outcomes arrive through the :meth:`Frontier.reward`
feedback hook — the first strategy to use it.  A violation credits
reward mass up the arm's ancestor chain, so subtrees that *produced*
findings are revisited before subtrees that merely look promising; a
clean completion increments the chain's visit counts instead, so a
subtree decays exactly when paths through it complete without paying —
the bandit trade-off, not a static heap order.  Before any evidence
exists every score is its prior and ties break to the latest push,
which is the depth-first descent into the just-forked mispredicted arm:
``mcts`` degrades to prior-steered DFS, never to undirected rotation.

Run to completion the frontier still pops every pushed item exactly
once — Theorem B.20's explored *set* is order-invariant, so ``mcts``
flags the identical observation set as ``dfs`` (pinned by
``tests/test_mcts.py`` and the subsume equivalence suite) —
only the order, and therefore the time-to-first-violation, changes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from ..core.isa import Br, Call, Fence, Load, Op, Store
from ..core.transient import TBr, TJmpi, TLoad, TStore, TValue
from .frontier import Frontier, register_strategy

__all__ = ["MCTSFrontier", "DEFAULT_EXPLORATION", "DEFAULT_PLAYOUT_DEPTH"]

#: Default UCT exploration constant.  Hunting wants exploitation of the
#: playout priors; the classic sqrt(2) over-explores on trees this
#: shallow (tuned on the flagged litmus registry via
#: ``benchmarks/bench_hunt.py``).
DEFAULT_EXPLORATION = 0.5

#: Default static-playout depth: how many successor instructions the
#: tainted-load proximity signal looks ahead from an arm's fetch PC.
DEFAULT_PLAYOUT_DEPTH = 8


def _successors(instr) -> tuple:
    """Static successor PCs for the playout walk (dynamic targets of
    ``jmpi``/``ret`` are unknowable without executing — the walk stops
    there)."""
    if isinstance(instr, (Op, Load, Store, Fence)):
        return (instr.next,)
    if isinstance(instr, Br):
        return (instr.n_true, instr.n_false)
    if isinstance(instr, Call):
        return (instr.target, instr.ret)
    return ()


class _Node:
    """One fork-trie node: a pushed (and possibly popped) frontier item.

    ``pending`` nodes are exactly the poppable leaves; popped nodes stay
    in the trie as interior bandit state (visits / reward mass).
    ``pending_desc`` counts pending nodes in the subtree including self,
    so the selection walk never descends into a drained subtree.
    """

    __slots__ = ("parent", "children", "visits", "hits", "prior",
                 "pending", "pending_desc", "seq", "item")

    def __init__(self, parent: Optional["_Node"], prior: float, seq: int,
                 item: Any):
        self.parent = parent
        self.children: List["_Node"] = []
        self.visits = 0
        self.hits = 0.0
        self.prior = prior
        self.pending = True
        self.pending_desc = 1
        self.seq = seq
        self.item = item


class MCTSFrontier(Frontier):
    """UCT selection over the fork trie (see the module docstring).

    The trie is reconstructed from the push/pop protocol alone: the
    explorer pops an item, advances it to its next fork, and pushes the
    fork's arms — so every push between two pops is a child of the last
    popped node.  That is exactly the explorer's fork structure,
    built online without touching the driver.

    Deterministic: scores are pure functions of the trie state and ties
    break by insertion order (latest wins, matching the depth-first
    preference for the just-forked mispredicted arm).
    """

    strategy = "mcts"
    description = ("best-first violation hunting: UCT bandit over the "
                   "fork trie, priors from pending tainted "
                   "transmitters, tainted-load proximity, speculation "
                   "depth and PC novelty")

    def __init__(self, seed: int = 0,
                 pc_of: Optional[Callable[[Any], Optional[int]]] = None,
                 program=None,
                 exploration: float = DEFAULT_EXPLORATION,
                 playout_depth: int = DEFAULT_PLAYOUT_DEPTH):
        super().__init__(seed, pc_of, program)
        self.exploration = exploration
        self.playout_depth = playout_depth
        self._root = _Node(None, 0.0, -1, None)
        self._root.pending = False
        self._root.pending_desc = 0
        self._cursor: Optional[_Node] = self._root
        #: (id(item), node) of the most recent pop — drivers reward a
        #: popped item before the next pop, so one slot suffices
        self._last: Optional[tuple] = None
        self._visits: Dict[int, int] = {}    #: fetch-PC pop counts
        self._proximity: Dict[int, tuple] = {}  #: playout cache per PC
        self._seq = 0
        self._len = 0

    # -- the frontier protocol ----------------------------------------------

    def push(self, item: Any) -> None:
        parent = self._cursor if self._cursor is not None else self._root
        node = _Node(parent, self._prior(item), self._seq, item)
        self._seq += 1
        parent.children.append(node)
        walk = parent
        while walk is not None:
            walk.pending_desc += 1
            walk = walk.parent
        self._len += 1

    def pop(self) -> Any:
        if self._len == 0:
            raise IndexError("pop from empty frontier")
        node = self._root
        while not node.pending:
            node = max((c for c in node.children if c.pending_desc > 0),
                       key=self._selection_key)
        item = node.item
        # Why this leaf won, for tracing drivers: its playout prior and
        # its full UCT score at selection time (the root is never
        # pending, so every popped node has a parent for the score).
        self.last_pop_info = {"prior": node.prior,
                              "uct": self._selection_key(node)[0]}
        node.item = None
        node.pending = False
        walk = node
        while walk is not None:
            walk.pending_desc -= 1
            walk = walk.parent
        self._cursor = node
        self._last = (id(item), node)
        pc = self.pc_of(item) if self.pc_of is not None else None
        if pc is not None:
            self._visits[pc] = self._visits.get(pc, 0) + 1
        self._len -= 1
        return item

    def reward(self, item: Any, hit: bool) -> None:
        """Back-propagate a completed path's outcome up its fork chain.

        Both outcomes are evidence: a hit adds reward mass, a miss adds
        a visit — so a subtree only decays once paths through it
        actually *complete without paying*, never merely for being
        walked.  Before any path completes every score is its prior and
        ties break depth-first; the bandit takes over as evidence
        arrives.
        """
        if self._last is None or self._last[0] != id(item):
            return
        node = self._last[1]
        while node is not None:
            if hit:
                node.hits += 1.0
            else:
                node.visits += 1
            node = node.parent

    def __len__(self) -> int:
        return self._len

    # -- UCT scoring ---------------------------------------------------------

    def _selection_key(self, node: _Node):
        parent = node.parent
        q = (node.hits + node.prior) / (node.visits + 1.0)
        u = self.exploration * math.sqrt(
            math.log(parent.visits + 1.0) / (node.visits + 1.0))
        return (q + u, node.seq)

    # -- playout priors ------------------------------------------------------

    def _prior(self, item: Any) -> float:
        """Cheap playout signals blended into [0, 1]; items without a
        machine configuration (the frontier is generic over items)
        degrade to the novelty term alone.

        The transmit term prefers, in order: an arm whose reorder
        buffer already holds a tainted transmitter *and* whose fetch
        has run off the program (nothing left to fetch — the backlog,
        tainted transmitter included, executes next); a tainted
        transmitter still behind further fetches; then the static
        tainted-load-proximity playout.
        """
        pc = self.pc_of(item) if self.pc_of is not None else None
        novelty = (1.0 / (1.0 + self._visits.get(pc, 0))
                   if pc is not None else 1.0)
        config = getattr(item, "config", None)
        if config is None:
            return novelty
        window = min(1.0, len(config.buf) / 8.0)
        inflight = self._inflight(config)
        if self._pending_transmitter(config, inflight):
            draining = (self.program is not None and pc is not None
                        and self.program.get(pc) is None)
            transmit = 1.0 if draining else 0.75
        else:
            transmit = self._load_proximity(pc, config, inflight)
        return (2.0 * transmit + window + novelty) / 4.0

    def _inflight(self, config) -> Dict[Any, Any]:
        """Register renaming over the reorder buffer: the newest
        in-flight value (resolved ``TValue``, or an alias-predicted
        load's forwarded value) each register will hold, keyed by
        :class:`~repro.core.values.Reg`.  Architectural ``regs`` are the
        fallback for registers with no entry."""
        inflight: Dict[Any, Any] = {}
        for _index, entry in config.buf.items():
            if isinstance(entry, TValue):
                inflight[entry.dest] = entry.value
            elif isinstance(entry, TLoad) and entry.pred is not None:
                inflight[entry.dest] = entry.pred[0]
        return inflight

    def _resolve_label(self, arg, config, inflight):
        """The security label ``arg`` currently evaluates to, looking
        through in-flight values before the architectural registers."""
        if hasattr(arg, "name"):
            value = inflight.get(arg)
            if value is None:
                value = config.regs.get(arg)
            return getattr(value, "label", None)
        return getattr(arg, "label", None)

    def _pending_transmitter(self, config, inflight) -> bool:
        """Does the reorder buffer hold an unexecuted observation
        producer (load/store address, branch condition, indirect-jump
        target) whose operands resolve to a secret-labelled value?
        Executing that entry emits a secret-dependent observation —
        this arm is in the middle of transmitting."""
        for _index, entry in config.buf.items():
            if isinstance(entry, (TBr, TJmpi, TLoad)):
                args = entry.args
            elif isinstance(entry, TStore) and entry.addr is None:
                args = entry.args
            else:
                continue
            for arg in args:
                label = self._resolve_label(arg, config, inflight)
                if label is not None and not label.is_public():
                    return True
        return False

    def _load_proximity(self, pc: Optional[int], config,
                        inflight=None) -> float:
        """How close the nearest ``load`` is to this fetch PC, on the
        static successor graph, within ``playout_depth`` instructions.

        A load at distance ``d`` scores ``0.5 * (1 - d / (depth + 1))``;
        the score is boosted (saturating at 1) when the load's operands
        currently hold secret-labelled values — the arm is about to
        transmit.  Untainted loads still count at the base weight: the
        secret may arrive in a register between now and the load's
        execution.
        """
        program = self.program
        if program is None or pc is None:
            return 0.0
        if pc in self._proximity:
            distance, load_pc = self._proximity[pc]
        else:
            distance, load_pc = self._nearest_load(pc)
            self._proximity[pc] = (distance, load_pc)
        if load_pc is None:
            return 0.0
        score = 0.5 * (1.0 - distance / (self.playout_depth + 1.0))
        if self._tainted(program.get(load_pc), config, inflight or {}):
            score = min(1.0, 4.0 * score)
        return score

    def _nearest_load(self, pc: int):
        """(distance, pc) of the closest reachable ``load``; breadth-
        first over static successors so the distance is minimal."""
        program = self.program
        frontier = [(pc, 0)]
        seen = {pc}
        while frontier:
            next_frontier = []
            for pp, d in frontier:
                instr = program.get(pp)
                if instr is None:
                    continue
                if isinstance(instr, Load):
                    return d, pp
                if d < self.playout_depth:
                    for succ in _successors(instr):
                        if succ not in seen:
                            seen.add(succ)
                            next_frontier.append((succ, d + 1))
            frontier = next_frontier
        return None, None

    def _tainted(self, instr, config, inflight) -> bool:
        """Will the load's operands carry a non-public label? — checking
        in-flight reorder-buffer values first, then the architectural
        registers."""
        if not isinstance(instr, Load):
            return False
        for arg in instr.args:
            label = self._resolve_label(arg, config, inflight)
            if label is not None and not label.is_public():
                return True
        return False


register_strategy(MCTSFrontier)
