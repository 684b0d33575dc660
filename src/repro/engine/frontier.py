"""Pluggable search frontiers — exploration order as a strategy.

Definition B.18's tool-schedule set DT(n) is a tree: the scheduler's
choice points fork, everything else is forced.  *Which* leaf is reached
next is irrelevant to soundness — Theorem B.20 quantifies over the whole
family — so the visit order is a free parameter.  The seed explorer
hardcoded a LIFO stack (depth-first); this module turns that stack into
a :class:`Frontier` the driver pushes fork arms into and pops the next
state from, with the ordering policy supplied by name:

``dfs``
    LIFO — the seed behaviour, byte-identical path enumeration order.
``random``
    Uniform random pops from a seeded RNG — deterministic for a fixed
    ``seed``, decorrelated from program structure (the classic fuzzing
    baseline).
``mcts``
    Best-first violation hunting: full UCT bandit over the fork trie,
    re-ranked on every pop, with playout priors and back-propagated
    violation rewards.  Lives in :mod:`repro.engine.mcts` and registers
    itself here via :func:`register_strategy`.

Every strategy explores the *same* set when run to completion — only
the order (and therefore which paths survive a ``max_paths`` cap, and
how fast ``stop_at_first`` fires) changes.  The frontier is generic
over items: the Pitchfork explorer pushes
:class:`~repro.engine.state.MachineState` values.  Every strategy is
built with the same arguments: a ``seed``, a ``pc_of`` callable mapping
an item to its current fetch PC, and the ``program`` being explored;
the ranking strategy (``mcts``) reads the last two, the fixed orderings
ignore them.

Drivers may report path outcomes back through :meth:`Frontier.reward`;
ordering strategies that learn from outcomes (``mcts``) use it, the
rest inherit the no-op.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

__all__ = ["Frontier", "DepthFirstFrontier", "RandomFrontier",
           "available_strategies", "make_frontier", "register_strategy",
           "strategy_descriptions"]


class Frontier:
    """The pending-work set of one exploration.

    A driver ``push``es every fork arm and ``pop``s the next state to
    advance; the subclass decides the order.  All implementations are
    deterministic: two runs with the same pushes (and the same ``seed``)
    pop in the same order.
    """

    strategy: str = ""
    #: One-line summary shown by ``repro list``.
    description: str = ""
    #: Why the most recent :meth:`pop` chose its item, as a small dict
    #: of scores — ``None`` for fixed orderings.  Ranking strategies
    #: (``mcts``) fill it; a tracing driver attaches it to the pop's
    #: span.  Valid until the next pop.
    last_pop_info: Optional[Dict[str, float]] = None

    def __init__(self, seed: int = 0,
                 pc_of: Optional[Callable[[Any], Optional[int]]] = None,
                 program=None):
        self.seed = seed
        self.pc_of = pc_of
        self.program = program

    def push(self, item: Any) -> None:
        raise NotImplementedError

    def pop(self) -> Any:
        """The next item to advance; IndexError when empty."""
        raise NotImplementedError

    def reward(self, item: Any, hit: bool) -> None:
        """Feedback hook: the driver finished exploring a popped item's
        path; ``hit`` is whether the path produced a violation.  Fixed
        orderings ignore it; learning strategies back-propagate it."""

    def extend(self, items: Iterable[Any]) -> None:
        for item in items:
            self.push(item)

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} |{len(self)}|>"


class DepthFirstFrontier(Frontier):
    """LIFO — the seed explorer's stack, byte-identical visit order."""

    strategy = "dfs"
    description = ("depth-first (LIFO) — the default; exhausts one "
                   "speculation subtree before the next")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._items: List[Any] = []

    def push(self, item: Any) -> None:
        self._items.append(item)

    def pop(self) -> Any:
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)


class RandomFrontier(Frontier):
    """Seeded uniform random pops (swap-with-last removal, O(1))."""

    strategy = "random"
    description = ("seeded uniform-random pops — deterministic per "
                   "--seed, decorrelated from program structure")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rng = random.Random(self.seed)
        self._items: List[Any] = []

    def push(self, item: Any) -> None:
        self._items.append(item)

    def pop(self) -> Any:
        items = self._items
        if not items:
            raise IndexError("pop from empty frontier")
        i = self._rng.randrange(len(items))
        items[i], items[-1] = items[-1], items[i]
        return items.pop()

    def __len__(self) -> int:
        return len(self._items)


_STRATEGIES: Dict[str, Type[Frontier]] = {
    cls.strategy: cls
    for cls in (DepthFirstFrontier, RandomFrontier)
}


def register_strategy(cls: Type[Frontier]) -> Type[Frontier]:
    """Register a Frontier subclass under its ``strategy`` name.

    Lets strategies living outside this module (``repro.engine.mcts``)
    plug in without a circular import; importing ``repro.engine``
    registers everything.  Usable as a class decorator.
    """
    if not cls.strategy:
        raise ValueError(f"{cls.__name__} has no strategy name")
    _STRATEGIES[cls.strategy] = cls
    return cls


def available_strategies() -> Tuple[str, ...]:
    """Registered search-strategy names, sorted."""
    return tuple(sorted(_STRATEGIES))


def strategy_descriptions() -> Dict[str, str]:
    """``{name: one-line description}`` for every registered strategy,
    in sorted name order (what ``repro list`` prints)."""
    return {name: _STRATEGIES[name].description
            for name in available_strategies()}


def make_frontier(strategy: str = "dfs", seed: int = 0,
                  pc_of: Optional[Callable[[Any], Optional[int]]] = None,
                  program=None) -> Frontier:
    """Instantiate a frontier by strategy name."""
    try:
        cls = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown search strategy {strategy!r}; "
                         f"available: {list(available_strategies())}") \
            from None
    return cls(seed=seed, pc_of=pc_of, program=program)
