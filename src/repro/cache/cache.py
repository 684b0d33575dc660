"""A set-associative cache model driven by observation traces.

The paper deliberately does *not* model the cache: "we can reason about
any possible cache implementation, as any cache eviction policy can be
expressed as a function of the sequence of observations" (§3.1).  This
module makes that argument executable: a cache state is computed by
folding an observation trace, and the cache-timing attackers in
:mod:`repro.cache.attacker` recover secrets from nothing but that fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.observations import Read, Trace, Write


@dataclass(frozen=True)
class CacheConfig:
    """Geometry + policy of a cache."""

    sets: int = 16
    ways: int = 4
    line_size: int = 4          #: bytes per line (small, to match tiny memories)
    policy: str = "LRU"         #: "LRU" or "FIFO"

    def __post_init__(self):
        if self.policy not in ("LRU", "FIFO"):
            raise ValueError(f"unknown policy {self.policy!r}")
        for name in ("sets", "ways", "line_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class Cache:
    """A set-associative cache with LRU or FIFO replacement."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        # Each set is an ordered list of line tags (most recent last).
        self._sets: List[List[int]] = [[] for _ in range(config.sets)]
        self.hits = 0
        self.misses = 0

    # -- address helpers -----------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr // self.config.line_size

    def set_of(self, addr: int) -> int:
        return self.line_of(addr) % self.config.sets

    # -- operations ------------------------------------------------------------

    def access(self, addr: int) -> bool:
        """Touch ``addr``; True on hit.  Installs the line on miss."""
        line = self.line_of(addr)
        ways = self._sets[self.set_of(addr)]
        if line in ways:
            self.hits += 1
            if self.config.policy == "LRU":
                ways.remove(line)
                ways.append(line)
            return True
        self.misses += 1
        ways.append(line)
        if len(ways) > self.config.ways:
            ways.pop(0)  # evict oldest (LRU and FIFO agree on insertion order)
        return False

    def probe(self, addr: int) -> bool:
        """Non-destructive presence test (the attacker's timing probe)."""
        return self.line_of(addr) in self._sets[self.set_of(addr)]

    def flush(self, addr: int) -> None:
        """clflush: remove the line containing ``addr``."""
        line = self.line_of(addr)
        ways = self._sets[self.set_of(addr)]
        if line in ways:
            ways.remove(line)

    def contents(self) -> Tuple[Tuple[int, ...], ...]:
        """Snapshot of all sets (tuples of line tags, LRU order)."""
        return tuple(tuple(ways) for ways in self._sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cache):
            return NotImplemented
        return (self.config == other.config
                and self.contents() == other.contents())

    # A Cache is mutable (access() reorders LRU state), so defining
    # __eq__ leaves __hash__ implicitly None: caches are unhashable by
    # design and must not be used as dict keys.


def addresses_touching_cache(trace: Trace) -> List[int]:
    """The data addresses a trace makes cache-visible.

    ``read`` and ``write`` touch the accessed line.  ``fwd`` is the
    *absence* of a memory access (store-to-load forwarding), so it
    touches nothing — but its presence in the trace is still
    attacker-visible information.
    """
    out = []
    for obs in trace:
        if isinstance(obs, (Read, Write)) and isinstance(obs.addr, int):
            out.append(obs.addr)
    return out


def replay(trace: Trace,
           cache: Optional[Cache] = None,
           config: CacheConfig = CacheConfig()) -> Cache:
    """Fold an observation trace into a cache state.

    This is the paper's claim in code: the final cache state is a pure
    function of the observation sequence (given the initial state).
    """
    cache = cache if cache is not None else Cache(config)
    for addr in addresses_touching_cache(trace):
        cache.access(addr)
    return cache
