"""Security label lattices.

The paper annotates every value with a label drawn from a lattice of
security labels with a join operator (Section 3, "Values and labels").
Almost all of the paper works with the two-point lattice
``public ⊑ secret``, which we expose as :data:`PUBLIC` and :data:`SECRET`.

A generic finite lattice (:class:`Lattice`) is also provided so that
multi-principal policies can be expressed; the machine itself only ever
needs ``join`` and the ``flows_to`` partial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple


@dataclass(frozen=True, order=False)
class Label:
    """A security label: an element of a join-semilattice.

    Labels are interned by name inside their lattice; equality is by
    (lattice name, label name).  The default two-point lattice provides
    :data:`PUBLIC` (bottom) and :data:`SECRET` (top).
    """

    name: str
    lattice: str = "two-point"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    def join(self, other: "Label") -> "Label":
        """Least upper bound of two labels (the paper's ``⊔``)."""
        return get_lattice(self.lattice).join(self, other)

    def flows_to(self, other: "Label") -> bool:
        """Partial order test ``self ⊑ other``."""
        return get_lattice(self.lattice).flows_to(self, other)

    def is_public(self) -> bool:
        """True iff this label is the lattice bottom (observable by all)."""
        return get_lattice(self.lattice).bottom == self

    def __or__(self, other: "Label") -> "Label":
        return self.join(other)


class Lattice:
    """A finite join-semilattice of :class:`Label` values.

    The lattice is described by its cover ("flows to") edges; ``join`` is
    computed from the upward closures.  All lattices are registered in a
    module-level table so :class:`Label` instances (which only carry their
    lattice's *name*, keeping them hashable and tiny) can find their
    operations.
    """

    def __init__(self, name: str, edges: Iterable[Tuple[str, str]],
                 bottom: str, top: str) -> None:
        self.name = name
        self._labels: Dict[str, Label] = {}
        self._up: Dict[str, FrozenSet[str]] = {}
        adj: Dict[str, set] = {}
        names = {bottom, top}
        for lo, hi in edges:
            names.add(lo)
            names.add(hi)
            adj.setdefault(lo, set()).add(hi)
        for n in names:
            self._labels[n] = Label(n, name)
        # Upward closure by DFS; lattices are tiny so this is cheap.
        def up(n: str) -> FrozenSet[str]:
            seen = {n}
            stack = [n]
            while stack:
                cur = stack.pop()
                for nxt in adj.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return frozenset(seen)

        for n in names:
            self._up[n] = up(n)
        self.bottom = self._labels[bottom]
        self.top = self._labels[top]
        _LATTICES[name] = self

    def label(self, name: str) -> Label:
        """Look up a label by name."""
        return self._labels[name]

    def labels(self) -> Tuple[Label, ...]:
        """All labels of this lattice, in no particular order."""
        return tuple(self._labels.values())

    def flows_to(self, lo: Label, hi: Label) -> bool:
        """``lo ⊑ hi`` in this lattice."""
        return hi.name in self._up[lo.name]

    def join(self, a: Label, b: Label) -> Label:
        """Least upper bound.  For the small lattices used here we take
        the minimum (by upward-closure size) common upper bound."""
        if self.flows_to(a, b):
            return b
        if self.flows_to(b, a):
            return a
        common = self._up[a.name] & self._up[b.name]
        # The least element of the common upper set has the largest
        # upward closure.
        best = max(common, key=lambda n: (len(self._up[n]), n))
        return self._labels[best]


_LATTICES: Dict[str, Lattice] = {}


def get_lattice(name: str) -> Lattice:
    """Fetch a registered lattice by name."""
    return _LATTICES[name]


#: The default two-point lattice used throughout the paper.
TWO_POINT = Lattice("two-point", [("public", "secret")],
                    bottom="public", top="secret")

#: Bottom of the default lattice: values the attacker may observe.
PUBLIC = TWO_POINT.label("public")

#: Top of the default lattice: values that must never be observed.
SECRET = TWO_POINT.label("secret")


def join_all(labels: Iterable[Label], default: Label = PUBLIC) -> Label:
    """Join a (possibly empty) collection of labels (the paper's ``⊔ ℓ⃗``)."""
    out = default
    for lab in labels:
        out = out.join(lab)
    return out
