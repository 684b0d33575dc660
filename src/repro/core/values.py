"""Labelled values, registers and operands.

The machine computes over *labelled values* ``v_ℓ`` (Section 3,
"Values and labels"): a payload together with a security label.  The
payload is a Python ``int``; the machine only reads it through the
evaluation functions of :mod:`repro.core.isa`.

Instruction operands (the paper's ``r⃗v``) are either register names
(:class:`Reg`) or immediate labelled values (:class:`Value`).
``⊥`` — the "unresolved" result of the register resolve function — is the
singleton :data:`BOTTOM`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from .lattice import Label, PUBLIC, SECRET, join_all


#: Interned small-integer values, one table per two-point label.
#: Machine arithmetic over gadget-sized programs produces the same few
#: hundred labelled constants over and over; sharing one instance per
#: (payload, label) keeps forked configurations' register files and
#: memories pointing at common objects.  Only the PUBLIC/SECRET
#: singletons intern (checked by identity — the hot path must not pay
#: for hashing a label); each table is bounded by the key range itself.
_INTERN_PUBLIC: dict = {}
_INTERN_SECRET: dict = {}
_INTERN_RANGE = range(-1024, 4097)


@dataclass(frozen=True)
class Value:
    """A labelled value ``v_ℓ``.

    ``val`` is the payload (an int); ``label`` is its security label.
    Small integer values are interned: construction may return a shared
    (still immutable) instance.
    """

    val: object
    label: Label = PUBLIC

    def __new__(cls, val: object = 0, label: Label = PUBLIC) -> "Value":
        if cls is Value and type(val) is int and val in _INTERN_RANGE:
            if label is PUBLIC:
                table = _INTERN_PUBLIC
            elif label is SECRET:
                table = _INTERN_SECRET
            else:
                return super().__new__(cls)
            got = table.get(val)
            if got is not None:
                return got
            self = table[val] = super().__new__(cls)
            return self
        return super().__new__(cls)

    # Values are immutable and possibly interned: copying returns the
    # same instance, and (un)pickling goes through the constructor so a
    # shared instance is never rebuilt in place.
    def __copy__(self) -> "Value":
        return self

    def __deepcopy__(self, memo) -> "Value":
        return self

    def __reduce__(self):
        return (type(self), (self.val, self.label))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = "" if self.label.is_public() else f"_{self.label.name[:3]}"
        return f"{self.val}{suffix}"

    def join(self, label: Label) -> "Value":
        """The same payload with ``label`` joined onto the value's label."""
        return Value(self.val, self.label.join(label))

    def relabel(self, label: Label) -> "Value":
        """The same payload with exactly ``label``."""
        return Value(self.val, label)

    def is_public(self) -> bool:
        return self.label.is_public()


@dataclass(frozen=True)
class Reg:
    """A register name, e.g. ``Reg("ra")``.

    The register file is a finite map from :class:`Reg` to :class:`Value`.
    """

    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"%{self.name}"


class _Bottom:
    """The undefined result ``⊥`` of the register resolve function.

    Also used for hazard checks where the paper defines ``⊥ < n`` for
    every index ``n`` (Section 3.4): a load annotated ``{⊥, a}`` read its
    value from memory.
    """

    _instance = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊥"

    def __bool__(self) -> bool:
        return False


#: Singleton ``⊥``.
BOTTOM = _Bottom()

#: An operand: register or immediate labelled value.
Operand = Union[Reg, Value]

#: A list of operands, the paper's ``r⃗v``.
Operands = Tuple[Operand, ...]


def public(val: object) -> Value:
    """Shorthand for a public labelled value."""
    return Value(val, PUBLIC)


def secret(val: object) -> Value:
    """Shorthand for a secret labelled value."""
    return Value(val, SECRET)


def operands(*items: object) -> Operands:
    """Normalise a mixed argument list into a tuple of operands.

    Plain ints become public immediates, strings become registers::

        operands(40, "ra")  ==  (Value(40, PUBLIC), Reg("ra"))
    """
    out = []
    for item in items:
        if isinstance(item, (Reg, Value)):
            out.append(item)
        elif isinstance(item, str):
            out.append(Reg(item))
        elif isinstance(item, int):
            out.append(Value(item, PUBLIC))
        else:
            raise TypeError(f"cannot make an operand from {item!r}")
    return tuple(out)


def labels_of(values: Iterable[Value]) -> Tuple[Label, ...]:
    """The tuple of labels of a value list (the paper's ``ℓ⃗``)."""
    return tuple(v.label for v in values)


def join_labels(values: Iterable[Value]) -> Label:
    """``⊔ ℓ⃗`` over a list of labelled values."""
    return join_all(labels_of(values))
