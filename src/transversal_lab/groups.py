"""Finite abelian groups over canonical index tuples.

Groups are direct products of cyclic factors.  Elements are reduced integer
tuples, one component per factor.  Every group carries a fixed enumeration of
its elements (mixed-radix, last factor fastest) so that symbols 0..n-1 of a
hypercube can be identified with group elements.  ``index_table`` holds the
arithmetic on those indices, built once per group; every boost, deviation
profile, pairing, lift and hitting check adds through it.  The checked tuple
operations of ``AbelianGroup`` serve outside input and tests, and check that
arithmetic: they read their own element table, built once per group from the
moduli alone and never from ``index_table``, and add component by component.

``checked_int`` is the package's one integer rule for what a caller hands it
(coordinates, symbols, target components, counts, factors); it lives in this
lowest module so that ``AbelianGroup.reduce`` reads targets by it too.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from typing import Iterator, NamedTuple

import numpy as np

Element = tuple[int, ...]

_LITERAL_RE = re.compile(r"^z([0-9]+)$", re.IGNORECASE)


def checked_int(x) -> int:
    """x as an int: ValueError unless ``operator.index`` accepts it and it is
    not a bool, so 1.0, '1', True and None are refused and NumPy ints pass.
    The one integer rule for every scalar a caller hands the package."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{x!r} is not an integer")


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups Z_m1 x ... x Z_mk."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        # a sequence of moduli, each an integer (``checked_int``) stored as a
        # Python int
        try:
            moduli = tuple(map(checked_int, self.moduli))
        except TypeError:
            raise ValueError(f"moduli must be a sequence, got {self.moduli!r}") from None
        if not moduli:
            raise ValueError("group needs at least one cyclic factor")
        if min(moduli) < 1:
            raise ValueError(f"moduli must be positive integers, got {moduli}")
        object.__setattr__(self, "moduli", moduli)

    @cached_property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def identity(self) -> Element:
        return (0,) * len(self.moduli)

    def reduce(self, components) -> Element:
        """Canonical representative: componentwise reduction mod each modulus
        of integer components (``checked_int``)."""
        if len(components) != len(self.moduli):
            raise ValueError(
                f"element has {len(components)} components, group has {len(self.moduli)} factors"
            )
        return tuple([checked_int(c) % m for c, m in zip(components, self.moduli)])

    @cached_property
    def _table(self) -> tuple[tuple[Element, ...], dict[Element, int]]:
        """Every canonical element in enumeration order, and each one's index.

        Built once per group from the moduli alone (mixed radix, last factor
        fastest), never from ``index_table``, whose arithmetic the checked
        operations serve to check.  The index map is also the membership test:
        a tuple is canonical exactly when it is one of its keys."""
        elements = tuple(itertools.product(*map(range, self.moduli)))
        return elements, {a: i for i, a in enumerate(elements)}

    def contains(self, a: Element) -> bool:
        # lists are unhashable, so the type is tested first
        return isinstance(a, tuple) and a in self._table[1]

    def _check(self, a: Element) -> None:
        if not self.contains(a):
            raise ValueError(f"{a!r} is not a canonical element of {self}")

    # Each checked operation repeats the test of ``contains`` inline, which
    # saves a method call per operand, and leaves the error to ``_check``.

    def add(self, a: Element, b: Element) -> Element:
        known = self._table[1]
        if not (isinstance(a, tuple) and a in known):
            self._check(a)
        if not (isinstance(b, tuple) and b in known):
            self._check(b)
        return tuple([(x + y) % m for x, y, m in zip(a, b, self.moduli)])

    def neg(self, a: Element) -> Element:
        if not (isinstance(a, tuple) and a in self._table[1]):
            self._check(a)
        return tuple([-x % m for x, m in zip(a, self.moduli)])

    def sub(self, a: Element, b: Element) -> Element:
        known = self._table[1]
        if not (isinstance(a, tuple) and a in known):
            self._check(a)
        if not (isinstance(b, tuple) and b in known):
            self._check(b)
        return tuple([(x - y) % m for x, y, m in zip(a, b, self.moduli)])

    def scalar_mul(self, k: int, a: Element) -> Element:
        if not (isinstance(a, tuple) and a in self._table[1]):
            self._check(a)
        return tuple([k * x % m for x, m in zip(a, self.moduli)])

    def sum(self, elements) -> Element:
        known = self._table[1]
        total = [0] * len(self.moduli)
        for a in elements:
            if not (isinstance(a, tuple) and a in known):
                self._check(a)
            total = [x + y for x, y in zip(total, a)]
        return tuple([x % m for x, m in zip(total, self.moduli)])

    def element(self, index: int) -> Element:
        """Element with the given enumeration index (mixed radix, last factor fastest)."""
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} out of range for group of order {self.order}")
        return self._table[0][index]

    def index(self, a: Element) -> int:
        if not (isinstance(a, tuple) and a in self._table[1]):
            self._check(a)
        return self._table[1][a]

    def elements(self) -> Iterator[Element]:
        return iter(self._table[0])

    def g_plus(self) -> Element:
        """Sum of all group elements: the unique involution if one exists, else identity."""
        return self.sum(self.elements())

    def __str__(self) -> str:
        return "x".join(f"Z{m}" for m in self.moduli)


def parse_group(literal: str) -> AbelianGroup:
    """Parse a group literal such as "Z6" or "Z2xZ2" (case-insensitive)."""
    parts = literal.strip().split("x")
    moduli = []
    for part in parts:
        m = _LITERAL_RE.match(part.strip())
        if m is None:
            raise ValueError(f"malformed group literal {literal!r}")
        moduli.append(int(m.group(1)))
    return AbelianGroup(tuple(moduli))


def cyclic_group(n: int) -> AbelianGroup:
    return AbelianGroup((n,))


class IndexTable(NamedTuple):
    """A group's arithmetic on element indices (its fixed enumeration; index 0
    is the identity).  ``add[a][b]`` is the index of a + b and ``sub[a][b]``
    that of a - b, so ``sub[0]`` negates; both as nested tuples for Python
    loops and as read-only arrays for array code."""

    elements: tuple[Element, ...]
    index: dict[Element, int]
    add: tuple[tuple[int, ...], ...]
    sub: tuple[tuple[int, ...], ...]
    add_array: np.ndarray
    sub_array: np.ndarray


@lru_cache(maxsize=64)
def index_table(group: AbelianGroup) -> IndexTable:
    """The group's index arithmetic, built once per group."""
    elements = tuple(group.elements())
    comps = np.array(elements, dtype=np.int64)
    weights = [prod(group.moduli[k + 1 :]) for k in range(group.rank)]  # mixed radix
    add = ((comps[:, None] + comps) % group.moduli) @ weights
    sub = ((comps[:, None] - comps) % group.moduli) @ weights
    add.setflags(write=False)
    sub.setflags(write=False)
    index = {e: i for i, e in enumerate(elements)}
    nested = [tuple(map(tuple, t.tolist())) for t in (add, sub)]
    return IndexTable(elements, index, *nested, add, sub)
