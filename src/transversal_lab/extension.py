"""Dimension boosting of Latin hypercubes and constructive lifting of diagonals.

A d'-dimensional extension of a d-dimensional cube L adds the extra
coordinates into the symbol: L'(x_1..x_{d'}) = L(x_1..x_d) + x_{d+1} + ... +
x_{d'} in the index group.  Deviation values are preserved by the projection
onto the first d coordinates, which makes diagonals with the right deviation
sum in L exactly the shadows of transversals in L'.  The lift itself is
constructive: pad the middle dimensions with permutations, then solve a
zero-sum pairing problem in the group for the last dimension.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .delta import delta_sum, is_suitable, suitable_target
from .groups import AbelianGroup, Element
from .hypercube import (
    Coords,
    Diagonal,
    Entry,
    Hypercube,
    index_add_table,
    is_latin,
    pairwise_disjoint_family,
)


def g_extension(L: Hypercube, group: AbelianGroup | None = None, d_prime: int = 3) -> Hypercube:
    """Extension of L to dimension d_prime over the given group labeling."""
    group = L.group if group is None else group
    if group.order != L.n:
        raise ValueError(f"group order {group.order} does not match cube order {L.n}")
    if d_prime <= L.d:
        raise ValueError(f"target dimension {d_prime} must exceed base dimension {L.d}")
    add_tab = index_add_table(group)
    axis = np.arange(L.n, dtype=np.int64)
    acc = L.symbols
    for _ in range(d_prime - L.d):
        acc = add_tab[acc[..., None], axis]
    out = Hypercube(acc, group)
    if L._latin:
        out._latin = True
    return out


@lru_cache(maxsize=64)
def _index_arithmetic(
    group: AbelianGroup,
) -> tuple[tuple[Element, ...], dict[Element, int], tuple[tuple[int, ...], ...]]:
    """The group's elements in enumeration order, each element's index, and the
    addition table on indices (index 0 is the identity), built once per group."""
    elems = tuple(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    return elems, index, tuple(map(tuple, index_add_table(group).tolist()))


def hall_pair(
    group: AbelianGroup, sigmas: Sequence[Element]
) -> tuple[list[Element], list[Element]]:
    """Two enumerations (a_i), (b_i) of the whole group with a_i - b_i = sigma_i.

    Requires exactly n = |G| sigmas summing to the identity.  Built by Hall's
    exchange chain (M. Hall, A combinatorial problem on abelian groups,
    Proc. AMS 3, 1952), on element indices: a = b = the enumeration pairs the
    all-zero sequence; then for u = 0..n-2 position u takes sigma_u, the last
    position takes up the difference, and a chain of exchanges repairs
    position u.  At position i the chain moves the a-value b_i + sigma_i to i
    from the position j holding it; if j is not the last position, it swaps
    b_j with the last b and repairs j next.  Hall's argument closes every
    chain within n exchanges."""
    n = group.order
    elems, index, add = _index_arithmetic(group)
    want = [index[group.reduce(s)] for s in sigmas]
    if len(want) != n:
        raise ValueError(f"need exactly {n} values, got {len(want)}")
    total = 0
    for x in want:
        total = add[total][x]
    if total:
        raise ValueError("values must sum to the identity")
    a, b = list(range(n)), list(range(n))
    where = list(range(n))  # where[x] is the position whose a is x
    sigma = [0] * n  # a_i - b_i = sigma[i] at every position but the last
    last = n - 1
    for u in range(last):
        sigma[u] = want[u]
        i = u
        for _ in range(n):
            j = where[add[b[i]][sigma[i]]]
            if j == i:
                break
            a[i], a[j] = a[j], a[i]
            where[a[i]], where[a[j]] = i, j
            if j == last:
                break
            b[j], b[last] = b[last], b[j]
            i = j
        else:
            raise RuntimeError("exchange chain did not close; this should be impossible")
    return [elems[x] for x in a], [elems[x] for x in b]


def lift_diagonal(
    L: Hypercube,
    D: Diagonal,
    group: AbelianGroup | None = None,
    d_prime: int = 3,
    rng: random.Random | None = None,
) -> Diagonal:
    """Transversal of the extension that projects exactly onto D.

    D must have the deviation sum matching d_prime.  Middle dimensions are
    padded with the natural enumeration (or seeded random permutations); the
    last dimension comes from the zero-sum pairing."""
    group = L.group if group is None else group
    if not is_suitable(L, group, D, d_prime):
        raise ValueError(
            f"diagonal deviation sum {delta_sum(L, group, D)} does not match the"
            f" target {suitable_target(group, d_prime)} for dimension {d_prime}"
        )
    n = L.n
    extension = g_extension(L, group, d_prime)
    coords = [list(e.coords) for e in D.entries]
    syms = [group.element(e.symbol) for e in D.entries]
    middle = d_prime - L.d - 1
    for _ in range(middle):
        perm = list(range(n))
        if rng is not None:
            rng.shuffle(perm)
        for i in range(n):
            coords[i].append(perm[i])
            syms[i] = group.add(syms[i], group.element(perm[i]))
    a, b = hall_pair(group, syms)
    entries = []
    for i in range(n):
        coords[i].append(group.index(b[i]))
        entries.append(Entry(tuple(coords[i]), group.index(a[i])))
    T = Diagonal.from_entries(extension, entries, transversal=True)
    if {e.coords[: L.d] for e in T.entries} != {e.coords for e in D.entries}:
        raise RuntimeError("lift does not project onto the input diagonal")
    return T


def transversal_through_fibre(
    L: Hypercube,
    D: Diagonal,
    group: AbelianGroup | None,
    d_prime: int,
    alpha: Entry,
) -> Diagonal:
    """Transversal of the extension containing alpha, whose shadow is D.

    alpha's first coordinates must match some entry of D; the lifted
    transversal is translated inside the fibre until it passes through alpha,
    shifting every symbol by the group sum of the translation."""
    group = L.group if group is None else group
    extension = g_extension(L, group, d_prime)
    base_cells = {e.coords: i for i, e in enumerate(D.entries)}
    head = alpha.coords[: L.d]
    if head not in base_cells:
        raise ValueError("alpha does not project into the diagonal")
    if extension[alpha.coords] != alpha.symbol:
        raise ValueError("alpha is not an entry of the extension")
    T = lift_diagonal(L, D, group, d_prime)
    k = next(i for i, e in enumerate(T.entries) if e.coords[: L.d] == head)
    anchor = T.entries[k]
    shift = [
        group.sub(group.element(y), group.element(x))
        for y, x in zip(alpha.coords, anchor.coords)
    ]
    total = group.sum(shift)
    entries = []
    for e in T.entries:
        coords = tuple(
            group.index(group.add(group.element(c), v)) for c, v in zip(e.coords, shift)
        )
        entries.append(Entry(coords, group.index(group.add(group.element(e.symbol), total))))
    out = Diagonal.from_entries(extension, entries, transversal=True)
    if alpha not in out.entries:
        raise RuntimeError("translated lift missed the requested entry")
    return out


def lift_family(
    L: Hypercube,
    diagonals: Sequence[Diagonal],
    group: AbelianGroup | None = None,
    d_prime: int = 3,
) -> list[Diagonal]:
    """Disjoint transversal family of size m * n^(d'-d) from m disjoint diagonals.

    Each diagonal is lifted once, then translated over every tuple of extra
    coordinates (symbols shifted by the tuple's group sum)."""
    group = L.group if group is None else group
    if not pairwise_disjoint_family(diagonals):
        raise ValueError("input diagonals are not pairwise disjoint")
    n = L.n
    extra = d_prime - L.d
    extension = g_extension(L, group, d_prime)
    out: list[Diagonal] = []
    for D in diagonals:
        T = lift_diagonal(L, D, group, d_prime)
        for tail in itertools.product(range(n), repeat=extra):
            vec = [group.element(t) for t in tail]
            total = group.sum(vec)
            entries = []
            for e in T.entries:
                head = e.coords[: L.d]
                moved = tuple(
                    group.index(group.add(group.element(c), v))
                    for c, v in zip(e.coords[L.d :], vec)
                )
                entries.append(
                    Entry(head + moved, group.index(group.add(group.element(e.symbol), total)))
                )
            out.append(Diagonal.from_entries(extension, entries, transversal=True))
    if not pairwise_disjoint_family(out):
        raise RuntimeError("lifted family is not pairwise disjoint")
    return out


def symbol_classes(L: Hypercube) -> list[Diagonal]:
    """The n constant diagonals of a Latin square, one per symbol."""
    if L.d != 2:
        raise ValueError("symbol classes require a square")
    if not is_latin(L):
        raise ValueError("symbol classes require a Latin square")
    out = []
    for s in range(L.n):
        rows, cols = np.nonzero(L.symbols == s)
        entries = [Entry((int(r), int(c)), s) for r, c in zip(rows, cols)]
        out.append(Diagonal.from_entries(L, entries))
    return out


# -- quasigroup extension ------------------------------------------------------


@dataclass(frozen=True)
class Quasigroup:
    """Binary operation whose table is a Latin square."""

    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def __post_init__(self) -> None:
        n = len(self.table)
        want = list(range(n))
        for row in self.table:
            if sorted(row) != want:
                raise ValueError("every row must be a permutation")
        for j in range(n):
            if sorted(row[j] for row in self.table) != want:
                raise ValueError("every column must be a permutation")

    def apply(self, x: int, y: int) -> int:
        return self.table[x][y]

    def solve_right(self, x: int, target: int) -> int:
        """The unique y with x * y = target."""
        return self.table[x].index(target)

    @classmethod
    def from_square(cls, H: Hypercube) -> "Quasigroup":
        if H.d != 2:
            raise ValueError("quasigroup table must be a square")
        return cls(tuple(tuple(int(v) for v in row) for row in H.symbols))

    @classmethod
    def from_group(cls, group: AbelianGroup) -> "Quasigroup":
        n = group.order
        tab = index_add_table(group)
        return cls(tuple(tuple(int(v) for v in row) for row in tab))


def quasi_extend(H_prev: Hypercube, Q: Quasigroup) -> Hypercube:
    """One-dimension boost: new value at (x, t) is Q applied to (old value, t)."""
    if Q.order != H_prev.n:
        raise ValueError(f"quasigroup order {Q.order} does not match cube order {H_prev.n}")
    tab = np.array(Q.table, dtype=np.int64)
    arr = tab[H_prev.symbols[..., None], np.arange(H_prev.n)]
    out = Hypercube(arr, H_prev.group)
    if H_prev._latin:
        out._latin = True
    return out


def constant_to_transversal_fibre(
    H_prev: Hypercube, Q: Quasigroup, D: Diagonal
) -> list[Diagonal]:
    """Partition the fibre of a constant diagonal into n disjoint transversals.

    Uses the n cyclic shifts as mutually discordant last-coordinate
    assignments."""
    if not D.is_constant() or len(D.entries) != H_prev.n:
        raise ValueError("need a complete constant diagonal")
    H_next = quasi_extend(H_prev, Q)
    n = H_prev.n
    sigma = D.entries[0].symbol
    base = sorted(D.entries)
    out = []
    for k in range(n):
        entries = []
        for i, e in enumerate(base):
            t = (i + k) % n
            entries.append(Entry(e.coords + (t,), Q.apply(sigma, t)))
        out.append(Diagonal.from_entries(H_next, entries, transversal=True))
    if not pairwise_disjoint_family(out):
        raise RuntimeError("fibre transversals are not disjoint")
    return out


def transversal_to_constant_fibre(
    H_prev: Hypercube, Q: Quasigroup, T: Diagonal
) -> list[Diagonal]:
    """Partition the fibre of a transversal into n disjoint constant diagonals."""
    if not T.has_distinct_symbols() or len(T.entries) != H_prev.n:
        raise ValueError("need a complete transversal")
    H_next = quasi_extend(H_prev, Q)
    n = H_prev.n
    base = sorted(T.entries)
    out = []
    for target in range(n):
        entries = []
        for e in base:
            t = Q.solve_right(e.symbol, target)
            entries.append(Entry(e.coords + (t,), target))
        out.append(Diagonal.from_entries(H_next, entries))
    if not pairwise_disjoint_family(out):
        raise RuntimeError("fibre constant diagonals are not disjoint")
    return out


def iterated_hypercube(ops: Sequence[Quasigroup]) -> Hypercube:
    """Left-nested chain of binary quasigroups; d-1 operations give dimension d."""
    if not ops:
        raise ValueError("need at least one quasigroup")
    n = ops[0].order
    if any(q.order != n for q in ops):
        raise ValueError("all quasigroups must have the same order")
    H = Hypercube(np.array(ops[0].table, dtype=np.int64))
    for q in ops[1:]:
        H = quasi_extend(H, q)
    return H


def iterated_decomposition(ops: Sequence[Quasigroup]) -> list[Diagonal]:
    """Decomposition of the iterated hypercube into n^(d-1) diagonals.

    Alternates through the chain: constant diagonals after an even number of
    coordinates, transversals after an odd number."""
    if not ops:
        raise ValueError("need at least one quasigroup")
    H = Hypercube(np.array(ops[0].table, dtype=np.int64))
    parts = symbol_classes(H)
    constant = True
    for q in ops[1:]:
        new_parts: list[Diagonal] = []
        for D in parts:
            if constant:
                new_parts.extend(constant_to_transversal_fibre(H, q, D))
            else:
                new_parts.extend(transversal_to_constant_fibre(H, q, D))
        H = quasi_extend(H, q)
        parts = new_parts
        constant = not constant
    if not pairwise_disjoint_family(parts):
        raise RuntimeError("iterated decomposition is not a partition")
    return parts


# -- hitting-set transfer to extensions ---------------------------------------


@dataclass
class ExtensionHittingCertificate:
    """Record of a verified transfer: if every diagonal of the base with the
    extension's target deviation sum meets the cell set, then every transversal
    of the extension meets the fibre of that cell set."""

    base_instance: str
    group: str
    d_prime: int
    cells: tuple[Coords, ...]
    base_checked: bool

    @property
    def holds(self) -> bool:
        return self.base_checked


def extension_hitting_certificate(
    L: Hypercube,
    group: AbelianGroup | None,
    d_prime: int,
    cells: Sequence[Coords],
    budget=None,
) -> ExtensionHittingCertificate:
    from .search import hitting_set_check

    group = L.group if group is None else group
    target = suitable_target(group, d_prime)
    ok = hitting_set_check(L, group, target, cells, budget)
    return ExtensionHittingCertificate(
        base_instance=L.content_id(),
        group=str(group),
        d_prime=d_prime,
        cells=tuple(tuple(c) for c in cells),
        base_checked=ok,
    )
