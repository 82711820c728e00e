"""Dimension boosting of Latin hypercubes and constructive lifting of diagonals.

A d'-dimensional extension of a d-dimensional cube L adds the extra
coordinates into the symbol: L'(x_1..x_{d'}) = L(x_1..x_d) + x_{d+1} + ... +
x_{d'} in L's own group, which the extension carries (``g_extension`` alone
may boost over another labeling of L).  Deviation values are preserved by
the projection onto the first d coordinates, which makes diagonals with the
right deviation sum in L exactly the shadows of transversals in L'.  The lift
itself is constructive: pad the middle dimensions with the natural
enumeration, then solve a zero-sum pairing problem in the group for the last
dimension.  All of it runs on element indices, through the group's
``index_table``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .delta import delta_sum, is_suitable, suitable_target
from .groups import AbelianGroup, Element, index_table
from .hypercube import (
    Coords,
    Diagonal,
    Entry,
    Hypercube,
    is_latin,
    pairwise_disjoint_family,
)


def g_extension(L: Hypercube, group: AbelianGroup | None = None, d_prime: int = 3) -> Hypercube:
    """Extension of L to dimension d_prime over the given group labeling (L's
    own when None), which the extension carries: one ``quasi_extend`` step per
    added dimension over the group's addition.  ValueError if the group's
    order is not L's."""
    out = L
    if group is not None and group != L.group:
        out = Hypercube(L.symbols, group)
        out._latin = L._latin
    if d_prime <= L.d:
        raise ValueError(f"target dimension {d_prime} must exceed base dimension {L.d}")
    Q = Quasigroup.from_group(out.group)
    for _ in range(d_prime - L.d):
        out = quasi_extend(out, Q)
    return out


@functools.lru_cache(maxsize=4)
def _extension(L: Hypercube, group: AbelianGroup, d_prime: int) -> Hypercube:
    """The extension the lifts check their results on, L's own
    (``L.group``), built once per cube, labeling and dimension and shared by
    every lift of a call tree and every call on one cube.  Cubes hash and
    compare by their arrays alone, so the group is part of the key."""
    return g_extension(L, group, d_prime)


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
    table = index_table(group)
    index = table.index  # a canonical tuple is a key; anything else is reduced first
    want = [index[s] if isinstance(s, tuple) and s in index else index[group.reduce(s)]
            for s in sigmas]
    a, b = _hall_indices(table.add, want)
    return [table.elements[x] for x in a], [table.elements[x] for x in b]


def _hall_indices(
    add: Sequence[Sequence[int]], want: list[int]
) -> tuple[list[int], list[int]]:
    """``hall_pair`` on element indices, with the group's addition table."""
    n = len(add)
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
    return a, b


def lift_diagonal(L: Hypercube, D: Diagonal, d_prime: int = 3) -> Diagonal:
    """Transversal of the extension that projects exactly onto D.

    D must have the deviation sum matching d_prime.  Middle dimensions are
    padded with the natural enumeration (entry i of D gets coordinate i on
    each); the last dimension comes from the zero-sum pairing, on element
    indices."""
    if not is_suitable(L, D, d_prime):
        raise ValueError(
            f"diagonal deviation sum {delta_sum(L, D)} does not match the"
            f" target {suitable_target(L.group, d_prime)} for dimension {d_prime}"
        )
    add = index_table(L.group).add
    extension = _extension(L, L.group, d_prime)
    middle = d_prime - L.d - 1
    syms = [e.symbol for e in D.entries]
    for _ in range(middle):
        syms = [add[s][i] for i, s in enumerate(syms)]
    a, b = _hall_indices(add, syms)
    entries = [
        Entry(e.coords + (i,) * middle + (b[i],), a[i]) for i, e in enumerate(D.entries)
    ]
    T = Diagonal.from_entries(extension, entries, transversal=True)
    if {e.coords[: L.d] for e in T.entries} != {e.coords for e in D.entries}:
        raise RuntimeError("lift does not project onto the input diagonal")
    return T


def _translated(T: Diagonal, L: Hypercube, tail: Sequence[int]) -> list[Entry]:
    """T's entries moved inside their fibre over L: the coordinates past L's
    d by ``tail`` and every symbol by the sum of ``tail`` (indices) in L's
    group, which keeps each entry on the extension."""
    add, d = index_table(L.group).add, L.d
    total = 0
    for t in tail:
        total = add[total][t]
    return [
        Entry(e.coords[:d] + tuple(add[c][t] for c, t in zip(e.coords[d:], tail)),
              add[e.symbol][total])
        for e in T.entries
    ]


def transversal_through_fibre(L: Hypercube, D: Diagonal, d_prime: int, alpha: Entry) -> Diagonal:
    """Transversal of the extension containing alpha, whose shadow is D.

    alpha, an entry of the extension (``Hypercube.member``), must project into
    D; the lifted transversal is translated inside the fibre until it passes
    through alpha, shifting every symbol by the group sum of the translation."""
    extension = _extension(L, L.group, d_prime)
    alpha = extension.member(alpha)
    head = alpha.coords[: L.d]
    if head not in D.cell_set():
        raise ValueError("alpha does not project into the diagonal")
    T = lift_diagonal(L, D, d_prime)
    anchor = next(e for e in T.entries if e.coords[: L.d] == head)
    sub = index_table(L.group).sub
    tail = [sub[y][x] for y, x in zip(alpha.coords[L.d :], anchor.coords[L.d :])]
    out = Diagonal.from_entries(extension, _translated(T, L, tail), transversal=True)
    if alpha not in out.entries:
        raise RuntimeError("translated lift missed the requested entry")
    return out


def lift_family(L: Hypercube, diagonals: Sequence[Diagonal], d_prime: int = 3) -> list[Diagonal]:
    """Disjoint transversal family of size m * n^(d'-d) from m disjoint diagonals.

    Each diagonal is lifted once, then translated over every tuple of extra
    coordinates (symbols shifted by the tuple's group sum)."""
    if not pairwise_disjoint_family(diagonals):
        raise ValueError("input diagonals are not pairwise disjoint")
    extension = _extension(L, L.group, d_prime)
    out: list[Diagonal] = []
    for D in diagonals:
        T = lift_diagonal(L, D, d_prime)
        for tail in itertools.product(range(L.n), repeat=d_prime - L.d):
            entries = _translated(T, L, tail)
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
    return [Diagonal.from_cells(L, np.argwhere(L.symbols == s)) for s in range(L.n)]


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
        return cls(index_table(group).add)


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

    group: str
    d_prime: int
    cells: tuple[Coords, ...]
    base_checked: bool

    @property
    def holds(self) -> bool:
        return self.base_checked


def extension_hitting_certificate(
    L: Hypercube, d_prime: int, cells: Sequence[Coords], budget=None
) -> ExtensionHittingCertificate:
    """Check the base condition of the transfer: every diagonal of L with the
    target deviation sum for d_prime meets ``cells``.  ValueError unless each
    is a cell of L (``Hypercube.entry``)."""
    from .search import hitting_set_check

    cells = tuple(L.entry(c).coords for c in cells)
    ok = hitting_set_check(L, suitable_target(L.group, d_prime), cells, budget)
    return ExtensionHittingCertificate(
        group=str(L.group),
        d_prime=d_prime,
        cells=cells,
        base_checked=ok,
    )
