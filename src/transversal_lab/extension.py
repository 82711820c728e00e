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

Every boost here is the one step ``hypercube.quasi_extend``: the extension
over a group boosts by the group's addition square (``cyclic(group, 2)``),
and a chain of Latin squares (``iterated_hypercube``) boosts its first square
by each of the others.  The fibre partitions split a diagonal's fibre in the
boosted cube they are handed, reading every symbol from it, so a chain's
decomposition builds each level once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .delta import delta_sum, is_suitable, suitable_target
from .groups import AbelianGroup, Element, checked_int, index_table
from .hypercube import (
    Coords,
    Diagonal,
    Entry,
    Hypercube,
    cyclic,
    is_latin,
    pairwise_disjoint_family,
    quasi_extend,
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
    if checked_int(d_prime) <= L.d:
        raise ValueError(f"target dimension {d_prime} must exceed base dimension {L.d}")
    Q = cyclic(out.group, 2)
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


# -- chains of Latin squares ---------------------------------------------------


def constant_to_transversal_fibre(H: Hypercube, D: Diagonal) -> list[Diagonal]:
    """Partition the fibre in the boosted cube H of a constant diagonal D of
    the cube it boosts into n disjoint transversals.

    Uses the n cyclic shifts as mutually discordant last coordinates: the
    k-th takes cell (c_i, (i + k) mod n) over the i-th cell c_i of D."""
    if not D.is_constant() or len(D.entries) != H.n:
        raise ValueError("need a complete constant diagonal")
    base, n = sorted(D.cells()), H.n
    out = [Diagonal.from_cells(H, [c + ((i + k) % n,) for i, c in enumerate(base)],
                               transversal=True)
           for k in range(n)]
    if not pairwise_disjoint_family(out):
        raise RuntimeError("fibre transversals are not disjoint")
    return out


def transversal_to_constant_fibre(H: Hypercube, T: Diagonal) -> list[Diagonal]:
    """Partition the fibre in the boosted cube H of a transversal T of the
    cube it boosts into n disjoint constant diagonals: the one of symbol s
    takes, over each cell c of T, the unique t with H[c + (t,)] == s."""
    if not T.has_distinct_symbols() or len(T.entries) != H.n:
        raise ValueError("need a complete transversal")
    lines = [(c, [H.entry(c + (t,)).symbol for t in range(H.n)]) for c in sorted(T.cells())]
    out = [Diagonal.from_entries(H, [(c + (line.index(s),), s) for c, line in lines])
           for s in range(H.n)]
    if not pairwise_disjoint_family(out):
        raise RuntimeError("fibre constant diagonals are not disjoint")
    return out


def iterated_hypercube(squares: Sequence[Hypercube]) -> Hypercube:
    """The paper's chain H_d = H_{d-1} * x_d: the first Latin square boosted
    by each of the others (``quasi_extend``); d - 1 squares give dimension d."""
    if not squares or squares[0].d != 2 or not is_latin(squares[0]):
        raise ValueError("need a chain of Latin squares")
    H = squares[0]
    for Q in squares[1:]:
        H = quasi_extend(H, Q)
    return H


def iterated_decomposition(squares: Sequence[Hypercube]) -> list[Diagonal]:
    """Decomposition of the iterated hypercube into n^(d-1) diagonals.

    Alternates through the chain, splitting each part's fibre in the level's
    boost, built once: constant diagonals after an even number of
    coordinates, transversals after an odd number."""
    H = iterated_hypercube(squares[:1])
    parts = symbol_classes(H)
    constant = True
    for Q in squares[1:]:
        H = quasi_extend(H, Q)
        split = constant_to_transversal_fibre if constant else transversal_to_constant_fibre
        parts = [P for D in parts for P in split(H, D)]
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
