"""Order boosting by dilation, and transfer of hitting-set restrictions.

The lambda-dilation of a cube of order n embeds a scaled copy at the cells
whose coordinates are all divisible by lambda, inside an otherwise cyclic
frame of order lambda * n.  The embedding psi multiplies coordinates and
symbol by lambda; deviation values scale the same way and vanish off the
embedded image, which lets hitting-set arguments transfer from the base to
the dilation under a parity condition and a smallness condition on the
deviation support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .delta import profile, suitable_target
from .groups import AbelianGroup, cyclic_group
from .hypercube import Coords, Diagonal, Entry, Hypercube, is_latin
from .search import SearchBudget, complete_avoiding, hitting_set_check


def _require_zn(H: Hypercube) -> None:
    if H.group.moduli != (H.n,):
        raise ValueError("dilation requires a single-factor cyclic labeling")


def dilate(H: Hypercube, factor: int) -> Hypercube:
    """Order-boosted cube: scaled copy of H on the divisible cells, cyclic elsewhere."""
    _require_zn(H)
    if factor < 2:
        raise ValueError("dilation factor must be at least 2")
    n, d = H.n, H.d
    N = n * factor
    grids = np.indices((N,) * d)
    arr = grids.sum(axis=0) % N
    embedded = np.all(grids % factor == 0, axis=0)
    scaled = (factor * H.symbols) % N
    # coordinates of embedded cells are factor * (base coordinates)
    arr[embedded] = scaled.reshape(-1)
    out = Hypercube(arr, cyclic_group(N))
    if not is_latin(out):
        raise RuntimeError("dilation failed the Latin check")
    return out


def psi(e: Entry, factor: int) -> Entry:
    """Embedding of a base entry into the dilation: scale coordinates and symbol.

    The scaled symbol needs no reduction: it is below factor * n already."""
    return Entry(tuple(factor * c for c in e.coords), factor * e.symbol)


def psi_cell(cell: Coords, factor: int) -> Coords:
    return tuple(factor * c for c in cell)


@dataclass
class SupportSpread:
    """Per-axis projection sizes of the nonzero-deviation support, and whether
    their total is small enough for the completion recipe to always work."""

    sizes: tuple[int, ...]
    bound: int
    holds: bool


def dilrect_condition(H: Hypercube, group: AbelianGroup | None = None) -> SupportSpread:
    """Check sum of per-axis support projections against (d-1) * n."""
    prof = profile(H, group)
    sizes = prof.projection_sizes()
    bound = (H.d - 1) * H.n
    return SupportSpread(sizes, bound, sum(sizes) <= bound)


def extend_partial_in_support(
    H: Hypercube,
    partial_cells: Sequence[Coords],
    group: AbelianGroup | None = None,
    budget: SearchBudget | None = None,
) -> Diagonal | None:
    """Complete a partial diagonal inside the support to a diagonal meeting the
    support exactly there.

    When the projection condition holds, a direct table-filling recipe always
    succeeds: give every remaining row one coordinate outside the corresponding
    support projection, then fill the columns with their unused values.
    Otherwise falls back to exhaustive search and may prove absence (None)."""
    prof = profile(H, group)
    X = set(prof.support)
    cells = [tuple(int(x) for x in c) for c in partial_cells]
    for c in cells:
        if c not in X:
            raise ValueError(f"cell {c} is not in the nonzero-deviation support")
    for a, b in itertools.combinations(cells, 2):
        if any(x == y for x, y in zip(a, b)):
            raise ValueError("partial cells share a hyperplane")

    spread = dilrect_condition(H, group)
    if not spread.holds:
        return complete_avoiding(H, cells, X, budget)

    n, d = H.n, H.d
    table: list[list[int | None]] = [[None] * d for _ in range(n)]
    col_used: list[set[int]] = [set() for _ in range(d)]
    for i, c in enumerate(cells):
        for j in range(d):
            table[i][j] = c[j]
            col_used[j].add(c[j])

    free_rows = list(range(len(cells), n))
    projections = prof.projections

    def place(idx: int, taken: set[tuple[int, int]]) -> bool:
        # choose a distinct (column, value-outside-projection) pin per free row
        if idx == len(free_rows):
            return True
        i = free_rows[idx]
        for j in range(d):
            for x in range(n):
                if x in projections[j] or x in col_used[j] or (j, x) in taken:
                    continue
                table[i][j] = x
                col_used[j].add(x)
                taken.add((j, x))
                if place(idx + 1, taken):
                    return True
                taken.discard((j, x))
                col_used[j].discard(x)
                table[i][j] = None
        return False

    if not place(0, set()):
        # the counting argument guarantees enough pins; fall back just in case
        return complete_avoiding(H, cells, X, budget)

    for j in range(d):
        unused = [x for x in range(n) if x not in col_used[j]]
        k = 0
        for i in range(n):
            if table[i][j] is None:
                table[i][j] = unused[k]
                k += 1
    out_cells = [tuple(row) for row in table]  # type: ignore[arg-type]
    D = Diagonal.from_cells(H, out_cells)
    if set(out_cells) & X != set(cells):
        raise RuntimeError("completion touched unexpected support cells")
    return D


@dataclass
class DilationCertificate:
    """Record of which transfer hypotheses were machine-checked.

    When parity, the base hitting property and the projection bound all hold,
    the conclusion follows by transfer.  When only the projection bound fails,
    the conclusion may instead be established directly on the dilation by an
    exhaustive support-branch check; ``direct_ok`` records that outcome."""

    base_instance: str
    factor: int
    cells: tuple[Coords, ...]
    parity_ok: bool
    base_hitting_ok: bool
    spread_ok: bool
    spread: SupportSpread
    direct_ok: bool | None = None

    @property
    def transferred(self) -> bool:
        return self.parity_ok and self.base_hitting_ok and self.spread_ok

    @property
    def holds(self) -> bool:
        return self.transferred or (self.parity_ok and bool(self.direct_ok))


def parity_condition(n: int, d: int, factor: int) -> bool:
    """The dilation transfer needs even order, odd dimension, or odd factor."""
    return n % 2 == 0 or d % 2 == 1 or factor % 2 == 1


def transfer_hitting_set(
    H: Hypercube,
    cells: Iterable[Coords],
    factor: int,
    budget: SearchBudget | None = None,
    method: str = "auto",
) -> DilationCertificate:
    """Certify that the dilation inherits a hitting-set restriction from the base.

    Hypotheses checked individually: the parity condition; that every diagonal
    of the base with the transversal deviation sum meets the cells; and the
    support projection condition.  When only the projection condition fails,
    the hitting property is instead checked directly on the dilation (the
    dilated support stays as small as the base support, so the support-branch
    check remains exhaustive)."""
    _require_zn(H)
    cells = tuple(tuple(int(x) for x in c) for c in cells)
    parity_ok = parity_condition(H.n, H.d, factor)
    spread = dilrect_condition(H)
    target = suitable_target(H.group, H.d)
    base_ok = hitting_set_check(H, H.group, target, cells, budget, method=method)
    direct_ok = None
    if parity_ok and base_ok and not spread.holds:
        big = dilate(H, factor)
        image = [psi_cell(c, factor) for c in cells]
        big_target = suitable_target(big.group, H.d)
        direct_ok = hitting_set_check(big, big.group, big_target, image, budget)
    return DilationCertificate(
        base_instance=H.content_id(),
        factor=factor,
        cells=cells,
        parity_ok=parity_ok,
        base_hitting_ok=base_ok,
        spread_ok=spread.holds,
        spread=spread,
        direct_ok=direct_ok,
    )
