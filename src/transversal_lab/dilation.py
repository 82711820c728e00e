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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .delta import profile, suitable_target
from .groups import checked_int, cyclic_group
from .hypercube import Coords, Entry, Hypercube, is_latin
from .search import SearchBudget, hitting_set_check


def _dilation_factor(H: Hypercube, factor: int) -> int:
    """The factor as an int: ValueError unless H has a single-factor cyclic
    labeling and the factor is an integer (``checked_int``) of at least 2."""
    if H.group.moduli != (H.n,):
        raise ValueError("dilation requires a single-factor cyclic labeling")
    factor = checked_int(factor)
    if factor < 2:
        raise ValueError("dilation factor must be at least 2")
    return factor


def dilate(H: Hypercube, factor: int) -> Hypercube:
    """Order-boosted cube: scaled copy of H on the divisible cells, cyclic
    elsewhere.  ValueError as ``_dilation_factor``."""
    factor = _dilation_factor(H, factor)
    n, d = H.n, H.d
    N = n * factor
    arr = sum(np.ogrid[(slice(N),) * d]) % N
    # coordinates of embedded cells are factor * (base coordinates)
    arr[np.ix_(*[range(0, N, factor)] * d)] = (factor * H.symbols) % N
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


def dilrect_condition(H: Hypercube) -> SupportSpread:
    """Check sum of per-axis support projections against (d-1) * n.

    When it holds, a partial diagonal inside the support always completes to
    one meeting the support exactly there: give every remaining row one
    coordinate outside the corresponding support projection, then fill the
    columns with their unused values."""
    prof = profile(H)
    sizes = prof.projection_sizes()
    bound = (H.d - 1) * H.n
    return SupportSpread(sizes, bound, sum(sizes) <= bound)


@dataclass
class DilationCertificate:
    """Record of which transfer hypotheses were machine-checked.

    When parity, the base hitting property and the projection bound all hold,
    the conclusion follows by transfer.  When only the projection bound fails,
    the conclusion may instead be established directly on the dilation by the
    same hitting-set check; ``direct_ok`` records that outcome."""

    factor: int
    cells: tuple[Coords, ...]
    parity_ok: bool
    base_hitting_ok: bool
    spread: SupportSpread
    direct_ok: bool | None = None

    @property
    def spread_ok(self) -> bool:
        return self.spread.holds

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
) -> DilationCertificate:
    """Certify that the dilation inherits a hitting-set restriction from the base.

    Hypotheses checked individually: the parity condition; that every diagonal
    of the base with the transversal deviation sum meets the cells; and the
    support projection condition.  When only the projection condition fails,
    the hitting property is instead checked directly on the dilation; the
    dilated support is the image of the base support, so the check branches
    over exactly as many partial diagonals as on the base.  ValueError unless
    each of ``cells`` is a cell of H (``Hypercube.entry``), and as
    ``_dilation_factor``."""
    factor = _dilation_factor(H, factor)
    cells = tuple(H.entry(c).coords for c in cells)
    parity_ok = parity_condition(H.n, H.d, factor)
    spread = dilrect_condition(H)
    target = suitable_target(H.group, H.d)
    base_ok = hitting_set_check(H, target, cells, budget)
    direct_ok = None
    if parity_ok and base_ok and not spread.holds:
        big = dilate(H, factor)
        image = [psi_cell(c, factor) for c in cells]
        big_target = suitable_target(big.group, H.d)
        direct_ok = hitting_set_check(big, big_target, image, budget)
    return DilationCertificate(
        factor=factor,
        cells=cells,
        parity_ok=parity_ok,
        base_hitting_ok=base_ok,
        spread=spread,
        direct_ok=direct_ok,
    )
