"""Deviation-from-cyclic analysis.

For a cube labeled by its group G (``Hypercube.group``), each entry
(x_1,...,x_d; s) gets the value delta = s - x_1 - ... - x_d computed in G
(coordinates and symbols identified with group elements through G's fixed
enumeration).  The set of cells with nonzero delta, and its per-axis
projections, drive most restriction arguments.  Every function here reads the
cube's own group; to read one array under another labeling, build the cube
with that group (``Hypercube(H.symbols, group)``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .groups import AbelianGroup, Element, checked_int, index_table
from .hypercube import Coords, Diagonal, Entry, Hypercube, cyclic


class DeltaProfile:
    """Delta values of one cube under its own group labeling."""

    __slots__ = ("host", "indices", "support", "projections")

    def __init__(self, host: Hypercube, indices: np.ndarray):
        self.host = host
        indices.setflags(write=False)
        self.indices = indices
        elements = index_table(host.group).elements
        # np.argwhere returns row-major order, keeping support iteration deterministic
        cells = map(tuple, np.argwhere(indices != 0).tolist())
        self.support: dict[Coords, Element] = {c: elements[indices[c]] for c in cells}
        self.projections: tuple[frozenset[int], ...] = tuple(
            frozenset(cell[axis] for cell in self.support) for axis in range(host.d)
        )

    @property
    def group(self) -> AbelianGroup:
        return self.host.group

    def value_at(self, coords) -> Element:
        """The delta at a caller's cell, checked by ``Hypercube.entry``."""
        return index_table(self.group).elements[self.indices[self.host.entry(coords).coords]]

    def projection_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.projections)

    def __repr__(self) -> str:
        return (
            f"DeltaProfile(host={self.host!r}, group={self.group}, "
            f"support={len(self.support)} cells)"
        )


@lru_cache(maxsize=256)
def _profile_cached(H: Hypercube, group: AbelianGroup) -> DeltaProfile:
    # keyed on the group too: cubes compare equal whatever their labeling;
    # the cyclic cube of the group holds x_1 + ... + x_d at every cell
    sub = index_table(group).sub_array
    return DeltaProfile(H, sub[H.symbols, cyclic(group, H.d).symbols])


def profile(H: Hypercube) -> DeltaProfile:
    """Full delta profile in H's group (memoized per cube and group): each
    cell's symbol minus its coordinate sum, one subtraction table lookup."""
    return _profile_cached(H, H.group)


def delta(H: Hypercube, e: Entry) -> Element:
    """Delta value of a single entry in H's group; ValueError unless the
    entry is one of H's (``Hypercube.member``).

    Computed componentwise with the checked group operations: the reference
    that ``profile`` is tested against."""
    group = H.group
    coords, symbol = H.member(e)
    coord_sum = group.sum(group.element(c) for c in coords)
    return group.sub(group.element(symbol), coord_sum)


def delta_sum(H: Hypercube, D: Diagonal | Sequence[Entry]) -> Element:
    """Sum in H's group of delta over a (possibly partial) diagonal's entries,
    each checked by ``delta``."""
    entries = D.entries if isinstance(D, Diagonal) else D
    return H.group.sum(delta(H, e) for e in entries)


def suitable_target(group: AbelianGroup, d_prime: int) -> Element:
    """The delta sum required of a diagonal that can become a transversal in
    an extension to dimension d_prime: (1 - d_prime) times the all-element sum."""
    if checked_int(d_prime) < 2:
        raise ValueError("d_prime must be at least 2")
    return group.scalar_mul(1 - d_prime, group.g_plus())


def is_suitable(H: Hypercube, D: Diagonal, d_prime: int) -> bool:
    """True iff the complete diagonal D has H's target delta sum for d_prime."""
    if len(D.entries) != H.n:
        raise ValueError(f"diagonal has {len(D.entries)} entries, need {H.n} (complete)")
    return delta_sum(H, D) == suitable_target(H.group, d_prime)


def support_as_json(prof: DeltaProfile) -> list[dict]:
    """Support cells with their delta values, as JSON-ready records."""
    return [
        {"coords": list(cell), "delta": list(val)} for cell, val in prof.support.items()
    ]
