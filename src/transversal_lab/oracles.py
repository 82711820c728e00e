"""Independent brute-force oracles that the claim suite and the tests compare
the search engine against.

These deliberately avoid the package's search engine: diagonals come from raw
products of coordinate permutations, sums from direct modular arithmetic, and
Latin squares from plain row-by-row backtracking.  They take raw symbol
arrays, not cubes, and are exponential by design; use them on small orders
only.

The diagonals of each shape (n, d) are built once, with their cells'
positions in the row-major flattening and their coordinate sums, and kept
for the 16 most recently used shapes; the transversal and target-sum tests
read symbols from that flattening as a Python list.  Every call returns a
new list."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .hypercube import Coords

Cells = tuple[Coords, ...]


@lru_cache(maxsize=16)
def _diagonals(n: int, d: int) -> tuple[tuple[Cells, tuple[int, ...], int], ...]:
    """Every diagonal of an n^d array: its cells, their positions in the
    row-major flattening, and the sum of all their coordinates."""
    perms = list(itertools.permutations(range(n)))
    strides = [n ** (d - 1 - k) for k in range(d)]
    # row r's position in the flattening, and each permutation's values
    # scaled by the stride of each later axis
    rows = [r * strides[0] for r in range(n)]
    scaled = [[[x * s for x in p] for p in perms] for s in strides[1:]]
    out = []
    for choice in itertools.product(range(len(perms)), repeat=d - 1):
        cells = tuple(zip(range(n), *[perms[i] for i in choice]))
        flat = tuple(map(sum, zip(rows, *[axis[i] for axis, i in zip(scaled, choice)])))
        out.append((cells, flat, sum(map(sum, cells))))
    return tuple(out)


def brute_diagonals(arr: np.ndarray) -> list[Cells]:
    """Every complete diagonal, as a tuple of coordinate tuples."""
    return [cells for cells, _, _ in _diagonals(arr.shape[0], arr.ndim)]


def brute_transversals(arr: np.ndarray) -> list[Cells]:
    """Every diagonal whose symbols are pairwise distinct."""
    n = arr.shape[0]
    symbols = arr.ravel().tolist()
    return [cells for cells, flat, _ in _diagonals(n, arr.ndim)
            if len({symbols[i] for i in flat}) == n]


def brute_target_diagonals(arr: np.ndarray, target: int) -> list[Cells]:
    """Diagonals whose symbol-minus-coordinate-sum values add to target mod n."""
    n = arr.shape[0]
    symbols = arr.ravel().tolist()
    return [cells for cells, flat, coords in _diagonals(n, arr.ndim)
            if (sum([symbols[i] for i in flat]) - coords) % n == target]


def brute_max_disjoint(arr: np.ndarray) -> int:
    """Maximum number of pairwise disjoint transversals, by full recursion."""
    tr = [frozenset(cells) for cells in brute_transversals(arr)]

    def rec(i: int, used: frozenset) -> int:
        if i == len(tr):
            return 0
        best = rec(i + 1, used)
        if not (tr[i] & used):
            best = max(best, 1 + rec(i + 1, used | tr[i]))
        return best

    return rec(0, frozenset())


def all_latin_squares(n: int) -> list[np.ndarray]:
    """Every Latin square of order n, by exhaustive row-by-row backtracking.

    Each permutation carries a mask with bit c*n + s set when it puts symbol
    s in column c, so a row clashes with the rows above exactly when its mask
    meets theirs."""
    perms = [(p, sum(1 << (c * n + s) for c, s in enumerate(p)))
             for p in itertools.permutations(range(n))]
    rows: list[tuple[int, ...]] = []
    out: list[np.ndarray] = []

    def rec(r: int, used: int) -> None:
        if r == n:
            out.append(np.array(rows, dtype=np.int64))
            return
        for perm, mask in perms:
            if mask & used:
                continue
            rows.append(perm)
            rec(r + 1, used | mask)
            rows.pop()

    rec(0, 0)
    return out
