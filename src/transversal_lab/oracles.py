"""Independent brute-force oracles that the claim suite and the tests compare
the search engine against.

These deliberately avoid the package's search engine: diagonals come from raw
products of coordinate permutations, sums from direct modular arithmetic, and
Latin squares from plain row-by-row backtracking.  They take raw symbol
arrays, not cubes, and are exponential by design; use them on small orders
only."""

from __future__ import annotations

import itertools

import numpy as np

from .hypercube import Coords

Cells = tuple[Coords, ...]


def brute_diagonals(arr: np.ndarray) -> list[Cells]:
    """Every complete diagonal, as a tuple of coordinate tuples."""
    n = arr.shape[0]
    d = arr.ndim
    out = []
    for perms in itertools.product(itertools.permutations(range(n)), repeat=d - 1):
        out.append(tuple((r,) + tuple(p[r] for p in perms) for r in range(n)))
    return out


def brute_transversals(arr: np.ndarray) -> list[Cells]:
    """Every diagonal whose symbols are pairwise distinct."""
    n = arr.shape[0]
    out = []
    for cells in brute_diagonals(arr):
        if len({int(arr[c]) for c in cells}) == n:
            out.append(cells)
    return out


def brute_target_diagonals(arr: np.ndarray, target: int) -> list[Cells]:
    """Diagonals whose symbol-minus-coordinate-sum values add to target mod n."""
    n = arr.shape[0]
    out = []
    for cells in brute_diagonals(arr):
        s = sum(int(arr[c]) - sum(c) for c in cells) % n
        if s == target:
            out.append(cells)
    return out


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
    """Every Latin square of order n, by exhaustive row-by-row backtracking."""
    rows: list[tuple[int, ...]] = []
    out: list[np.ndarray] = []
    col_used = [set() for _ in range(n)]

    def rec(r: int) -> None:
        if r == n:
            out.append(np.array(rows, dtype=np.int64))
            return
        for perm in itertools.permutations(range(n)):
            if any(perm[c] in col_used[c] for c in range(n)):
                continue
            rows.append(perm)
            for c in range(n):
                col_used[c].add(perm[c])
            rec(r + 1)
            for c in range(n):
                col_used[c].discard(perm[c])
            rows.pop()

    rec(0)
    return out
