"""Hypercube constructions with restricted transversals, plus their witness diagonals.

Parameterized families are generated from their defining formulas and
revalidated at build time (Latin check, witness checks); the fixed exhibit
squares are embedded as literal data guarded by checksums.  Constructors fail
loudly rather than returning an unvalidated object.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from .groups import AbelianGroup, checked_int, cyclic_group
from .hypercube import (
    Coords,
    Diagonal,
    Entry,
    Hypercube,
    cyclic,
    is_latin,
    serialize,
    subcube,
)


class ConstructionError(ValueError):
    """Parameter violation or failed build-time validation."""


def _require_latin(H: Hypercube, what: str) -> Hypercube:
    if not is_latin(H):
        raise ConstructionError(f"{what}: output failed the Latin check")
    return H


def _checked_transversal(H: Hypercube, rows: list[tuple[Coords, int]], what: str) -> Diagonal:
    try:
        return Diagonal.from_entries(H, rows, transversal=True)
    except ValueError as exc:
        raise ConstructionError(f"{what}: witness failed validation: {exc}")


# -- order divisible by four: a cube whose flipped corner block is untouchable --


def _bachelor_base_formula(n: int, d: int) -> np.ndarray:
    # one broadcast axis per coordinate, so that only full-size results are
    # ever allocated, never a grid per axis
    axes = np.ogrid[(slice(n),) * d]
    sigma = sum(axes)
    m = sum(x % 2 for x in axes)
    return np.where(m % 2 == 1, sigma - (m - 1), sigma - m) % n


def confirmed_bachelor(n: int, d: int) -> Hypercube:
    """Latin cube with transversals whose {0,1}^d corner block is on none of them.

    Built from the cyclic cube by an even symbol shift depending on the count
    of odd coordinates, then swapping symbols 0 and 1 inside the corner block,
    which leaves that block's cells with odd deviation values while every
    transversal needs an even deviation sum.  Requires even d > 2 and
    n a positive multiple of 4."""
    if d <= 2 or d % 2 != 0:
        raise ConstructionError(f"dimension must be even and greater than 2, got {d}")
    if n < 4 or n % 4 != 0:
        raise ConstructionError(f"order must be a positive multiple of 4, got {n}")
    arr = _bachelor_base_formula(n, d)
    corner = np.ix_(*[range(2)] * d)
    block = arr[corner]
    arr[corner] = np.where(block == 0, 1, np.where(block == 1, 0, block))
    return _require_latin(Hypercube(arr, cyclic_group(n)), "confirmed_bachelor")


def bachelor_forbidden_region(d: int) -> tuple[Coords, ...]:
    """The 2^d corner-block cells of confirmed_bachelor that avoid all transversals."""
    return tuple(itertools.product((0, 1), repeat=d))


def bachelor_transversal(n: int, d: int) -> Diagonal:
    """A validated transversal of confirmed_bachelor(n, d) avoiding the corner block.

    Four entries per even offset i in 0, 2, ..., n/2 - 2; the trailing
    coordinate pairs repeat (d - 4) / 2 times and cancel in the symbol."""
    if d < 4 or d % 2 != 0:
        raise ConstructionError(f"dimension must be even and at least 4, got {d}")
    if n < 4 or n % 4 != 0:
        raise ConstructionError(f"order must be a positive multiple of 4, got {n}")
    H = confirmed_bachelor(n, d)
    half = n // 2
    reps = (d - 4) // 2
    rows: list[tuple[Coords, int]] = []
    for i in range(0, half, 2):
        blocks = [
            ([3 + i, 1 + i, 1 + i, 1 - i] + [i, -i] * reps, 2 + 2 * i),
            ([half + 3 + i, half + 1 + i, -1 - i, 2 + i] + [1 + i, 1 - i] * reps, 3 + 2 * i),
            ([2 + i, -i, i, 3 + i] + [half + 1 + i, half + 1 - i] * reps, 5 + 2 * i),
            ([-i, 2 + i, half + i, half + 2 + i] + [half + i, half - i] * reps, 4 + 2 * i),
        ]
        for coords, sym in blocks:
            rows.append((tuple(x % n for x in coords), sym % n))
    forbidden = set(bachelor_forbidden_region(d))
    for coords, _ in rows:
        if coords in forbidden:
            raise ConstructionError("bachelor_transversal: entry landed in the corner block")
    return _checked_transversal(H, rows, "bachelor_transversal")


# -- the remaining order-4 dimension-4 species with untouchable cells --


def third_species_44() -> Hypercube:
    """Order-4 dimension-4 cube with exactly 32 cells on no transversal.

    From the cyclic cube: add 2 to the symbol wherever x1+x2, x3 and x4 share
    one parity, then swap symbols 0 and 3 wherever the last two coordinates
    both lie in {2, 3}."""
    n = 4
    i, j, k, l = np.ogrid[:n, :n, :n, :n]
    arr = (i + j + k + l) % n
    bump = ((i + j) % 2 == k % 2) & (k % 2 == l % 2)
    arr = np.where(bump, (arr + 2) % n, arr)
    tail = (k >= 2) & (l >= 2)
    swapped = np.where(arr == 0, 3, np.where(arr == 3, 0, arr))
    arr = np.where(tail, swapped, arr)
    return _require_latin(Hypercube(arr, cyclic_group(n)), "third_species_44")


def third_species_blocked_cells() -> tuple[Entry, ...]:
    """The 32 odd-deviation entries of third_species_44, which no transversal hits."""
    out = []
    for i in range(4):
        for k in (2, 3):
            for l in (2, 3):
                if k == l:
                    out.append(Entry((i, (3 - i) % 4, k, l), 0))
                    out.append(Entry((i, (2 - i) % 4, k, l), 3))
                else:
                    out.append(Entry((i, (3 - i) % 4, k, l), 3))
                    out.append(Entry((i, (2 - i) % 4, k, l), 0))
    return tuple(out)


def third_species_example_transversal() -> Diagonal:
    H = third_species_44()
    rows = [((3, 1, 2, 0), 0), ((0, 2, 0, 3), 1), ((2, 0, 3, 1), 2), ((1, 3, 1, 2), 3)]
    return _checked_transversal(H, rows, "third_species_example_transversal")


# -- turning an order-2 block --


def turn_subcube(H: Hypercube, corner: Coords, offsets: Coords) -> Hypercube:
    """Swap the two symbols on an order-2 two-symbol Latin block of H.

    The block is the product of {corner_i, corner_i + offset_i mod n} over all
    axes, the corner being a cell of H (``Hypercube.entry``) and the offsets
    integers (``checked_int``).  Every line of H meets the block in 0 or 2
    cells carrying both symbols, so the swap preserves the Latin property."""
    corner = H.entry(corner).coords
    offsets = tuple(map(checked_int, offsets))
    if len(offsets) != H.d:
        raise ConstructionError("offsets must have one component per axis")
    pairs = []
    for lo, o in zip(corner, offsets):
        hi = (lo + o) % H.n
        if lo == hi:
            raise ConstructionError("offsets must select two distinct values per axis")
        pairs.append((lo, hi))
    block = subcube(H, [list(p) for p in pairs])
    syms = sorted(set(int(v) for v in block.reshape(-1)))
    if len(syms) != 2:
        raise ConstructionError(f"selected block carries {len(syms)} symbols, need exactly 2")
    s0, s1 = syms
    parity = np.indices((2,) * H.d).sum(axis=0) % 2
    if not (
        np.array_equal(block, np.where(parity == 0, s0, s1))
        or np.array_equal(block, np.where(parity == 0, s1, s0))
    ):
        raise ConstructionError("selected block is not an order-2 Latin subhypercube")
    arr = H.symbols.copy()
    arr[np.ix_(*[list(p) for p in pairs])] = np.where(block == s0, s1, s0)
    out = Hypercube(arr, H.group)
    if H._latin:
        out._latin = True
    return out


def turned_region(n: int, d: int) -> tuple[Coords, ...]:
    """The 2^d cells with every coordinate in {0, n/2}."""
    return tuple(itertools.product((0, n // 2), repeat=d))


def turned_cyclic(n: int, d: int) -> Hypercube:
    """Cyclic cube with n/2 added on the {0, n/2}^d block.

    Exactly 2^d cells differ from the cyclic cube, so no family of disjoint
    transversals can exceed 2^d.  Requires even n > 2 and even d >= 2."""
    if n <= 2 or n % 2 != 0:
        raise ConstructionError(f"order must be even and greater than 2, got {n}")
    if d < 2 or d % 2 != 0:
        raise ConstructionError(f"dimension must be even and at least 2, got {d}")
    arr = sum(np.ogrid[(slice(n),) * d]) % n
    region = np.ix_(*[(0, n // 2)] * d)
    arr[region] = (arr[region] + n // 2) % n
    return _require_latin(Hypercube(arr, cyclic_group(n)), "turned_cyclic")


def turned_cyclic_transversal(n: int, d: int) -> Diagonal:
    """A validated transversal of turned_cyclic(n, d); its first entry is the
    all-zero cell, which sits inside the turned block."""
    if n <= 2 or n % 2 != 0 or d % 2 != 0 or d < 2:
        raise ConstructionError(f"need even n > 2 and even d >= 2, got ({n}, {d})")
    H = turned_cyclic(n, d)
    half = n // 2
    reps = (d - 2) // 2
    rows: list[tuple[Coords, int]] = [((0,) * d, half)]
    for i in range(1, half):
        coords = [i, -2 * i] + [i, -i] * reps
        rows.append((tuple(x % n for x in coords), (-i) % n))
    for i in range(half, n):
        coords = [i, -1 - 2 * i] + [i, -i] * reps
        rows.append((tuple(x % n for x in coords), (-1 - i) % n))
    return _checked_transversal(H, rows, "turned_cyclic_transversal")


def translated_transversals(
    H: Hypercube, T: Diagonal, vectors: list[Coords]
) -> list[Diagonal]:
    """Translate a transversal cellwise by each vector, revalidating each result.

    The translated entry at coords + v carries whatever symbol H stores there;
    validation rejects any vector for which the translate is not a transversal."""
    Diagonal.from_entries(H, T.entries, transversal=True)
    out: list[Diagonal] = []
    for vec in vectors:
        vec = tuple(map(checked_int, vec))
        if len(vec) != H.d:
            raise ConstructionError("translation vector has wrong dimension")
        cells = [tuple((c + v) % H.n for c, v in zip(e.coords, vec)) for e in T.entries]
        try:
            out.append(Diagonal.from_cells(H, cells, transversal=True))
        except ValueError as exc:
            raise ConstructionError(f"translate by {vec} failed validation: {exc}")
    return out


# -- fixed exhibit squares --

_ORD8_ROWS = [
    [0, 1, 3, 4, 5, 6, 7, 2],
    [3, 4, 2, 6, 7, 5, 1, 0],
    [2, 3, 4, 5, 6, 7, 0, 1],
    [1, 2, 5, 3, 4, 0, 6, 7],
    [4, 5, 6, 7, 0, 1, 2, 3],
    [5, 6, 7, 0, 1, 2, 3, 4],
    [6, 7, 0, 1, 2, 3, 4, 5],
    [7, 0, 1, 2, 3, 4, 5, 6],
]
_ORD8_SHA = "b92ec555336becbaaaa5ce99acfdb283d9e18de5b3dec16e9ff34549c19e3645"

_Z6_ISOTOPE_ROWS = [
    [0, 1, 2, 3, 5, 4],
    [1, 2, 3, 5, 4, 0],
    [2, 3, 5, 4, 0, 1],
    [3, 5, 4, 0, 1, 2],
    [5, 4, 0, 1, 2, 3],
    [4, 0, 1, 2, 3, 5],
]
_Z6_ISOTOPE_SHA = "e7dbaf04a3955d702be4ddac9494fdeb79ace26b889905053db8079dd1795820"

_L8_ROWS = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 4, 5, 6, 7, 0, 3, 2],
    [2, 3, 4, 5, 6, 7, 0, 1],
    [3, 6, 7, 0, 1, 2, 5, 4],
    [4, 5, 6, 7, 0, 1, 2, 3],
    [5, 0, 1, 2, 3, 4, 7, 6],
    [6, 7, 0, 1, 2, 3, 4, 5],
    [7, 2, 3, 4, 5, 6, 1, 0],
]
_L8_SHA = "e2617fe77bac7268e2664fc7c4c566a6c528e096343fc6d6b9afb81c864d8703"


def _literal_square(rows: list[list[int]], sha: str, what: str) -> Hypercube:
    H = Hypercube(np.array(rows, dtype=np.int64), cyclic_group(len(rows)))
    digest = hashlib.sha256(serialize(H).encode()).hexdigest()
    if digest != sha:
        raise ConstructionError(f"{what}: embedded data failed its checksum")
    return _require_latin(H, what)


def ord8_square() -> Hypercube:
    """Order-8 square with at most two disjoint transversals: every diagonal
    with the transversal deviation sum passes one of two cells in row 1."""
    return _literal_square(_ORD8_ROWS, _ORD8_SHA, "ord8_square")


def ord8_blocking_cells() -> tuple[Coords, Coords]:
    """The two row-1 cells (deviation value -1) that every transversal must hit."""
    return ((1, 2), (1, 5))


def ord8_marked_transversals() -> tuple[Diagonal, Diagonal]:
    """The two disjoint transversals highlighted in the order-8 exhibit."""
    H = ord8_square()
    a = [((0, 0), 0), ((1, 2), 2), ((2, 7), 1), ((3, 4), 4),
         ((4, 3), 7), ((5, 1), 6), ((6, 5), 3), ((7, 6), 5)]
    b = [((0, 1), 1), ((1, 5), 5), ((2, 0), 2), ((3, 7), 7),
         ((4, 2), 6), ((5, 3), 0), ((6, 6), 4), ((7, 4), 3)]
    ta = _checked_transversal(H, a, "ord8_marked_transversals[0]")
    tb = _checked_transversal(H, b, "ord8_marked_transversals[1]")
    if ta.cell_set() & tb.cell_set():
        raise ConstructionError("ord8 marked transversals are not disjoint")
    return ta, tb


def ord6m_square(m: int) -> Hypercube:
    """Order-6m square made by rewriting nine cells of the cyclic square.

    The nine rewritten cells sit in rows {0, m, 2m} and columns {0, m, 2m, 4m}
    and are the only cells with nonzero deviation."""
    if m < 1:
        raise ConstructionError(f"m must be at least 1, got {m}")
    n = 6 * m
    arr = np.add.outer(np.arange(n), np.arange(n)) % n
    replacements = {
        (0, 0): m, (0, m): 2 * m, (m, 0): 2 * m, (m, m): m,
        (2 * m, 0): 0, (0, 2 * m): 4 * m, (2 * m, 2 * m): 2 * m,
        (0, 4 * m): 0, (2 * m, 4 * m): 4 * m,
    }
    for (r, c), s in replacements.items():
        arr[r, c] = s
    return _require_latin(Hypercube(arr, cyclic_group(n)), "ord6m_square")


def ord6m_starred_cells(m: int) -> tuple[Coords, Coords]:
    """The two nonzero-deviation cells in row m; every diagonal whose deviation
    sum is 3m passes through one of them."""
    return ((m, 0), (m, m))


def ord6m_marked_transversals() -> tuple[Diagonal, Diagonal]:
    """The two disjoint transversals highlighted in the order-6 instance (m=1)."""
    H = ord6m_square(1)
    a = [((0, 2), 4), ((1, 0), 2), ((2, 5), 1), ((3, 3), 0), ((4, 1), 5), ((5, 4), 3)]
    b = [((0, 3), 3), ((1, 1), 1), ((2, 0), 0), ((3, 2), 5), ((4, 4), 2), ((5, 5), 4)]
    ta = _checked_transversal(H, a, "ord6m_marked_transversals[0]")
    tb = _checked_transversal(H, b, "ord6m_marked_transversals[1]")
    if ta.cell_set() & tb.cell_set():
        raise ConstructionError("order-6 marked transversals are not disjoint")
    return ta, tb


def z6_isotope_square() -> Hypercube:
    """Cyclic order-6 square with symbols 4 and 5 exchanged.

    Symbol permutation changes which deviation sums diagonals can reach: this
    square has a diagonal with sum 3, which the cyclic square lacks."""
    return _literal_square(_Z6_ISOTOPE_ROWS, _Z6_ISOTOPE_SHA, "z6_isotope_square")


def z6_marked_diagonal() -> Diagonal:
    """The highlighted diagonal of the relabeled order-6 square; its deviation
    sum is 3, so it lifts to a transversal in any even-dimensional extension."""
    H = z6_isotope_square()
    rows = [((0, 5), 4), ((1, 4), 4), ((2, 3), 4), ((3, 0), 3), ((4, 2), 0), ((5, 1), 0)]
    return Diagonal.from_entries(H, rows)


def l8_square() -> Hypercube:
    """Order-8 square with no diagonal reaching the transversal deviation sum,
    whose 2-dilation nevertheless has transversals through every entry."""
    return _literal_square(_L8_ROWS, _L8_SHA, "l8_square")


# -- registry for the command line --

# id -> (required parameters, builder taking them in that order)
_REGISTRY = {
    "cyclic": (("group", "d"), cyclic),
    "confirmed-bachelor": (("n", "d"), confirmed_bachelor),
    "third-species-44": ((), third_species_44),
    "turned-cyclic": (("n", "d"), turned_cyclic),
    "ord8": ((), ord8_square),
    "ord6m": (("m",), ord6m_square),
    "z6-isotope": ((), z6_isotope_square),
    "l8": ((), l8_square),
}
CONSTRUCTION_IDS = tuple(_REGISTRY)


def build(construction_id: str, *, group: AbelianGroup | None = None,
          n: int | None = None, d: int | None = None, m: int | None = None) -> Hypercube:
    """Build a construction by its registry id, validating parameters."""
    if construction_id not in _REGISTRY:
        raise ConstructionError(f"unknown construction {construction_id!r}")
    required, builder = _REGISTRY[construction_id]
    given = {"group": group, "n": n, "d": d, "m": m}
    if any(given[k] is None for k in required):
        flags = " and ".join(f"--{k}" for k in required)
        raise ConstructionError(f"{construction_id} requires {flags}")
    return builder(*(given[k] for k in required))
