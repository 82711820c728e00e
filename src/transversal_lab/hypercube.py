"""Dense d-dimensional Latin hypercubes with validation, slicing and a text format.

Storage is a flat row-major array (last coordinate fastest).  The index set is
always {0, ..., n-1}; a group labeling is carried alongside the array, the one
every deviation and target sum reads, so the same array is analyzed under
another labeling as a cube built with that group (``Hypercube(H.symbols, g)``
or ``load(path, g)``).  Cubes compare and hash by their arrays alone.

One integer rule covers what callers hand a cube: ``groups.checked_int`` for
a scalar, a NumPy integer dtype for symbols and permutations,
``Hypercube.entry`` for a cell and ``Hypercube.member`` for an entry.
``H[coords]`` wraps negative coordinates, as NumPy does, so it is for checked
coordinates only.

The paper's boost step H_d(x_1..x_d) = H_{d-1}(x_1..x_{d-1}) * x_d over a
quasigroup (Q, *) lives here, once: ``quasi_extend(H, Q)``, where the Latin
square Q is the quasigroup's table.  The cyclic cube is a group's addition
square boosted by itself; every other boost goes through the same step.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .groups import AbelianGroup, checked_int, cyclic_group, index_table

Coords = tuple[int, ...]


class FormatError(ValueError):
    """Raised for malformed hypercube text input."""


class Entry(NamedTuple):
    coords: Coords
    symbol: int


def _integer_array(values, what: str) -> np.ndarray:
    """values as an array of integer dtype, a list's items checked for bools too."""
    arr = np.array(values)
    items = () if isinstance(values, np.ndarray) else np.array(values, dtype=object).flat
    if arr.dtype.kind not in "iu" or not {bool, np.bool_}.isdisjoint(map(type, items)):
        raise ValueError(f"{what} must be integers, none of them a bool")
    return arr


class Hypercube:
    """Immutable order-n dimension-d symbol array, of an integer dtype."""

    __slots__ = ("d", "n", "group", "_arr", "_latin", "_hash")

    def __init__(self, symbols, group: AbelianGroup | None = None):
        arr = _integer_array(symbols, "symbols")
        if arr.ndim < 2:
            raise ValueError("hypercube dimension must be at least 2")
        n = arr.shape[0]
        if any(s != n for s in arr.shape):
            raise ValueError(f"all axes must have equal length, got shape {arr.shape}")
        if n > 0 and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"symbols must lie in [0, {n})")
        arr = arr.astype(np.int64, copy=False)
        if group is None:
            group = cyclic_group(n)
        elif group.order != n:
            raise ValueError(f"group order {group.order} does not match order {n}")
        arr.setflags(write=False)
        self.d = arr.ndim
        self.n = n
        self.group = group
        self._arr = arr
        self._latin: bool | None = None
        self._hash: int | None = None

    @property
    def symbols(self) -> np.ndarray:
        """Read-only symbol array of shape (n,) * d."""
        return self._arr

    def __getitem__(self, coords) -> int:
        return int(self._arr[tuple(coords)])

    def entry(self, coords) -> Entry:
        """The entry at a caller's cell: ValueError unless the cell is d
        integers (``checked_int``) in [0, n)."""
        try:
            cell = tuple(map(checked_int, coords))
        except (TypeError, ValueError):
            cell = ()
        if len(cell) != self.d or min(cell) < 0 or max(cell) >= self.n:
            raise ValueError(f"cell {coords!r} is not a cell of the host (d={self.d}, n={self.n})")
        return Entry(cell, int(self._arr[cell]))

    def member(self, entry) -> Entry:
        """The host's entry for a caller's (coords, symbol) pair: ValueError unless
        entry is such a pair and coords is a cell (``entry``) holding the integer
        symbol."""
        try:
            coords, symbol = entry
        except (TypeError, ValueError):
            raise ValueError(f"entry {entry!r} is not a (coords, symbol) pair") from None
        own = self.entry(coords)
        if own.symbol != checked_int(symbol):
            raise ValueError(f"entry {entry!r} does not match the host symbol {own.symbol}")
        return own

    def cells(self) -> Iterator[Coords]:
        """All coordinate tuples in row-major order."""
        return itertools.product(range(self.n), repeat=self.d)

    def entries(self) -> Iterator[Entry]:
        flat = self._arr.reshape(-1)
        for i, coords in enumerate(self.cells()):
            yield Entry(coords, int(flat[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypercube):
            return NotImplemented
        return self.d == other.d and self.n == other.n and np.array_equal(self._arr, other._arr)

    def __hash__(self) -> int:
        if self._hash is None:
            digest = hashlib.sha256(self._arr.tobytes()).digest()
            self._hash = hash((self.d, self.n, digest))
        return self._hash

    def content_id(self) -> str:
        return "sha256:" + hashlib.sha256(serialize(self).encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Hypercube(d={self.d}, n={self.n}, group={self.group})"


def cyclic(group: AbelianGroup, d: int) -> Hypercube:
    """The hypercube whose symbol at x is the group sum of the coordinates:
    the group's addition square, boosted d - 2 times by itself."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    H = Q = Hypercube(index_table(group).add_array, group)
    Q._latin = True
    for _ in range(d - 2):
        H = quasi_extend(H, Q)
    return H


def quasi_extend(H: Hypercube, Q: Hypercube) -> Hypercube:
    """The paper's boost step H_d(x, t) = H_{d-1}(x) * t over the quasigroup
    whose table is the Latin square Q: one more axis, the symbol at (x, t)
    being Q[H[x], t].  ValueError unless Q is a Latin square of H's order.
    The result keeps H's group, and is Latin exactly when H is."""
    if Q.d != 2 or Q.n != H.n or not is_latin(Q):
        raise ValueError(f"the boost table must be a Latin square of order {H.n}")
    out = Hypercube(Q.symbols[H.symbols[..., None], np.arange(H.n)], H.group)
    out._latin = H._latin
    return out


def is_latin(H: Hypercube) -> bool:
    """True iff every line contains each symbol exactly once.  Cached."""
    if H._latin is None:
        # sorted along an axis, every line reads 0..n-1 along it
        want = np.arange(H.n)
        H._latin = all(
            (np.sort(H.symbols, axis) == want.reshape(-1, *[1] * (H.d - 1 - axis))).all()
            for axis in range(H.d)
        )
    return H._latin


def subcube(H: Hypercube, index_sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Restriction of the symbol array to the given per-axis index sets."""
    if len(index_sets) != H.d:
        raise ValueError(f"need {H.d} index sets, got {len(index_sets)}")
    for s in index_sets:
        if len(s) == 0:
            raise ValueError("index sets must be nonempty")
        if not all(0 <= checked_int(v) < H.n for v in s):
            raise ValueError(f"index set {s!r} leaves [0, {H.n})")
    return H.symbols[np.ix_(*index_sets)].copy()


def apply_isotopy(H: Hypercube, perms: Sequence[Sequence[int]]) -> Hypercube:
    """Permute coordinates axiswise and relabel symbols.

    perms holds d coordinate permutations followed by one symbol permutation;
    entry (x_1,...,x_d; s) maps to (p_1(x_1),...,p_d(x_d); p_{d+1}(s)).  Each
    must read as an array of integer dtype.
    """
    if len(perms) != H.d + 1:
        raise ValueError(f"need {H.d + 1} permutations, got {len(perms)}")
    arrs = []
    for p in perms:
        a = _integer_array(p, "permutations")
        if sorted(a.tolist()) != list(range(H.n)):
            raise ValueError("each permutation must be a bijection of the index set")
        arrs.append(a)
    out = np.empty_like(H.symbols)
    out[np.ix_(*arrs[:-1])] = arrs[-1][H.symbols]
    result = Hypercube(out, H.group)
    if H._latin:
        result._latin = True
    return result


# -- diagonals ---------------------------------------------------------------


@dataclass(frozen=True)
class Diagonal:
    """A set of entries, no two of which share a hyperplane.

    ``complete`` is true iff the diagonal has exactly n entries for the host
    order n it was validated against.
    """

    entries: tuple[Entry, ...]
    complete: bool = field(default=False)

    @classmethod
    def from_entries(cls, H: Hypercube, entries: Iterable[Entry | tuple], *,
                     transversal: bool = False) -> "Diagonal":
        """Validate (coords, symbol) pairs against a host cube and wrap them:
        each is an entry of the host (``H.member``), no two share a
        hyperplane, and a transversal repeats no symbol."""
        return cls._of(H, [H.member(e) for e in entries], transversal)

    @classmethod
    def from_cells(cls, H: Hypercube, cells: Iterable[Coords], *,
                   transversal: bool = False) -> "Diagonal":
        """``from_entries`` on the host's entries at the cells (``H.entry``)."""
        return cls._of(H, [H.entry(c) for c in cells], transversal)

    @classmethod
    def _of(cls, H: Hypercube, entries: list[Entry], transversal: bool) -> "Diagonal":
        for axis in range(H.d):
            if len({e.coords[axis] for e in entries}) != len(entries):
                raise ValueError(f"two entries share a hyperplane on axis {axis}")
        if transversal and len({e.symbol for e in entries}) != len(entries):
            raise ValueError("entries repeat a symbol; not a transversal")
        return cls(tuple(entries), complete=len(entries) == H.n)

    def cells(self) -> tuple[Coords, ...]:
        return tuple(e.coords for e in self.entries)

    def cell_set(self) -> frozenset[Coords]:
        return frozenset(e.coords for e in self.entries)

    def symbols(self) -> tuple[int, ...]:
        return tuple(e.symbol for e in self.entries)

    def is_constant(self) -> bool:
        return len(set(self.symbols())) <= 1

    def has_distinct_symbols(self) -> bool:
        return len(set(self.symbols())) == len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def pairwise_disjoint_family(diagonals: Sequence[Diagonal]) -> bool:
    """True iff the diagonals are pairwise disjoint as cell sets."""
    seen: set[Coords] = set()
    for D in diagonals:
        cells = D.cell_set()
        if seen & cells:
            return False
        seen |= cells
    return True


# -- text format -------------------------------------------------------------


def serialize(H: Hypercube) -> str:
    """Text form: header line "lhc <d> <n>", then n^d symbols row-major."""
    lines = [f"lhc {H.d} {H.n}"]
    flat = H.symbols.reshape(-1, H.n) if H.n > 0 else H.symbols.reshape(0, 0)
    for row in flat:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse(text: str, group: AbelianGroup | None = None) -> Hypercube:
    """Parse the text format; '#' starts a comment line."""
    tokens: list[str] = []
    header: tuple[int, int] | None = None
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None:
            parts = stripped.split()
            if len(parts) != 3 or parts[0] != "lhc":
                raise FormatError(f"bad header line {stripped!r}; expected 'lhc <d> <n>'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise FormatError(f"bad header line {stripped!r}; d and n must be integers")
            continue
        tokens.extend(stripped.split())
    if header is None:
        raise FormatError("missing header line")
    d, n = header
    if d < 2 or n < 1:
        raise FormatError(f"invalid dimensions d={d}, n={n}")
    if len(tokens) != n**d:
        raise FormatError(f"expected {n**d} cells, found {len(tokens)}")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"non-integer cell value: {exc}")
    if any(not 0 <= v < n for v in values):
        raise FormatError(f"symbols must lie in [0, {n})")
    arr = np.array(values, dtype=np.int64).reshape((n,) * d)
    return Hypercube(arr, group)


def load(path, group: AbelianGroup | None = None) -> Hypercube:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), group)


def save(H: Hypercube, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(H))
