"""Exact search over diagonals and transversals.

Every engine reads one cell layout, ``_cell_fields``: cell i of row r (the
row's i-th in row-major order) holds value v of axis j (1..d-1) as field
(j-1)*n + v and, for transversals, symbol s as field (d-1)*n + s, so cells of
distinct rows lie on one diagonal (transversal) iff they share no field.  The
axis fields and their bits, the same on every row, are one read-only table
per (n, d) (``_shape``), so a cube adds only its symbol field.
Every engine gives a result as its cell index on each row, and ``_diagonals``
builds the ``Diagonal`` objects of only the results that are returned.

The one depth-first search, ``_dfs``, works on ``_Cells``: each row's cells
as an int bit set, so that a cell placed cuts every unfilled row's fitting
cells by a few ANDs and a row left with no cell ends the branch at once; it
runs at any number of fields.  One DFS node is one cell placed, a row's cells
taken in row-major order.  Which row it fills next is its one rule, set by
the caller.  Listing fills the lowest unfilled row, which fixes a
deterministic output order: it lists and counts transversals and
target-sum diagonals wherever the stored layers do not run.
Existence searches (through-cell searches, per-cell coverage scans and the
completions of hitting-set checks) take its first result and fill the row
with the fewest fitting cells first, which ends a branch with no result
soonest.
A target sum (``_TargetSum``, the one form every search with a target takes,
always in the cube's own group) rides along as the delta sum of the cells
placed, and is checked when the last row's cell is placed, so the DFS lists
only diagonals with that sum, in the same order and with the same nodes as
all diagonals.

The frontier layers run row by row on NumPy arrays: each layer is a sorted
``uint64`` array of packed states (a cell sets the bits of its fields) with
an ``int64`` array of ways beside it, and a whole layer meets a row in a few
array operations (``_fitting``).  One builder (``_back_layers``) stores
every backward layer, each state with its number of ways to complete, for
transversals or for diagonals with a target delta sum; counts are the ways
at the root.  Both readers step forward by one helper, ``_children``:
``_array_listing`` reads the results off in the DFS's order, taking only
branches that complete, and ``bachelor_cells`` decides every cell at once
by a forward sweep over the live states.  One rule, ``_layered``, picks the
engine of every search: both kinds of layers run exactly on the cubes whose
worst case (``_layer_work``, from the order, the dimension and the group
order) is within the one bound ``_WORK_BOUND``, and the DFS (for
``bachelor_cells``, one existence search per cell) on larger cubes.  A
budget only caps work and results; it never picks the engine.

Packings and decompositions run one exact cover (``_packs``) over every
listed transversal, held as one array of cell indices filled in place
(``_Table``) and never copied: one read-only ``uint64`` matrix holds each
cell's transversals as a row of bits, a node holds its live transversals
and each cell's count of them, and it branches on the cell with the fewest.
``max_disjoint_transversals`` asks it whether g = min(ub, cap), g - 1, ...
disjoint transversals exist, and ``hill_climb_decomposition`` whether
n**(d-1) do.

Absence results (bachelor cells, hitting-set certificates, packing optimality,
decompositions that do not exist) are only reported when the relevant search
tree ran to exhaustion within budget; otherwise results carry an explicit
exhausted flag or raise BudgetExhausted.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import numbers
import operator
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .delta import profile, suitable_target
from .groups import Element, IndexTable, checked_int, index_table
from .hypercube import Coords, Diagonal, Entry, Hypercube, is_latin

DEFAULT_SEED = 2024


class BudgetExhausted(RuntimeError):
    """Search budget ran out before the question was decided."""


@dataclass(frozen=True)
class SearchBudget:
    """Resource caps for one search.

    ``max_nodes`` caps the node expansions of one whole search, in every code
    path: cells placed by the depth-first search, states expanded and partial
    results extended on the frontier layers (a layer's states, or a block of
    partial results, in one step), and in the exact cover a
    transversal or cell read into its matrix, a greedy hitting-set step, and
    a transversal chosen or a cell left uncovered.  ``max_results`` caps the
    results listed or counted.  The caps only cut work and results short;
    none of them picks the engine (``_layered``).  Node-capped runs are
    deterministic; ``time_cap`` is a wall-clock safety valve and is not part
    of the determinism contract.

    ValueError unless the node and result caps are positive integers and the
    time cap is a positive real number, not a bool (``inf`` included): a
    fractional cap would never be met, and a NaN one never expires."""

    max_nodes: int = 2_000_000_000
    max_results: int | None = None
    time_cap: float | None = None

    def __post_init__(self) -> None:
        for name, cap in (("max_nodes", self.max_nodes), ("max_results", self.max_results)):
            try:
                if (name == "max_results" and cap is None) or checked_int(cap) > 0:
                    continue
            except ValueError:
                pass
            raise ValueError(f"{name} must be a positive integer, got {cap!r}")
        cap = self.time_cap
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, numbers.Real)
                                or not cap > 0):  # NaN fails `> 0` too
            raise ValueError(f"time_cap must be a positive real number, got {cap!r}")


class _Gauge:
    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap

    def tick(self, count: int = 1) -> None:
        """Count ``count`` nodes, or fill the budget and raise BudgetExhausted
        if they do not all fit; the clock is read each time the count passes a
        multiple of 4,096."""
        nodes = self.nodes + count
        if nodes > self.max_nodes:
            self.nodes = self.max_nodes
            raise BudgetExhausted(f"node budget {self.max_nodes} exhausted")
        self.nodes = nodes
        if self.deadline is not None and nodes & 4095 < count:
            if time.monotonic() > self.deadline:
                raise BudgetExhausted("time budget exhausted")


def _require_latin(H: Hypercube) -> None:
    if not is_latin(H):
        raise ValueError("search requires a Latin hypercube")


def _checked_cells(H: Hypercube, cells: Iterable[Coords]) -> list[tuple[int, int]]:
    """The caller's cells as (row, index) pairs, cell i of row r being the
    row's i-th in row-major order; each cell is checked by ``H.entry``, since
    a cell outside the cube lies on no diagonal and would read as an absence
    claim."""
    weights = [H.n ** k for k in reversed(range(H.d - 1))]
    return [(c[0], sum(map(operator.mul, c[1:], weights)))
            for c in (H.entry(cell).coords for cell in cells)]


class _Shape(NamedTuple):
    """The read-only parts of the cell layout that depend on the order n and
    the dimension d alone, built once per (n, d) by ``_shape``."""

    axes: np.ndarray  # [i]: the d - 1 axis fields of cell i of any row
    masks: np.ndarray  # their bits, on a row's (n,)*(d-1) grid: cell i at flat index i
    bits: np.ndarray  # 1 << b for each of the (d-1)*n axis bits b, for ``_fitting``
    place: np.ndarray  # each axis's place value in a cell index, for ``_fitting``


@functools.lru_cache(maxsize=16)
def _shape(n: int, d: int) -> _Shape:
    axes = np.indices((n,) * (d - 1)).reshape(d - 1, -1).T + n * np.arange(d - 1)
    bits = np.left_shift(np.uint64(1), np.arange((d - 1) * n, dtype=np.uint64))
    masks = np.bitwise_or.reduce(bits[axes], axis=1).reshape((n,) * (d - 1))
    shape = _Shape(axes, masks, bits, n ** np.arange(d - 2, -1, -1))
    for part in shape:
        part.setflags(write=False)
    return shape


def _cell_fields(H: Hypercube, transversal: bool) -> np.ndarray:
    """The one cell layout (see the module docstring): an (n, n**(d-1), k)
    read-only int array, [r, i] the k fields of cell i of row r: the axes of
    ``_shape`` on every row and, for transversals only (k = d), the symbol's."""
    n, axes = H.n, _shape(H.n, H.d).axes
    fields = np.broadcast_to(axes, (n, *axes.shape))
    if transversal:
        fields = np.concatenate([fields, H.symbols.reshape(n, -1, 1) + (H.d - 1) * n], axis=2)
        fields.setflags(write=False)
    return fields


@functools.lru_cache(maxsize=4)
def _cell_entries(H: Hypercube) -> list[list[Entry]]:
    """Each row's entries in row-major order, built once per cube: entry i of
    row r is the cell with index i on row r."""
    n, d = H.n, H.d
    rests = list(itertools.product(range(n), repeat=d - 1))
    return [[Entry((r,) + rest, s) for rest, s in zip(rests, syms)]
            for r, syms in enumerate(H.symbols.reshape(n, -1).tolist())]


def _diagonals(H: Hypercube, results: Iterable[Sequence[int]]) -> Iterator[Diagonal]:
    """Each result, given as its cell index on each row, as a Diagonal."""
    rows = _cell_entries(H)
    for cells in results:
        yield Diagonal(tuple(map(list.__getitem__, rows, cells)), complete=True)


def enumerate_transversals(
    H: Hypercube,
    budget: SearchBudget | None = None,
) -> Iterator[Diagonal]:
    """All transversals, each exactly once, in deterministic order: read off
    the stored layers or listed by the DFS, in the same order, as ``_layered``
    picks.  BudgetExhausted after the ``max_results``-th, or when the node or
    time cap cuts the listing."""
    _require_latin(H)
    budget = budget or SearchBudget()
    yield from _listed(H, budget, _results(H, _Gauge(budget))[1])


def enumerate_diagonals(
    H: Hypercube,
    target_sum: Element,
    budget: SearchBudget | None = None,
) -> Iterator[Diagonal]:
    """All complete diagonals with the given delta sum in H's group, in
    deterministic order, as ``enumerate_transversals`` lists."""
    _require_latin(H)
    budget = budget or SearchBudget()
    target = _TargetSum.of(H, target_sum)
    yield from _listed(H, budget, _results(H, _Gauge(budget), target)[1])


@dataclass(frozen=True)
class Census:
    """How many results a search has, and the first ``keep`` of them.

    ``witnesses`` are the first results of the matching ``enumerate_*`` call.
    ``nodes`` counts layer states and partial results extended, or DFS nodes
    (cells placed), the units ``max_nodes`` caps.  ``exact`` is False when a
    budget cut the search short; ``count`` is then ``max_results`` if that
    many results exist, and otherwise the number of results listed before the
    node or time budget ran out: on the stored layers the witnesses listed (0
    if the cut came while building them), on the DFS every result it reached.

    The census reads one ``_results`` listing, on the engine ``_layered``
    picks whatever the budget, limited to ``keep`` results (and to
    ``max_results``).  The layers give the count without listing, at most
    ``max_results``, and list only the witnesses, so each row holds at most
    ``keep`` partial results and no layer is read whole; the DFS counts what
    it lists and stops at the ``max_results``-th result, as ``enumerate_*``
    does."""

    count: int
    witnesses: tuple[Diagonal, ...]
    exact: bool
    nodes: int


def count_transversals(
    H: Hypercube,
    budget: SearchBudget | None = None,
    *,
    keep: int = 0,
) -> Census:
    """The number of transversals, and the first ``keep`` in enumeration order.

    By the rule of ``Census``."""
    _require_latin(H)
    return _census(H, budget or SearchBudget(), keep, None)


def count_diagonals(
    H: Hypercube,
    target_sum: Element,
    budget: SearchBudget | None = None,
    *,
    keep: int = 0,
) -> Census:
    """The number of complete diagonals with the given delta sum in H's group,
    and the first ``keep`` in enumeration order.

    By the rule of ``Census``, the layers' worst case holding one running sum
    per element of the group."""
    _require_latin(H)
    return _census(H, budget or SearchBudget(), keep, _TargetSum.of(H, target_sum))


class _TargetSum(NamedTuple):
    """A delta-sum target in index form, the one form every search with a
    target takes: the target's index, each cell's delta index (``deltas[r, i]``
    for cell i of row r), and the group's index table."""

    index: int
    deltas: np.ndarray
    table: IndexTable

    @classmethod
    def of(cls, H: Hypercube, target_sum: Element) -> _TargetSum:
        """The target in H's group."""
        index = H.group.index(H.group.reduce(target_sum))
        return cls(index, profile(H).indices.reshape(H.n, -1), index_table(H.group))


def _layered(H: Hypercube, target: _TargetSum | None) -> bool:
    """Whether the stored layers, not the DFS, search H for transversals
    (``target`` None) or target-sum diagonals: the one engine rule."""
    order = None if target is None else len(target.table.add)
    return _layer_work(H.n, H.d, order) <= _WORK_BOUND


def _results(
    H: Hypercube, gauge: _Gauge, target: _TargetSum | None = None, limit: int | None = None
) -> tuple[int | None, Iterator[np.ndarray]]:
    """Every transversal (``target`` None) or every diagonal with the target
    sum, in ``_dfs`` listing order, as ``(total, blocks)``: blocks are (k, n)
    arrays of each result's cell index per row.  Where ``_layered`` holds,
    ``total`` is the stored layers' count and the blocks are read off them
    (``_array_listing``), only the first ``limit`` results with a limit;
    otherwise ``total`` is None and the DFS lists every result, a result a
    block, as far as the caller reads."""
    if _layered(H, target):
        layers = _back_layers(H, gauge, target)
        return layers.count, _array_listing(layers, gauge, limit)
    listing = _dfs(_cube_cells(H, target is None), gauge, target)
    return None, (np.array([cells], np.intp) for cells in listing)


def _listed(
    H: Hypercube, budget: SearchBudget, blocks: Iterator[np.ndarray]
) -> Iterator[Diagonal]:
    results = itertools.chain.from_iterable(_diagonals(H, block.tolist()) for block in blocks)
    for emitted, diagonal in enumerate(results, 1):
        yield diagonal
        if emitted == budget.max_results:
            raise BudgetExhausted("result budget reached")


def _census(
    H: Hypercube, budget: SearchBudget, keep: int, target: _TargetSum | None
) -> Census:
    """Count the transversals (``target`` None) or the target-sum diagonals and
    list the first ``keep``, by the rule of ``Census``: the count is the
    layers' ``total`` where ``_results`` gives one, and otherwise the results
    read.  One gauge covers the whole census."""
    if checked_int(keep) < 0:
        raise ValueError("keep must be non-negative")
    gauge = _Gauge(budget)
    cap = budget.max_results
    witnesses: list[Diagonal] = []
    count = 0
    try:
        total, blocks = _results(H, gauge, target, keep if cap is None else min(keep, cap))
        for block in blocks:
            if len(witnesses) < keep:
                witnesses.extend(_diagonals(H, block[:keep - len(witnesses)].tolist()))
            count += len(block)
            if count == cap:
                break
        if total is not None:
            count = total if cap is None else min(total, cap)
    except BudgetExhausted:
        cap = count
    return Census(count, tuple(witnesses), count != cap, gauge.nodes)


# -- depth-first search --------------------------------------------------------


class _Cells(NamedTuple):
    """A cube's cells, row by row, for the depth-first search ``_dfs``.

    ``positions[r][i]`` holds the fields of cell i of row r (``_cell_fields``),
    so cells of distinct rows fit together iff they share no position.  A set
    of a row's cells is an int with bit i for cell i: ``allowed[r]`` holds the
    cells not forbidden, and ``avoiding[r][b]`` the allowed cells without
    position b."""

    positions: list[list[list[int]]]
    allowed: list[int]
    avoiding: list[list[int]]
    n: int

    @classmethod
    def of(
        cls, H: Hypercube, transversal: bool, forbidden: frozenset[tuple[int, int]] = frozenset()
    ) -> _Cells:
        """The cells of H, those in ``forbidden`` ((row, index) pairs) not
        allowed."""
        n = H.n
        fields = _cell_fields(H, transversal)
        positions = fields.tolist()
        allowed = [(1 << fields.shape[1]) - 1] * n
        for r, i in forbidden:
            allowed[r] &= ~(1 << i)
        avoiding = []
        for pos, ok in zip(positions, allowed):
            holding = [0] * (fields.shape[2] * n)  # one per field
            for i, ps in enumerate(pos):
                for b in ps:
                    holding[b] |= 1 << i
            avoiding.append([ok & ~h for h in holding])
        return cls(positions, allowed, avoiding, n)


@functools.lru_cache(maxsize=4)
def _cube_cells(H: Hypercube, transversal: bool) -> _Cells:
    """All the cells of H, memoized per cube and kind as the delta profile is,
    so that a cube's through-cell searches share one build (they only read it)."""
    return _Cells.of(H, transversal)


def _dfs(
    cells: _Cells,
    gauge: _Gauge,
    target: _TargetSum | None = None,
    pre: Sequence[tuple[int, int]] = (),
    constrained: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Every full diagonal (transversal, on cells with symbol positions)
    through the ``pre`` cells, given as (row, index) pairs, on allowed cells
    elsewhere, those with the target delta sum if given, each as its cell
    index on each row: the one depth-first search.

    Each pre cell fixes its row and adds its delta to the starting sum; pre
    cells that share a hyperplane or a symbol raise ValueError.  The search
    places one cell per unfilled row, trying the row's fitting cells lowest
    bit first, which is row-major order.  Which row it fills next is the only
    choice it makes: the lowest unfilled row, so that the results come in
    lexicographic order (the order ``_array_listing`` reproduces), or with
    ``constrained`` the row with the fewest fitting cells, the lowest on
    ties, which fails first where no result exists (the rule of existence
    searches).  Each cell placed cuts the bit sets of the unfilled rows by its
    fields, and a branch ends as soon as one of them is empty.  The delta sum
    of the cells placed rides along, and a last cell completes a result only
    if it closes the sum to the target.  The gauge ticks once per cell placed,
    whether or not it closes the sum; BudgetExhausted propagates."""
    n, positions, avoiding = cells.n, cells.positions, cells.avoiding
    if target is None:  # every delta 0 (a bytes object of zeros indexes to 0)
        deltas, add, goal = [bytes(len(positions[0]))] * n, [[0]], 0
    else:  # each row's delta indices in the order of its entries
        deltas, add, goal = target.deltas.tolist(), target.table.add, target.index
    placed = [-1] * n
    taken: set[int] = set()
    total = 0
    for r, i in pre:
        ps = positions[r][i]
        if placed[r] >= 0 or taken.intersection(ps):
            raise ValueError("pre-placed cells share a hyperplane or a symbol")
        taken.update(ps)
        placed[r] = i
        total = add[total][deltas[r][i]]
    # the unfilled rows in increasing order, each with its fitting cells
    rows: list[tuple[int, int]] = []
    for r in range(n):
        if placed[r] < 0:
            fits, avoid = cells.allowed[r], avoiding[r]
            for b in taken:
                fits &= avoid[b]
            if not fits:
                return
            rows.append((r, fits))
    if not rows:
        if total == goal:
            yield tuple(placed)
        return
    # the row r being filled has its fitting cells not yet tried in todo, the
    # other unfilled rows in rows and the delta sum of the cells placed in s;
    # the stack holds that state for each row being filled above r
    stack: list[tuple[int, int, list[tuple[int, int]], int]] = []
    while True:
        j = 0
        if constrained and len(rows) > 1:
            counts = [fits.bit_count() for _, fits in rows]
            j = counts.index(min(counts))
        (r, todo), s = rows.pop(j), total
        while True:
            if not todo:
                if not stack:
                    return
                r, todo, rows, s = stack.pop()
                continue
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            gauge.tick()
            if not rows:
                if add[s][deltas[r][i]] == goal:
                    placed[r] = i
                    yield tuple(placed)
                continue
            nxt = []
            ps = positions[r][i]
            for r2, fits in rows:
                avoid = avoiding[r2]
                for b in ps:
                    fits &= avoid[b]
                if not fits:
                    break
                nxt.append((r2, fits))
            else:
                stack.append((r, todo, rows, s))
                placed[r] = i
                rows, total = nxt, add[s][deltas[r][i]]
                break


def transversal_through(
    H: Hypercube,
    cell: Coords,
    budget: SearchBudget | None = None,
) -> Diagonal | None:
    """A transversal containing the cell, or None if provably absent: the
    first result of ``_dfs`` through the cell, filling the row with the
    fewest fitting cells first.

    Raises ValueError unless the cell is a cell of the cube (``Hypercube.entry``:
    d integers in [0, n)), and BudgetExhausted when the budget runs out before
    either outcome."""
    _require_latin(H)
    budget = budget or SearchBudget()
    pre = _checked_cells(H, [cell])
    found = next(_dfs(_cube_cells(H, True), _Gauge(budget), pre=pre, constrained=True), None)
    return None if found is None else next(_diagonals(H, [found]))


@dataclass
class BachelorScan:
    """Cells proven to lie on no transversal.

    ``nodes`` counts the frontier states that the scan expanded or the cells
    that its per-cell searches placed, whichever engine ran.  A truncated scan
    (``exhaustive`` False) lists no cells and has ``checked_cells`` 0: it
    decides nothing."""

    bachelor_cells: tuple[Coords, ...]
    exhaustive: bool
    checked_cells: int
    nodes: int


# Above this much worst-case work (``_layer_work``) the layers of either kind
# are left to the DFS, and the transversal layers of ``bachelor_cells`` to
# per-cell existence searches, which a transversal-rich cube ends in a few
# early exits.  Measured (NumPy 2.4, CPython 3.11, 2-core x86-64 host): the
# transversal layers build at 6e-10 to 2e-9 s a unit and run the bachelor
# sweep at 7e-10 to 3e-9 s (Z10..Z12 at d=2, confirmed-bachelor 4,6, Z5 d=4,
# Z8 d=3, Z3 d=8; the low end where ``_fitting`` tries a state's free cells
# only), so 2**26 takes at most about 0.35 s for both, and order 13, d=2 is
# the first square above it.  The target-sum layers, which fill nearly to
# their worst case, build at 5e-10 s a unit (Z2 d=13) and 9e-10 s (Z3 d=8)
# to 1.1e-7 s (Z15..Z17 at d=2; seeded isotopes of cyclic cubes, target 0,
# same host); the dearest cube within the bound is order 17, d=2, 3.8e7
# units: 4.1 s and 116 MB.
_WORK_BOUND = 1 << 26

# A layer step tries at most this many (state, cell) pairs in one array
# operation (``_fitting``, counting a state's axis bits too where it tries
# only its free cells), which bounds its transient memory to a few MB.
_CHUNK_PAIRS = 1 << 16


def _layer_work(n: int, d: int, order: int | None) -> int:
    """Worst-case work of the layers on a cube of order n and dimension d, for
    transversals (``order`` None) or for target sums in a group of that
    order; ``_layered`` compares it with ``_WORK_BOUND``.

    A state of layer r sets r bits in each of its fields, d of them for
    transversals and d - 1 for target sums, where it also holds one of
    ``order`` running sums; so layer r holds at most C(n, r)**fields times
    sums states, and each state tries at most n**(d-1) cells: the worst case,
    met at d = 2, since ``_fitting`` tries only the k**(d-1) cells whose axis
    values are free in a state with k free values on each axis."""
    fields, sums = (d, 1) if order is None else (d - 1, order)
    return n ** (d - 1) * sums * sum(math.comb(n, r) ** fields for r in range(n + 1))


def _fits_64_bits(n: int, d: int, order: int | None) -> bool:
    """Whether the layers of a cube of order n and dimension d, for
    transversals (``order`` None) or for target sums in a group of that
    order, pack a state into a uint64 and its ways into an int64.

    A state has n bits per field, d fields for transversals and d - 1 plus
    the bits of a group index for target sums; ways count partial
    transversals or diagonals, at most (n!)**(d-1).  Every cube within
    ``_WORK_BOUND`` fits: n >= 2 needs at most 26 bits a state (Z2, d=13), an
    order-1 cube needs d bits, at most numpy's 64 dimensions, and (n!)**(d-1)
    ways stay below 2**63."""
    bits = d * n if order is None else (d - 1) * n + (order - 1).bit_length()
    return bits <= 64 and math.factorial(n) ** (d - 1) < 1 << 63


class _Layers(NamedTuple):
    """The backward frontier layers of one kind of search on a cube.

    A state packs n-bit one-hot fields, all set in ``full``: one per axis
    1..d-1 and, for transversals, one for the symbols.  For target sums the
    index of a delta sum sits above the fields; the state's key is its bits
    above ``full`` (0 for transversals).  ``keys[r]`` holds the states of B_r
    as a sorted uint64 array and ``ways[r]`` beside it each state's number of
    ways (int64): the partial transversals (or partial diagonals) on rows
    r..n-1 whose cells fill its fields, for target sums with its delta sum.
    B_n is the one state 0 with one way.

    ``masks`` has the cube's shape, and ``masks[c]`` sets bit b for each
    field b of cell c (``_cell_fields``): ``masks[r]`` is row r on the grid
    of its cells, cell i at flat index i.  Reading goes forward: a forward
    state holds the fields of rows 0..r-1 and, for target sums, the target
    minus their delta sum; it completes iff ``full`` XOR it lies in B_r.
    Reading (``_array_listing`` and the bachelor sweep) starts at ``root``
    and finds states in a layer's sorted keys by ``_lookup``, so it holds no
    Python object per state."""

    target: _TargetSum | None
    masks: np.ndarray
    keys: list[np.ndarray]
    ways: list[np.ndarray]
    full: int
    root: int

    @property
    def count(self) -> int:
        """The number of results: the ways of the state that completes the root."""
        (at,) = _lookup(self.keys[0], np.array([self.full ^ self.root], np.uint64))
        return int(self.ways[0][at]) if at >= 0 else 0


def _lookup(keys: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each state's position in the sorted array ``keys``, or -1 where it is
    not there: the one way every reader finds states in a layer.  The states
    are searched in increasing order and put back, which NumPy's binary
    search runs faster than the same states unsorted, sort included: it
    takes about 2.5 ms off the 18 ms bachelor sweep of cyclic Z11 and 3 ms
    off its 53 ms packing, and costs nothing measurable on criterion 13's
    tiny listings (CPU time, best of 7; NumPy 2.4, 2-core x86-64 host)."""
    found = np.full(len(states), -1, np.intp)
    if len(keys):
        order = states.argsort()
        probe = states[order]
        at = np.minimum(keys.searchsorted(probe), len(keys) - 1)
        found[order] = np.where(keys[at] == probe, at, -1)
    return found


def _fitting(states: np.ndarray, masks: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (state, cell) index pairs whose fields are disjoint, in row-major
    order of the states x cells block, in chunks of ``_CHUNK_PAIRS //
    n**(d-1)`` states (at least one); ``masks`` is one row's cell masks on
    the row's (n,)*(d-1) grid, cell i at flat index i.

    Every state has the same number k of free values (bits clear) in each
    axis field: k = r + 1 in B_{r+1}, and n - r in a forward state of row r.
    So a state need only try the k**(d-1) cells whose axis values are all
    free in it, the product of its free values per axis, which comes in
    increasing cell index with the first axis outermost and each axis's
    values in increasing order; only the symbol field is left to test.  A
    batch of whole chunks tries at most ``_CHUNK_PAIRS`` axis bits and cells
    this way, and is cut into its chunks again.  A state whose free values
    on some axis are not k in number would mix up the candidates, so the
    product raises ValueError on it.

    The product costs two to five times as much per axis bit or cell as the
    AND of a state with all n**(d-1) cells of the row does per cell (NumPy
    2.4, 2-core x86-64 host).  Where four times its (d-1)*n + k**(d-1)
    exceeds n**(d-1), as at d = 2 and at k = n, each state meets every cell
    in that one AND instead."""
    flat = masks.reshape(-1)
    step = max(1, _CHUNK_PAIRS // len(flat))
    if not len(states):
        return
    n, axes = masks.shape[0], masks.ndim
    k = n - (int(states[0]) & ((1 << n) - 1)).bit_count()
    tried = axes * n + k ** axes  # the axis bits and cells of a state's product
    if 4 * tried > len(flat):
        for lo in range(0, len(states), step):
            si, ci = ((states[lo:lo + step, None] & flat) == 0).nonzero()
            yield (si + lo if lo else si), ci
        return
    _, _, bits, place = _shape(n, axes + 1)
    batch = max(1, _CHUNK_PAIRS // tried // step) * step
    for lo in range(0, len(states), batch):
        block = states[lo:lo + batch]
        slots = len(block) * axes
        # a free bit i * n + v of the block's rows is value v in slot i, the
        # slot being (state, axis) = divmod(i, axes): k values to a slot
        slot, value = np.divmod(np.flatnonzero((block[:, None] & bits) == 0), n)
        if len(slot) != slots * k or (slot.reshape(slots, k) != np.arange(slots)[:, None]).any():
            raise ValueError(f"states do not all have {k} free values on each axis")
        # each axis's free values at their place value, (axes, k, states), and
        # their sums over the axes, first axis outermost: (k**axes, states)
        terms = (value.reshape(len(block), axes, k) * place[:, None]).transpose(1, 2, 0)
        cells = terms[0]
        for term in terms[1:]:
            cells = (cells[:, None] + term).reshape(-1, len(block))
        cells = np.ascontiguousarray(cells.T)
        fit = np.flatnonzero((block[:, None] & flat[cells]) == 0)
        si, ci = fit // cells.shape[1] + lo, cells.reshape(-1)[fit]
        cuts = np.searchsorted(si, np.arange(lo + step, lo + len(block), step))
        yield from zip(np.split(si, cuts), np.split(ci, cuts))


# A layer or a part of one: sorted distinct states and their ways.
_Merged = tuple[np.ndarray, np.ndarray]
# Children of forward states: their parents, cells and indices in the layer.
_Kids = tuple[np.ndarray, np.ndarray, np.ndarray]


def _merge(states: np.ndarray, ways: np.ndarray) -> _Merged:
    """The distinct states in increasing order, each with the sum of its
    ways: a sort and ``np.add.reduceat``, exact in int64."""
    order = states.argsort()
    states = states[order]
    first = np.empty(len(states), bool)
    first[:1] = True
    np.not_equal(states[1:], states[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return states[starts], np.add.reduceat(ways[order], starts)


def _merged(parts: Iterator[_Merged]) -> _Merged:
    """``_merge`` of the parts' states and ways, each part merged already.
    Parts pile up on the last merge until they hold twice its states (and at
    least ``_CHUNK_PAIRS``), so the pile stays within twice the result
    however often the parts repeat the same states."""
    pile: list[_Merged] = []
    held, limit = 0, _CHUNK_PAIRS
    for part in parts:
        pile.append(part)
        held += len(part[0])
        if held >= limit:
            pile = [_merge(*map(np.concatenate, zip(*pile)))]
            held = len(pile[0][0])
            limit = max(2 * held, _CHUNK_PAIRS)
    if len(pile) > 1:
        pile = [_merge(*map(np.concatenate, zip(*pile)))]
    return pile[0] if pile else (np.zeros(0, np.uint64), np.zeros(0, np.int64))


def _joined(f: np.ndarray, r: int, ci: np.ndarray, masks: np.ndarray, width: int,
            keyed: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """The states f, each with the fields of cell ci of row r (``masks[r]``)
    set; for target sums, ``keyed`` = (table, deltas), the key k above the
    ``width`` field bits becomes ``table[k, deltas[r, ci]]``."""
    g = f | masks[r].reshape(-1)[ci]
    if keyed is None:
        return g
    table, deltas = keyed
    key = table[(f >> width).astype(np.intp), deltas[r][ci]]
    return (g & ((1 << width) - 1)) | (key.astype(np.uint64) << width)


def _back_layers(H: Hypercube, gauge: _Gauge, target: _TargetSum | None = None) -> _Layers:
    """Every backward layer of the transversals (``target`` None) or of the
    diagonals with the target sum, built from row n-1 down a layer at a time.

    Each state of B_{r+1} meets the cells of row r in array operations
    (``_fitting``, which tries only the cells whose axis values are free in
    it): a fitting pair becomes its fields ORed, for target sums with the key
    ``add[key, delta]`` of the cell's delta, and equal states merge with their
    ways summed.  The gauge ticks once per state expanded, a layer's states
    in one step before it expands; each expansion adds at most n**(d-1)
    states, which bounds the states held.  A cube whose states or ways do
    not fit 64 bits (``_fits_64_bits``) fails an assertion before any
    tick."""
    n, d, order = H.n, H.d, None if target is None else len(target.table.add)
    assert _fits_64_bits(n, d, order), (n, d, order)
    masks, width = _shape(n, d).masks, (d - 1) * n
    if target is None:  # each cell's symbol bit above the axis fields
        masks = masks | np.left_shift(np.uint64(1), (H.symbols + width).astype(np.uint64))
        width += n
    else:
        masks = np.broadcast_to(masks, H.symbols.shape)
    keyed = None if target is None else (target.table.add_array, target.deltas)
    layers = [(np.zeros(1, np.uint64), np.ones(1, np.int64))]  # B_n
    for r in reversed(range(n)):
        states, counts = layers[-1]
        gauge.tick(len(states))
        layers.append(_merged(_merge(_joined(states[si], r, ci, masks, width, keyed), counts[si])
                              for si, ci in _fitting(states, masks[r])))
    keys, ways = map(list, zip(*layers[::-1]))
    root = 0 if target is None else target.index << width
    return _Layers(target, masks, keys, ways, (1 << width) - 1, root)


def _children(layers: _Layers, r: int, states: np.ndarray) -> Iterator[_Kids]:
    """The completing children of the forward states on row r, in the
    ``_fitting`` chunks: each child's parent (its index in ``states``), its
    cell of row r and the index in B_{r+1} of its complement, in row-major
    order of the states x cells block.  A child g of a state f joins f with a
    cell m of row r disjoint from it (for target sums the key becomes
    ``sub[key, delta]``), and it completes iff ``full ^ g`` lies in B_{r+1}
    (``_lookup``).  The one step forward that the listing and the bachelor
    sweep share."""
    target, width = layers.target, layers.full.bit_length()
    keyed = None if target is None else (target.table.sub_array, target.deltas)
    for si, ci in _fitting(states, layers.masks[r]):
        g = _joined(states[si], r, ci, layers.masks, width, keyed)
        at = _lookup(layers.keys[r + 1], np.uint64(layers.full) ^ g)
        hit = (at >= 0).nonzero()[0]
        yield si[hit], ci[hit], at[hit]


class _Kept:
    """The completing children (``_children``) of the states of layers B_2 to
    B_{n-2} that a listing has met, each state's found once and kept while
    all rows together keep at most ``room`` children: the layers' number of
    states, or ``_CHUNK_PAIRS`` if more, so that the kept children and their
    index hold at most about the layers' size.  State p of B_r has its
    children in columns ``first[r][p]`` to ``first[r][p] + count[r][p] - 1``
    of ``edges``, whose rows hold their cells of row r and their indices in
    B_{r+1}, in cell order; ``count[r][p]`` is -1 until p is kept.  Once the
    room is full, the children of a state met anew are found again at each
    meeting, in the columns past the room; ``edges`` grows by doubling, to
    the room and one chunk's children past it."""

    def __init__(self, layers: _Layers):
        self.layers, self.size = layers, 0
        self.room = max(_CHUNK_PAIRS, sum(map(len, layers.keys)))
        self.first = [np.zeros(len(keys), np.int32) for keys in layers.keys]
        self.count = [np.full(len(keys), -1, np.int32) for keys in layers.keys]
        self.edges = np.zeros((2, 0), np.int32)

    def of(self, r: int, at: np.ndarray) -> _Kids:
        """``_children`` of the states at B_r indices ``at`` (at most a
        ``_fitting`` chunk of them), each one's parent its position in
        ``at``."""
        first, count, size = self.first[r], self.count[r], self.size
        new = at[count[at] < 0]
        forget = new[:0]  # states whose children are read once, not kept
        if len(new):
            first[new] = np.arange(len(new))  # keep the copy whose position stays
            new = new[first[new] == np.arange(len(new))]
            states = np.uint64(self.layers.full) ^ self.layers.keys[r][new]
            ((si, ci, ki),) = _children(self.layers, r, states)
            end = size + len(si)
            if end > self.edges.shape[1]:
                grown = np.empty((2, max(end, min(2 * self.edges.shape[1], self.room))), np.int32)
                grown[:, :size] = self.edges[:, :size]
                self.edges = grown
            self.edges[:, size:end] = ci, ki
            count[new] = np.bincount(si, minlength=len(new))
            first[new] = size + np.cumsum(count[new]) - count[new]
            if end <= self.room:
                self.size = end
            else:
                forget = new
        found = count[at]
        ends = np.cumsum(found)
        parent = np.repeat(np.arange(len(at), dtype=np.int32), found)
        kids = parent, *self.edges[:, np.arange(ends[-1]) + (first[at] - ends + found)[parent]]
        count[forget] = -1
        return kids


def _array_listing(
    layers: _Layers, gauge: _Gauge, limit: int | None = None
) -> Iterator[np.ndarray]:
    """The results in ``_dfs`` listing order, read off the backward layers, as
    blocks: (k, n) arrays of each result's cell index per row; with a
    ``limit``, only the first ``limit`` results.

    The rows are walked in order with a block of live partial results, each
    held as the index in B_r of its forward state's complement, the cell it
    took on the row before and a pointer to its parent partial; a yielded
    block is rebuilt from the pointers.  A block is read in chunks of
    ``_CHUNK_PAIRS // n**(d-1)`` partials, one ``_fitting`` chunk each, and
    each chunk's completing children (``_children``) go on to row r + 1
    before the next chunk is read, so the results come in order and each row
    holds at most about ``_CHUNK_PAIRS`` children.  Partials that share a
    state share its children, so a listing of more than a chunk of results
    finds each distinct state's once on rows 2 to n - 2, when a chunk first
    meets it, and keeps them while they number at most the layers' states
    (``_Kept``); rows 0 and 1 hold no state twice, and each state of B_{n-1}
    completes by one cell, found for all n**(d-1) of them at the start.  No
    row is swept whole before its first result.  Every live partial
    completes, so the first k results descend from the first k children a
    row keeps, and a limit of k keeps no more.  The gauge ticks once per
    partial result extended by a row other than the last, a block's partials
    in one step."""
    n, keys, full = len(layers.masks), layers.keys, np.uint64(layers.full)
    left = limit  # results still to list, None for all
    root = _lookup(keys[0], np.array([layers.full ^ layers.root], np.uint64))
    if root[0] < 0 or left == 0:
        return
    step = max(1, _CHUNK_PAIRS // layers.masks[0].size)
    last = np.zeros(len(keys[n - 1]), np.intp)
    for si, ci, _ in _children(layers, n - 1, full ^ keys[n - 1]):
        last[si] = ci
    # a row holds at most as many partials as results are listed, so a
    # listing of at most a chunk of results reads each row in one chunk and
    # meets no state in a later one; a longer listing keeps the children of
    # rows 2 to n - 2 (``_Kept``)
    results = int(layers.ways[0][root[0]])
    kept = _Kept(layers) if min(results, limit or results) > step else None
    # per row r, the cell each partial of row r + 1 took on it and the
    # position of its parent among the partials of row r
    trail: list[tuple[np.ndarray, np.ndarray]] = []

    def from_row(r: int, at: np.ndarray) -> Iterator[np.ndarray]:
        nonlocal left
        if r < n - 1:
            gauge.tick(len(at))
        for lo in range(0, len(at), step):
            chunk = at[lo:lo + step][:left]
            if r < n - 1:
                if kept is not None and r >= 2:
                    found = kept.of(r, chunk)
                else:  # a chunk's states are one _fitting chunk
                    (found,) = _children(layers, r, full ^ keys[r][chunk])
                parent, cell, kids = (part[:left] for part in found)
                trail[r:] = [(cell, parent + lo)]
                yield from from_row(r + 1, kids)
            else:  # rebuilt from the pointers, last row first
                block = np.empty((len(chunk), n), np.intp)
                block[:, r], up = last[chunk], np.arange(lo, lo + len(chunk))
                for row in reversed(range(r)):
                    block[:, row], up = trail[row][0][up], trail[row][1][up]
                yield block
                if left is not None:
                    left -= len(chunk)
            if left == 0:
                return

    yield from from_row(0, root)


def bachelor_cells(H: Hypercube, budget: SearchBudget | None = None) -> BachelorScan:
    """Classify every cell by whether some transversal passes through it.

    Where ``_layered`` holds the stored layers decide every cell at once;
    elsewhere each cell not yet covered gets one existence search
    (``_dfs``), which on a transversal-rich cube covers every cell in a
    few searches.

    ``nodes`` counts the frontier states expanded or the cells placed.  When
    the budget runs out the scan is flagged non-exhaustive and lists no
    cells."""
    _require_latin(H)
    budget = budget or SearchBudget()
    gauge = _Gauge(budget)
    scan = _frontier_scan if _layered(H, None) else _per_cell_scan
    try:
        covered = scan(H, gauge)
    except BudgetExhausted:
        return BachelorScan((), False, 0, gauge.nodes)
    bachelors = np.argwhere(~covered.reshape(H.symbols.shape)).tolist()  # in flat order
    return BachelorScan(tuple(map(tuple, bachelors)), True, H.n ** H.d, gauge.nodes)


def _frontier_scan(H: Hypercube, gauge: _Gauge) -> np.ndarray:
    """Which cells some transversal passes through, off the backward
    transversal layers: an (n, n**(d-1)) bool array over the cell index on
    each row.

    A forward sweep keeps L_r, the live unions on rows 0..r-1, as a sorted
    uint64 array: L_0 is {0} when the cube has a transversal, and L_{r+1}
    holds the completing children (``_children``) of the states of L_r: f | m
    for each f in L_r and cell m of row r disjoint from f whose complement
    ``full ^ (f | m)`` lies in B_{r+1}, read off as the complements of the
    states of B_{r+1} reached.  Those cells m are the
    covered cells of row r; if there is no transversal no cell is.  The gauge
    ticks once per state expanded in either pass, a layer's states in one
    step."""
    layers = _back_layers(H, gauge)
    full = np.uint64(layers.full)
    live = np.zeros(1 if layers.count else 0, np.uint64)
    covered = np.zeros((H.n, H.symbols.size // H.n), bool)
    for r, back in enumerate(layers.keys[1:]):
        gauge.tick(len(live))
        reached = np.zeros(len(back), bool)
        for _, ci, at in _children(layers, r, live):
            covered[r, ci] = True
            reached[at] = True
        # complements of a sorted array come in decreasing order
        live = (full ^ back[reached])[::-1]
    return covered


def _per_cell_scan(H: Hypercube, gauge: _Gauge) -> np.ndarray:
    """Which cells some transversal passes through, as ``_frontier_scan``
    gives them, by one existence search (``_dfs``, filling the row with the
    fewest fitting cells first) per cell that no transversal found so far
    covers, on the cube's cells."""
    cells = _cube_cells(H, True)
    n, per_row = H.n, H.symbols.size // H.n
    covered = np.zeros(n * per_row, bool)
    starts = per_row * np.arange(n)  # flat index of each row's cell 0
    for c in range(n * per_row):
        if covered[c]:
            continue
        found = next(_dfs(cells, gauge, pre=[divmod(c, per_row)], constrained=True), None)
        if found is not None:
            covered[starts + found] = True
    return covered.reshape(n, per_row)


# -- disjoint packings: exact cover over the listed transversals ---------------


@dataclass
class PackingResult:
    packing: tuple[Diagonal, ...]
    optimal: bool
    upper_bound: int | None
    certificate: str
    exhausted: bool
    transversal_count: int


class _Cover(NamedTuple):
    """Every listed transversal against the cells it passes through.

    Cells are numbered by flat (row-major) index, so cell i of row r is
    r * n**(d-1) + i, read off the listing's cell indices without a lookup;
    ``listed`` is the listing as it stands, a (count, n) array of each
    transversal's cell index per row, held beside the matrix and never copied.
    ``matrix`` is one read-only (cells, words) array of little-endian
    ``uint64`` words: bit t of row c (bit t & 63 of word t >> 6) is set iff
    transversal t passes through cell c.  A line is a hyperplane (axis k,
    value v: line k*n + v) or the cells of one symbol s (line d*n + s), so a
    cell's lines are its row and its ``_cell_fields`` shifted up by n; every
    transversal meets every line once, and ``lines[c]`` holds the d + 1 lines
    of cell c."""

    matrix: np.ndarray
    listed: np.ndarray
    lines: np.ndarray


def _cover(H: Hypercube, listed: np.ndarray, gauge: _Gauge) -> _Cover:
    """The cover of the listed transversals, a (count, n) array of each one's
    cell index per row, read as it stands.  Transversal t sets bit t & 7 of
    byte t >> 3 in one packed row of bytes per cell, padded to whole words,
    never a cells x transversals bool matrix.  The bits are set one bit plane
    at a time: the transversals t with t & 7 equal own distinct bytes and pass
    through distinct cells on distinct rows, so one plane's (cell, byte)
    places are distinct and a plain fancy-indexed OR sets them all, with an
    index temporary of an eighth of the listing's size.  The bytes are then
    viewed as the words of ``matrix`` in place; the gauge ticks once per
    transversal read and once per cell."""
    n, d, count = H.n, H.d, len(listed)
    gauge.tick(count + H.symbols.size)
    width = (count + 63) // 64 * 8  # bytes per cell, whole words
    starts = H.symbols.size // n * np.arange(n)  # flat index of each row's cell 0
    packed = np.zeros((H.symbols.size, width), np.uint8)
    flat = packed.reshape(-1)
    for bit in range(8):
        # transversals bit, bit + 8, ... each own one byte, in distinct cells
        ts = listed[bit::8]
        flat[(ts + starts) * width + np.arange(len(ts))[:, None]] |= np.uint8(1 << bit)
    matrix = packed.view("<u8")
    matrix.setflags(write=False)
    # line r of row r, then each of the cell's fields shifted up by n
    fields = _cell_fields(H, True)
    rows = np.broadcast_to(np.arange(n)[:, None, None], (*fields.shape[:2], 1))
    lines = np.concatenate([rows, fields + n], axis=2).reshape(-1, d + 1)
    return _Cover(matrix, listed, lines)


def _live_counts(matrix: np.ndarray, words, bits: np.ndarray) -> np.ndarray:
    """Per cell c, the bits of ``bits`` set in ``matrix[c]``, read on the
    words ``words`` (an index array or a slice) only, a block of rows at a
    time so that no temporary holds more than about 2**20 words."""
    step, bits = max(1, (1 << 20) // (1 + matrix.shape[1])), bits[words]
    return np.concatenate([np.add.reduce(np.bitwise_count(matrix[lo:lo + step, words] & bits),
                                         axis=1, dtype=np.int64)
                           for lo in range(0, len(matrix), step)])


def _set_bits(words: np.ndarray) -> list[int]:
    """The set bits of a little-endian word array, highest first."""
    at = words.nonzero()[0]
    hi, lo = np.unpackbits(words[at].view(np.uint8), bitorder="little").reshape(-1, 64).nonzero()
    return (at[hi] * 64 + lo)[::-1].tolist()


class _Table:
    """Listed results held as one (count, n) array of each one's cell index
    per row, ``rows[:size]``, filled in place block by block from one
    ``_results`` listing: allocated at its ``total`` where the layers give
    one, and grown by doubling on the DFS."""

    def __init__(self, n: int):
        self.rows, self.size = np.zeros((0, n), np.intp), 0

    def fill(self, total: int | None, blocks: Iterable[np.ndarray]) -> np.ndarray:
        """The rows held once ``blocks`` are added, ``total`` of them if it
        is given.  A BudgetExhausted from the blocks propagates, and ``size``
        then counts the rows added before it."""
        if total is not None:
            self.rows = np.empty((total, self.rows.shape[1]), np.intp)
        for block in blocks:
            end = self.size + len(block)
            if end > len(self.rows):
                grown = np.empty((2 * end, self.rows.shape[1]), np.intp)
                grown[:self.size] = self.rows[:self.size]
                self.rows = grown
            self.rows[self.size:end] = block
            self.size = end
        return self.rows[:self.size]


def _greedy_hitting_set(matrix: np.ndarray, gauge: _Gauge) -> list[int]:
    """Greedy cover: cells (rows of the cover's matrix) chosen so that every
    transversal passes through one of them.  Each step, one gauge tick, takes
    the smallest of the cells on most transversals not yet hit.  A cell's
    count only falls from step to step, so the cells wait in a heap keyed on
    an earlier count and the top is recounted until it still leads."""
    unhit = np.bitwise_or.reduce(matrix)
    counts = _live_counts(matrix, slice(None), unhit).tolist()
    heap = [(-k, c) for c, k in enumerate(counts) if k]
    heapq.heapify(heap)
    chosen: list[int] = []
    while unhit.any():
        gauge.tick()
        while True:
            _, c = heapq.heappop(heap)
            key = (-int(np.bitwise_count(matrix[c] & unhit).sum()), c)
            if not heap or key <= heap[0]:
                break
            heapq.heappush(heap, key)
        chosen.append(c)
        unhit &= ~matrix[c]
    return chosen


def _packs(cover: _Cover, g: int, gauge: _Gauge, best: list[int]) -> bool:
    """Whether g pairwise disjoint transversals exist, by exhaustive search.

    A node holds the live transversals, those disjoint from every one chosen,
    as a word array, and each cell's number of live transversals, and
    branches on the cell with the fewest (the first such cell): each of them
    in index order is chosen, which kills every transversal sharing a cell
    with it, and last the cell is left uncovered, which kills the cell's
    transversals.  A cell with no live transversal drops out.  A child's
    counts are its parent's less the killed transversals through each cell,
    read on the words that hold a killed one (Dancing Links' column sizes,
    Knuth, arXiv cs/0011047), or recounted on the words that hold a live one
    where those are fewer.  Each transversal chosen on the way to g covers
    one open cell of every line (``_Cover``), so a node whose chosen count
    plus its fewest open cells on one line falls short of g is pruned; at
    g = n**(d-1) no cell may be left uncovered and the search is an exact
    cover.

    The gauge ticks once per branch taken.  ``best`` is left holding the
    largest family reached, the g found on success.  The path is kept on a
    list, not the call stack, since it can be one level per cell deep."""
    matrix, listed, lines = cover
    n = listed.shape[1]
    line_count = lines.shape[1] * n
    starts = len(matrix) // n * np.arange(n)  # flat index of each row's cell 0
    chosen: list[int] = []
    # per node on the path: [live, their counts per cell, pivot, untried
    # transversals, number chosen above it]; the pivot is -1 once left uncovered
    path: list[list] = []
    live = np.bitwise_or.reduce(matrix)
    counts = _live_counts(matrix, slice(None), live)
    while True:
        if len(chosen) > len(best):
            best[:] = chosen
        if len(chosen) == g:
            return True
        open_cells = counts.nonzero()[0]
        if len(chosen) + np.bincount(lines[open_cells].ravel(), minlength=line_count).min() >= g:
            pivot = open_cells[counts[open_cells].argmin()]
            path.append([live, counts, pivot, _set_bits(matrix[pivot] & live), len(chosen)])
        while path:
            node = path[-1]
            live, counts, pivot, untried, above = node
            del chosen[above:]
            if untried:
                t = untried.pop()
                chosen.append(t)
                kill = np.bitwise_or.reduce(matrix[listed[t] + starts]) & live
            elif pivot >= 0:
                node[2] = -1
                kill = matrix[pivot] & live
            else:
                path.pop()
                continue
            gauge.tick()
            live = live ^ kill
            killed, alive = kill.nonzero()[0], live.nonzero()[0]
            counts = (_live_counts(matrix, alive, live) if len(alive) < len(killed)
                      else counts - _live_counts(matrix, killed, kill))
            break
        else:
            return False


def max_disjoint_transversals(
    H: Hypercube,
    cap: int | None = None,
    budget: SearchBudget | None = None,
) -> PackingResult:
    """A maximum-cardinality family of pairwise disjoint transversals.

    Lists all transversals (``_results``, on the engine ``_layered`` picks,
    into one ``_Table``) and bounds the answer by ub, the least of a greedy
    hitting set over them (valid because the listing is exhaustive), the nonzero-deviation support
    when the transversals' deviation sum is nonzero, the hyperplane cap
    n**(d-1) and their number.  The exact cover (``_packs``) then decides
    g = min(ub, cap), g - 1, and so on; the first g that packs is the answer,
    and every larger g up to ub is refuted: each g tried before it
    exhaustively, and those above the cap by the refutation of the cap.  A
    refutation of g + 1 that reached g disjoint transversals already packs g.
    One gauge covers the listing, the cover, the greedy steps and the search.
    The optimality flag is set only when the answer is ub or a larger g was
    refuted; a run cut by the budget keeps the largest family reached and is
    flagged exhausted, and a cut listing counts the transversals it listed
    (none if the layers were not built).  A cap below 1 raises ValueError."""
    _require_latin(H)
    if cap is not None and checked_int(cap) < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    budget = budget or SearchBudget()
    gauge = _Gauge(budget)
    table = _Table(H.n)
    try:
        listed = table.fill(*_results(H, gauge))
    except BudgetExhausted:
        return PackingResult((), False, None, "enumeration-truncated", True, table.size)
    if not len(listed):
        return PackingResult((), True, 0, "no transversals", False, 0)

    hard_cap = H.n ** (H.d - 1)
    # every transversal has the target deviation sum, so when that target is
    # nonzero the nonzero-deviation support is itself a hitting set
    support_ub = None
    if suitable_target(H.group, H.d) != H.group.identity():
        support_ub = len(profile(H).support)
    try:
        cover = _cover(H, listed, gauge)
        ub_hit = len(_greedy_hitting_set(cover.matrix, gauge))
    except BudgetExhausted:
        return PackingResult((), False, None, "bounds-truncated", True, len(listed))
    ub = min(ub_hit, hard_cap, len(listed), *(x for x in (support_ub,) if x is not None))
    goal = g = ub if cap is None else min(ub, cap)
    best: list[int] = []
    exhausted = False
    try:
        while len(best) < g:
            if not _packs(cover, g, gauge, best):
                g -= 1
    except BudgetExhausted:
        exhausted = True
    packing = tuple(_diagonals(H, listed[sorted(best)].tolist()))
    optimal = not exhausted and (len(best) == ub or len(best) < goal)
    cert = f"greedy-hitting-set({ub_hit}), hyperplane-cap({hard_cap})"
    if support_ub is not None:
        cert += f", support-hitting-set({support_ub})"
    return PackingResult(packing, optimal, ub, cert, exhausted, len(listed))


# -- hitting-set certification ------------------------------------------------


def hitting_set_check(
    H: Hypercube,
    target: Element,
    cells: Iterable[Coords],
    budget: SearchBudget | None = None,
) -> bool:
    """True iff every complete diagonal with the given delta sum in H's group
    meets ``cells``.

    Off the nonzero-delta support X every delta is zero, so a diagonal D that
    avoids the cells U has the delta sum of D & X, and the rest of D avoids
    X | U.  The check branches over the partial diagonals P inside X - U; for
    each P with the target sum it searches for a completion of P avoiding
    X | U (the first result of ``_dfs``, filling the row with the fewest
    fitting cells first, on cells built at most once for the check), and
    answers True iff no branch completes.  When U covers X the only branch is the empty
    one, whose sum is zero, so a nonzero target is decided without search.

    One gauge covers the whole check: it ticks on every branch and is shared
    by every completion.  BudgetExhausted propagates, so an exhausted budget
    never yields True.  ValueError unless each of ``cells`` is a cell of the
    cube (``Hypercube.entry``)."""
    _require_latin(H)
    budget = budget or SearchBudget()
    goal, deltas, table = _TargetSum.of(H, target)
    add, n, deltas = table.add, H.n, deltas.tolist()
    U = set(_checked_cells(H, cells))
    rows, index = np.nonzero(profile(H).indices.reshape(n, -1))
    X = frozenset(zip(rows.tolist(), index.tolist()))
    free = sorted(X - U)
    # a cell's row as bit r and its fields as bits n and up: two cells of a
    # partial diagonal share no bit
    fields = _cell_fields(H, False)
    bits = [(1 << r) | sum(1 << (n + b) for b in fields[r, i].tolist()) for r, i in free]
    allowed: _Cells | None = None  # built for the first completion searched
    gauge = _Gauge(budget)
    branch: list[tuple[int, int]] = []

    def completes(start: int, total: int, used: int) -> bool:
        nonlocal allowed
        gauge.tick()
        if total == goal:
            allowed = allowed or _Cells.of(H, False, X | U)
            if next(_dfs(allowed, gauge, pre=branch, constrained=True), None) is not None:
                return True
        for k in range(start, len(free)):
            if used & bits[k]:
                continue
            r, i = free[k]
            branch.append(free[k])
            found = completes(k + 1, add[total][deltas[r][i]], used | bits[k])
            branch.pop()
            if found:
                return True
        return False

    return not completes(0, 0, 0)


# -- decompositions ------------------------------------------------------------


def hill_climb_decomposition(
    H: Hypercube,
    budget: SearchBudget | None = None,
) -> tuple[Diagonal, ...] | None:
    """A partition of all cells into n**(d-1) disjoint transversals, or None
    when none exists.

    Exact, despite the name it keeps from the local search it replaced: the
    exact cover of ``max_disjoint_transversals`` decides g = n**(d-1) over
    every listed transversal, so None is a proof.  The transversals are given
    in listing order.  One gauge covers the listing, the cover and the search,
    and BudgetExhausted propagates, so an exhausted budget never reads as
    None."""
    _require_latin(H)
    budget = budget or SearchBudget()
    gauge = _Gauge(budget)
    table = _Table(H.n)
    listed = table.fill(*_results(H, gauge))
    best: list[int] = []
    if not _packs(_cover(H, listed, gauge), H.n ** (H.d - 1), gauge, best):
        return None
    return tuple(_diagonals(H, listed[sorted(best)].tolist()))
