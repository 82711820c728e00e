"""Exact search over diagonals and transversals.

Three engines share one node gauge.  The depth-first search (``_dfs``) lists
all diagonals, and counts and lists transversals and target-sum diagonals
wherever the stored layers do not run.  It fills rows (axis-0 values in
increasing order); within a row, candidate coordinates are tried in
increasing lexicographic order on the remaining axes.  This fixes a
deterministic output order.  Occupancy is tracked per axis and per symbol.

The existence search (``_complete``) answers whether a diagonal or
transversal passes through given cells while avoiding others: through-cell
searches, per-cell coverage scans, completions and the completions of
hitting-set checks.  It keeps each unfilled row's fitting cells as a bit set
and always fills the row with the fewest, so a row with no cell left fails at
once.

The frontier layers run row by row over dicts of packed-int states.  One
builder (``_back_layers``) stores every backward layer, each state with its
number of ways to complete, for transversals or for diagonals with a target
delta sum.  Counts are the ways at the root; ``_layer_listing`` reads the
results off in the DFS's order, taking only branches that complete; and
``bachelor_cells`` decides every cell at once by a forward sweep over the
live states.  Each use runs the layers only on cubes whose order and
dimension (and group order) keep their worst case small, and the DFS (for
``bachelor_cells``, one existence search per cell) on larger cubes; listing
also keeps the DFS under a node budget below that worst case, and counting
and listing keep it under a result budget.

Absence results (bachelor cells, hitting-set certificates, packing optimality)
are only reported when the relevant search tree ran to exhaustion within
budget; otherwise results carry an explicit exhausted flag or raise
BudgetExhausted.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .delta import profile, suitable_target
from .groups import AbelianGroup, Element
from .hypercube import (
    Coords,
    Diagonal,
    Entry,
    Hypercube,
    index_add_table,
    is_latin,
)

DEFAULT_SEED = 2024


class BudgetExhausted(RuntimeError):
    """Search budget ran out before the question was decided."""

    def __init__(self, message: str = "search budget exhausted", partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SearchBudget:
    """Resource caps for one search.

    ``max_nodes`` caps the node expansions of one whole search, in every code
    path.  Node-capped runs are deterministic; ``time_cap`` is a wall-clock
    safety valve and is not part of the determinism contract."""

    max_nodes: int = 2_000_000_000
    max_results: int | None = None
    time_cap: float | None = None
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_results is not None and self.max_results <= 0:
            raise ValueError("max_results must be positive")
        if self.time_cap is not None and self.time_cap <= 0:
            raise ValueError("time_cap must be positive")


class _Gauge:
    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap

    def tick(self) -> None:
        if self.nodes >= self.max_nodes:
            raise BudgetExhausted(f"node budget {self.max_nodes} exhausted")
        self.nodes += 1
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExhausted("time budget exhausted")


def _require_latin(H: Hypercube) -> None:
    if not is_latin(H):
        raise ValueError("search requires a Latin hypercube")


RawEntry = tuple[Coords, int]


def _dfs(H: Hypercube, gauge: _Gauge, *, transversal: bool) -> Iterator[tuple[RawEntry, ...]]:
    """Yield every full diagonal (every transversal if ``transversal``), in
    deterministic order."""
    n, d = H.n, H.d
    nested = H.symbols.tolist()
    used = [[False] * n for _ in range(d - 1)]
    used_sym = [False] * n
    acc: list[RawEntry] = []

    def rows_from(r: int) -> Iterator[tuple[RawEntry, ...]]:
        if r == n:
            yield tuple(acc)
            return

        def pick(axis: int, node, prefix: Coords) -> Iterator[tuple[RawEntry, ...]]:
            if axis == d:
                sym = node
                if transversal and used_sym[sym]:
                    return
                used_sym[sym] = True
                acc.append((prefix, sym))
                yield from rows_from(r + 1)
                acc.pop()
                used_sym[sym] = False
                return
            u = used[axis - 1]
            for v in range(n):
                if u[v]:
                    continue
                gauge.tick()
                u[v] = True
                yield from pick(axis + 1, node[v], prefix + (v,))
                u[v] = False

        yield from pick(1, nested[r], (r,))

    yield from rows_from(0)


def _raw_to_diagonal(raw: tuple[RawEntry, ...], n: int) -> Diagonal:
    entries = tuple(Entry(c, s) for c, s in raw)
    return Diagonal(entries, complete=len(entries) == n)


def enumerate_transversals(
    H: Hypercube,
    budget: SearchBudget | None = None,
) -> Iterator[Diagonal]:
    """All transversals, each exactly once, in deterministic order.

    They are read off stored frontier layers or listed by the DFS, in the same
    order, by the listing rule of ``_results``."""
    _require_latin(H)
    budget = budget or SearchBudget()
    yield from _listed(H, budget, _results(H, budget, _Gauge(budget), transversal=True))


def enumerate_diagonals(
    H: Hypercube,
    group: AbelianGroup | None = None,
    target_sum: Element | None = None,
    budget: SearchBudget | None = None,
) -> Iterator[Diagonal]:
    """All complete diagonals, optionally filtered to a given delta sum.

    With a target sum they are read off stored frontier layers or listed by
    the DFS, in the same order, by the listing rule of ``_results``."""
    _require_latin(H)
    budget = budget or SearchBudget()
    group = H.group if group is None else group
    target = None if target_sum is None else _TargetSum.of(H, group, target_sum)
    results = _results(H, budget, _Gauge(budget), transversal=False, target=target)
    yield from _listed(H, budget, results)


@dataclass(frozen=True)
class Census:
    """How many results a search has, and the first ``keep`` of them.

    ``witnesses`` are the first results of the matching ``enumerate_*`` call.
    ``nodes`` counts layer states and listing steps, or DFS nodes, the units
    ``max_nodes`` caps.  ``exact`` is False when a budget cut the search short;
    ``count`` is then ``max_results`` if that many results exist, and otherwise
    the number of results listed before the node or time budget ran out: on
    the stored layers the witnesses listed (0 if the cut came while building
    them), on the DFS every result it reached.

    The census runs on the layers, which give the count without listing,
    when their worst case is within its bound and no ``max_results`` is set,
    and on the DFS alone otherwise; a count under ``max_results`` stops at the
    ``max_results``-th result, as ``enumerate_*`` does."""

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

    By the rule of ``Census``, with the worst case ``_frontier_work`` and the
    bound ``_DP_WORK_BOUND``."""
    _require_latin(H)
    return _census(H, budget or SearchBudget(), keep, None)


def count_diagonals(
    H: Hypercube,
    group: AbelianGroup | None,
    target_sum: Element,
    budget: SearchBudget | None = None,
    *,
    keep: int = 0,
) -> Census:
    """The number of complete diagonals with the given delta sum, and the first
    ``keep`` in enumeration order.

    By the rule of ``Census``, with the worst case ``_target_work`` and the
    bound ``_TARGET_WORK_BOUND``."""
    _require_latin(H)
    group = H.group if group is None else group
    return _census(H, budget or SearchBudget(), keep, _TargetSum.of(H, group, target_sum))


class _TargetSum(NamedTuple):
    """A delta-sum target in index form: the target's index, each cell's delta
    index, and the group's addition table on indices."""

    index: int
    deltas: np.ndarray
    add: list[list[int]]

    @classmethod
    def of(cls, H: Hypercube, group: AbelianGroup, target_sum: Element) -> _TargetSum:
        return cls(
            group.index(group.reduce(target_sum)),
            profile(H, group).indices,
            index_add_table(group).tolist(),
        )


def _dfs_results(
    H: Hypercube, gauge: _Gauge, transversal: bool, target: _TargetSum | None
) -> Iterator[tuple[RawEntry, ...]]:
    """The DFS's transversals or diagonals, those with the target sum if given."""
    found = _dfs(H, gauge, transversal=transversal)
    if target is None:
        return found
    dlist, add = target.deltas.tolist(), target.add

    def total(raw: tuple[RawEntry, ...]) -> int:
        t = 0
        for coords, _sym in raw:
            node = dlist
            for c in coords:
                node = node[c]
            t = add[t][node]
        return t

    return (raw for raw in found if total(raw) == target.index)


def _results(
    H: Hypercube,
    budget: SearchBudget,
    gauge: _Gauge,
    *,
    transversal: bool,
    target: _TargetSum | None = None,
) -> Iterator[tuple[RawEntry, ...]]:
    """Every transversal, or every diagonal (with the target sum if given), in
    ``_dfs`` order.

    The listing rule is fixed before either engine runs: transversals and
    target-sum diagonals are read off the stored layers when their worst case
    (``_layer_work``) is within its bound and within ``max_nodes``, and no
    ``max_results`` is set; the DFS lists otherwise, so that a node or result
    budget below the worst case still lists results."""
    if transversal or target is not None:
        work, bound = _layer_work(H, target)
        if work <= min(bound, budget.max_nodes) and budget.max_results is None:
            return _layer_listing(_back_layers(H, gauge, target), gauge)
    return _dfs_results(H, gauge, transversal, target)


def _listed(
    H: Hypercube, budget: SearchBudget, results: Iterator[tuple[RawEntry, ...]]
) -> Iterator[Diagonal]:
    for emitted, raw in enumerate(results, 1):
        yield _raw_to_diagonal(raw, H.n)
        if emitted == budget.max_results:
            raise BudgetExhausted("result budget reached", partial=emitted)


def _census(
    H: Hypercube, budget: SearchBudget, keep: int, target: _TargetSum | None
) -> Census:
    """Count the transversals (``target`` None) or the target-sum diagonals and
    list the first ``keep``, by the rule of ``Census``; one gauge covers the
    whole census."""
    if keep < 0:
        raise ValueError("keep must be non-negative")
    gauge = _Gauge(budget)
    witnesses: list[Diagonal] = []
    work, bound = _layer_work(H, target)
    if work <= bound and budget.max_results is None:
        try:
            layers = _back_layers(H, gauge, target)
            for raw in itertools.islice(_layer_listing(layers, gauge), keep):
                witnesses.append(_raw_to_diagonal(raw, H.n))
        except BudgetExhausted:
            return Census(len(witnesses), tuple(witnesses), False, gauge.nodes)
        return Census(layers.count, tuple(witnesses), True, gauge.nodes)
    count = 0
    try:
        for raw in _dfs_results(H, gauge, target is None, target):
            if count < keep:
                witnesses.append(_raw_to_diagonal(raw, H.n))
            count += 1
            if count == budget.max_results:
                return Census(count, tuple(witnesses), False, gauge.nodes)
    except BudgetExhausted:
        return Census(count, tuple(witnesses), False, gauge.nodes)
    return Census(count, tuple(witnesses), True, gauge.nodes)


# -- existence search ---------------------------------------------------------


class _Cells(NamedTuple):
    """A cube's cells, row by row, for the existence search.

    Cell i of row r is the row's i-th in row-major order, ``entries[r][i]``.
    Its positions ``positions[r][i]`` are bit numbers: value v on axis k
    (1..d-1) is (k-1)*n + v and, for transversals (``symbols``), symbol s is
    (d-1)*n + s, so cells of distinct rows fit together iff they share no
    position.  A set of a row's cells is an int with bit i for cell i:
    ``allowed[r]`` holds the cells not forbidden, and ``avoiding[r][b]`` the
    allowed cells without position b."""

    entries: list[list[RawEntry]]
    positions: list[list[tuple[int, ...]]]
    allowed: list[int]
    avoiding: list[list[int]]
    n: int
    symbols: bool

    @classmethod
    def of(
        cls, H: Hypercube, transversal: bool, forbidden: frozenset[Coords] = frozenset()
    ) -> _Cells:
        """The cells of H, those in ``forbidden`` not allowed."""
        n, d = H.n, H.d
        rests = list(itertools.product(range(n), repeat=d - 1))
        axes = [tuple(k * n + v for k, v in enumerate(rest)) for rest in rests]
        top = (d - 1) * n
        entries, positions, allowed, avoiding = [], [], [], []
        for r, syms in enumerate(H.symbols.reshape(n, -1).tolist()):
            row = [((r,) + rest, s) for rest, s in zip(rests, syms)]
            pos = [a + (top + s,) for a, s in zip(axes, syms)] if transversal else axes
            ok = (1 << len(row)) - 1
            if forbidden:
                ok -= sum(1 << i for i, (c, _) in enumerate(row) if c in forbidden)
            holding = [0] * (top + n)
            for i, ps in enumerate(pos):
                for b in ps:
                    holding[b] |= 1 << i
            entries.append(row)
            positions.append(pos)
            allowed.append(ok)
            avoiding.append([ok & ~h for h in holding])
        return cls(entries, positions, allowed, avoiding, n, transversal)


def _complete(
    cells: _Cells, pre: Sequence[RawEntry], gauge: _Gauge
) -> tuple[RawEntry, ...] | None:
    """A full diagonal (transversal, on cells with symbol positions) through
    the ``pre`` entries, on allowed cells elsewhere, or None if provably absent.

    Each pre entry fixes its row.  The search places one cell per row: it
    always fills the unfilled row with the fewest allowed cells that fit the
    cells placed (the smallest row on ties), trying them in row-major order,
    so a row left with no such cell fails at once.  Each row's fitting cells
    are kept as a bit set and cut by the positions of every cell placed.  The
    gauge ticks once per cell placed; BudgetExhausted propagates."""
    n = cells.n
    taken: set[int] = set()
    fixed: dict[int, RawEntry] = {}
    for coords, sym in pre:
        ps = [k * n + v for k, v in enumerate(coords[1:])]
        if coords[0] in fixed or taken.intersection(ps):
            raise ValueError("pre-placed entries share a hyperplane")
        if cells.symbols:
            ps.append(len(ps) * n + sym)  # the symbol's position
            if ps[-1] in taken:
                raise ValueError("pre-placed entries repeat a symbol")
        taken.update(ps)
        fixed[coords[0]] = (coords, sym)
    todo = []
    for r in range(n):
        if r not in fixed:
            fits, avoid = cells.allowed[r], cells.avoiding[r]
            for b in taken:
                fits &= avoid[b]
            if not fits:
                return None
            todo.append((r, fits))
    placed: dict[int, RawEntry] = {}

    def fill(todo: list[tuple[int, int]]) -> bool:
        if not todo:
            return True
        r, fits = min(todo, key=lambda t: t[1].bit_count())
        rest = [t for t in todo if t[0] != r]
        positions = cells.positions[r]
        while fits:
            low = fits & -fits
            fits ^= low
            i = low.bit_length() - 1
            gauge.tick()
            nxt = []
            for r2, fits2 in rest:
                avoid = cells.avoiding[r2]
                for b in positions[i]:
                    fits2 &= avoid[b]
                if not fits2:
                    break
                nxt.append((r2, fits2))
            else:
                if fill(nxt):
                    placed[r] = cells.entries[r][i]
                    return True
        return False

    if not fill(todo):
        return None
    placed.update(fixed)
    return tuple(placed[r] for r in range(n))


def transversal_through(
    H: Hypercube,
    cell: Coords,
    budget: SearchBudget | None = None,
) -> Diagonal | None:
    """A transversal containing the cell, or None if provably absent, by the
    most-constrained-row search of ``_complete``.

    Raises BudgetExhausted when the budget runs out before either outcome."""
    _require_latin(H)
    budget = budget or SearchBudget()
    cell = tuple(int(c) for c in cell)
    raw = _complete(_Cells.of(H, True), [(cell, H[cell])], _Gauge(budget))
    return None if raw is None else _raw_to_diagonal(raw, H.n)


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


# Above this much worst-case work (states times cells tried per state) the
# transversal layers are left to per-cell existence searches, which a
# transversal-rich cube ends in a few early exits, and to listing and counting
# by the DFS.
# Transversal DP times track the bound at 1e-8 to 3e-8 s a unit (CPython 3.11,
# one Xeon core), so 2**26 is one or two seconds.  Order 13, d=2 is the first
# square above it; at order 16 the middle layer alone can hold C(16, 8)**2,
# about 1.7e8, states.
_DP_WORK_BOUND = 1 << 26

# The same for the target-sum layers, which fill nearly to their worst case:
# seeded isotopes of Z12..Z15 at d=2 built at 3.3e-7 to 4.3e-7 s a unit and of
# Z7, Z8 at d=3 at 1.4e-7 s (CPython 3.11, 2-core sandbox), so 2**22 is at
# most one or two seconds.  With |G| = n, order 15, d=2 (3.2 s) and order 8,
# d=3 are the first cubes above it.
_TARGET_WORK_BOUND = 1 << 22


def _frontier_work(n: int, d: int) -> int:
    """Worst-case work of the transversal layers on a cube of order n and
    dimension d.

    A state of layer r sets r bits in each of its d fields, so layer r holds
    at most C(n, r)**d states, and each state tries at most n**(d-1) cells."""
    return n ** (d - 1) * sum(math.comb(n, r) ** d for r in range(n + 1))


def _target_work(n: int, d: int, order: int) -> int:
    """Worst-case work of the target-sum layers: layer r holds at most
    C(n, r)**(d-1) axis masks times ``order`` running sums, and each state
    tries at most n**(d-1) cells."""
    return n ** (d - 1) * order * sum(math.comb(n, r) ** (d - 1) for r in range(n + 1))


def _layer_work(H: Hypercube, target: _TargetSum | None) -> tuple[int, int]:
    """The worst case of the transversal layers (``target`` None) or of the
    target-sum layers on H, and its bound."""
    if target is None:
        return _frontier_work(H.n, H.d), _DP_WORK_BOUND
    return _target_work(H.n, H.d, len(target.add)), _TARGET_WORK_BOUND


# A row's cells for one key, in two forms: grouped by their axis-1 bit in
# row-major order, as (bit, [(entry, mask)]), for reading results; and bucketed
# as (axis-1 bit, [(last-field bit, [masks])]) for extending states, since only
# buckets whose two bits are free in a state can hold a cell that fits it.
_RowGroups = list[tuple[int, list[tuple[RawEntry, int]]]]
_RowBuckets = list[tuple[int, list[tuple[int, list[int]]]]]
_Row = list[tuple[_RowGroups, _RowBuckets]]


def _frontier_rows(
    H: Hypercube, values: np.ndarray, bits: list[list[int]], full: int
) -> list[_Row]:
    """Each row's cells for each key k, with their packed masks.

    A cell of row r (axis-0 value r) gets an n-bit one-hot field for each of
    axes 1..d-1, so cells from distinct rows share no hyperplane iff those
    fields are disjoint; for key k its mask adds ``bits[k][v]``, v being
    ``values`` at the cell.  ``full`` sets every field below the key."""
    n, d = H.n, H.d
    axis1 = (1 << n) - 1
    top = full ^ (full >> n)
    rests = list(itertools.product(range(n), repeat=d - 1))
    axes = [sum(1 << (axis * n + v) for axis, v in enumerate(rest)) for rest in rests]
    rows = []
    for r, (syms, vals) in enumerate(zip(H.symbols.reshape(n, -1).tolist(),
                                         values.reshape(n, -1).tolist())):
        entries = [((r,) + rest, s) for rest, s in zip(rests, syms)]
        row: _Row = []
        for key_bits in bits:
            cells = [(e, a | key_bits[v]) for e, a, v in zip(entries, axes, vals)]
            by_bit: dict[int, dict[int, list[int]]] = {}
            for _, m in cells:
                by_bit.setdefault(m & axis1, {}).setdefault(m & top, []).append(m)
            # row-major order groups a row's cells by their axis-1 value
            groups = itertools.groupby(cells, lambda c: c[1] & axis1)
            row.append(([(b1, list(g)) for b1, g in groups],
                        [(b1, list(sub.items())) for b1, sub in by_bit.items()]))
        rows.append(row)
    return rows


class _Layers(NamedTuple):
    """The backward frontier layers of one kind of search on a cube.

    A state packs n-bit one-hot fields, all set in ``full``: one per axis
    1..d-1 and, for transversals, one for the symbols.  For target sums the
    index of a delta sum sits above the fields; the state's key is its bits
    above ``full`` (0 for transversals).  ``back[r]`` maps each state of B_r to
    its number of ways: the partial transversals (or partial diagonals) on
    rows r..n-1 whose cells fill its fields, for target sums with its delta
    sum.  B_n is {0: 1}.

    ``rows`` are for reading forward: a forward state holds the fields of rows
    0..r-1 and, for target sums, the target minus their delta sum, and cell m
    of row r takes it to state g = (f & ``full``) | m; g completes iff
    ``full ^ g`` lies in B_{r+1}.  Reading starts at ``root``."""

    rows: list[_Row]
    back: list[dict[int, int]]
    full: int
    root: int

    @property
    def count(self) -> int:
        """The number of results: the ways of the state that completes the root."""
        return self.back[0].get(self.full ^ self.root, 0)


def _back_layers(H: Hypercube, gauge: _Gauge, target: _TargetSum | None = None) -> _Layers:
    """Every backward layer of the transversals (``target`` None) or of the
    diagonals with the target sum, built from row n-1 down.

    A state of B_{r+1} with key k extended by a cell of row r (mask m for key
    k) becomes (f & full) | m, one OR per cell: for target sums m holds the
    new delta sum, k plus the cell's delta.  The gauge ticks once per state
    expanded; each expansion adds at most n**(d-1) states, which bounds the
    states held."""
    n = H.n
    width = (H.d if target is None else H.d - 1) * n
    full = (1 << width) - 1
    if target is None:
        symbol_bits = [[1 << (width - n + s) for s in range(n)]]
        rows = build = _frontier_rows(H, H.symbols, symbol_bits, full)
        root = 0
    else:
        add = target.add
        # reading subtracts each delta from what is left of the target
        minus = [[0] * len(add) for _ in add]
        for k, sums in enumerate(add):
            for v, s in enumerate(sums):
                minus[s][v] = k
        build = _frontier_rows(H, target.deltas, [[s << width for s in k] for k in add], full)
        rows = _frontier_rows(H, target.deltas, [[s << width for s in k] for k in minus], full)
        root = target.index << width
    back = [{0: 1}]
    for row in reversed(build):
        ways: dict[int, int] = {}
        get = ways.get
        for f, w in back[-1].items():
            gauge.tick()
            base = f & full
            for b1, sub in row[f >> width][1]:
                if base & b1:
                    continue
                for b2, masks in sub:
                    if base & b2:
                        continue
                    for m in masks:
                        if not base & m:
                            g = base | m
                            ways[g] = get(g, 0) + w
        back.append(ways)
    back.reverse()
    return _Layers(rows, back, full, root)


def _layer_listing(layers: _Layers, gauge: _Gauge) -> Iterator[tuple[RawEntry, ...]]:
    """The results in ``_dfs`` order, read off the backward layers.

    At row r with forward state f the row's cells are tried in row-major
    order, and a cell is taken iff it fits f and the state g it leads to
    completes (``full ^ g`` lies in B_{r+1}), so every branch taken completes.
    The gauge ticks once per partial result extended by a row other than the
    last; the last row's cell is looked up, not searched."""
    rows, back, full, root = layers
    n, shift = len(rows), full.bit_length()
    groups = [[g for g, _ in row] for row in rows]
    # a live state on rows 0..n-2 leaves exactly one cell of the last row
    last = [{m: e for _, cells in g for e, m in cells} for g in groups[-1]]
    acc: list[RawEntry] = []

    def from_row(r: int, f: int) -> Iterator[tuple[RawEntry, ...]]:
        base = f & full
        if r == n - 1:
            yield (*acc, last[f >> shift][full ^ base])
            return
        gauge.tick()
        live = back[r + 1]
        for b1, cells in groups[r][f >> shift]:
            if base & b1:
                continue
            for entry, m in cells:
                if not base & m and full ^ (base | m) in live:
                    acc.append(entry)
                    yield from from_row(r + 1, base | m)
                    acc.pop()

    if layers.count:
        yield from from_row(0, root)


def bachelor_cells(H: Hypercube, budget: SearchBudget | None = None) -> BachelorScan:
    """Classify every cell by whether some transversal passes through it.

    The engine is chosen from the cube's order and dimension alone, before
    either runs.  Up to ``_DP_WORK_BOUND`` of worst-case work
    (``_frontier_work``) the stored layers decide every cell at once; above it
    each cell not yet covered gets one existence search (``_complete``),
    which on a transversal-rich cube covers every cell in a few searches.

    ``nodes`` counts the frontier states expanded or the cells placed.  When
    the budget runs out the scan is flagged non-exhaustive and lists no
    cells."""
    _require_latin(H)
    budget = budget or SearchBudget()
    gauge = _Gauge(budget)
    scan = _frontier_scan if _frontier_work(H.n, H.d) <= _DP_WORK_BOUND else _per_cell_scan
    try:
        bachelors = scan(H, gauge)
    except BudgetExhausted:
        return BachelorScan((), False, 0, gauge.nodes)
    return BachelorScan(bachelors, True, H.n ** H.d, gauge.nodes)


def _frontier_scan(H: Hypercube, gauge: _Gauge) -> tuple[Coords, ...]:
    """The bachelor cells, off the backward transversal layers.

    A forward sweep keeps L_r, the live unions on rows 0..r-1: L_0 is {0} when
    the cube has a transversal, and L_{r+1} holds f | m for each f in L_r and
    cell m of row r disjoint from f whose complement ``full ^ (f | m)`` lies in
    B_{r+1}.  Those cells m are the covered cells of row r; if there is no
    transversal every cell is a bachelor.  The gauge ticks once per state
    expanded in either pass."""
    layers = _back_layers(H, gauge)
    full = layers.full
    live = {0} if layers.count else set()
    rows = [row[0] for row in layers.rows]  # transversals have the one key 0
    covered: list[set[int]] = []
    for (_, buckets), back in zip(rows, layers.back[1:]):
        cells, nxt = set(), set()
        for f in live:
            gauge.tick()
            for b1, sub in buckets:
                if f & b1:
                    continue
                for b2, masks in sub:
                    if f & b2:
                        continue
                    for m in masks:
                        if not f & m and full ^ (f | m) in back:
                            cells.add(m)
                            nxt.add(f | m)
        covered.append(cells)
        live = nxt
    return tuple(coords for cells, (groups, _) in zip(covered, rows)
                 for _, group in groups for (coords, _sym), m in group if m not in cells)


def _per_cell_scan(H: Hypercube, gauge: _Gauge) -> tuple[Coords, ...]:
    """The bachelor cells, by one ``_complete`` search per cell that no
    transversal found so far covers, on cells built once for the scan."""
    cells = _Cells.of(H, True)
    covered: set[Coords] = set()
    bachelors: list[Coords] = []
    for cell in H.cells():
        if cell in covered:
            continue
        raw = _complete(cells, [(cell, H[cell])], gauge)
        if raw is None:
            bachelors.append(cell)
        else:
            covered.update(c for c, _ in raw)
    return tuple(bachelors)


# -- disjoint packings -------------------------------------------------------


@dataclass
class PackingResult:
    packing: tuple[Diagonal, ...]
    optimal: bool
    upper_bound: int | None
    certificate: str
    exhausted: bool
    transversal_count: int


def _greedy_hitting_set(cell_sets: list[frozenset[Coords]]) -> list[Coords]:
    """Greedy cover: cells chosen so every set contains at least one of them.

    Each step takes the smallest of the cells in most sets not yet hit."""
    holders: dict[Coords, list[int]] = {}
    for i, cells in enumerate(cell_sets):
        for c in cells:
            holders.setdefault(c, []).append(i)
    freq = {c: len(sets) for c, sets in holders.items()}
    order = sorted(freq)
    hit = [False] * len(cell_sets)
    chosen: list[Coords] = []
    while order:
        best = max(order, key=freq.__getitem__)
        if not freq[best]:
            break
        chosen.append(best)
        for i in holders[best]:
            if not hit[i]:
                hit[i] = True
                for c in cell_sets[i]:
                    freq[c] -= 1
    return chosen


def max_disjoint_transversals(
    H: Hypercube,
    cap: int | None = None,
    budget: SearchBudget | None = None,
) -> PackingResult:
    """A maximum-cardinality family of pairwise disjoint transversals.

    Lists all transversals (``_results``: off stored frontier layers
    when the budget allows their worst case, by the DFS otherwise), derives an
    upper bound from a greedy hitting set over them (valid because the listing
    is exhaustive), then packs by branch and bound grouped on hitting-set
    cells.  One gauge covers the listing and the packing.  The optimality flag
    is set only when the listing ran to its end and the bound is met or the
    packing tree was exhausted."""
    _require_latin(H)
    budget = budget or SearchBudget()
    all_t: list[tuple[RawEntry, ...]] = []
    enum_exhausted = False
    gauge = _Gauge(budget)
    try:
        all_t.extend(_results(H, budget, gauge, transversal=True))
    except BudgetExhausted:
        enum_exhausted = True

    if not all_t:
        return PackingResult((), not enum_exhausted, 0 if not enum_exhausted else None,
                             "no transversals", enum_exhausted, 0)

    cell_sets = [frozenset(c for c, _ in raw) for raw in all_t]
    hitting = _greedy_hitting_set(cell_sets)
    ub_hit = len(hitting)
    hard_cap = H.n ** (H.d - 1)
    # every transversal has the target deviation sum, so when that target is
    # nonzero the nonzero-deviation support is itself a hitting set
    group = H.group
    support_ub = None
    if suitable_target(group, H.d) != group.identity():
        support_ub = len(profile(H, group).support)
    ub = min(ub_hit, hard_cap, len(all_t), *(x for x in (support_ub,) if x is not None))
    goal = ub if cap is None else min(ub, cap)

    # group transversals by the first cell they contain from whichever hitting
    # set is tighter; branch over small groups first
    if support_ub is not None and support_ub <= ub_hit:
        base_cells = sorted(profile(H, group).support)
    else:
        base_cells = hitting
    hit_index = {c: i for i, c in enumerate(base_cells)}
    raw_groups: list[list[int]] = [[] for _ in base_cells]
    for t, cs in enumerate(cell_sets):
        first = min(hit_index[c] for c in cs if c in hit_index)
        raw_groups[first].append(t)
    order = sorted(range(len(raw_groups)), key=lambda i: (len(raw_groups[i]), base_cells[i]))
    groups = [raw_groups[i] for i in order if raw_groups[i]]

    best: list[int] = []
    chosen: list[int] = []
    used: set[Coords] = set()
    budget_hit = False

    def bb(gi: int) -> bool:
        # returns True when the whole search should stop (goal met or budget out)
        nonlocal best, budget_hit
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) >= goal:
                return True
        if gi == len(groups):
            return False
        if len(chosen) + (len(groups) - gi) <= len(best):
            return False
        for t in groups[gi]:
            try:
                gauge.tick()
            except BudgetExhausted:
                budget_hit = True
                return True
            if used & cell_sets[t]:
                continue
            chosen.append(t)
            used.update(cell_sets[t])
            if bb(gi + 1):
                return True
            used.difference_update(cell_sets[t])
            chosen.pop()
        return bb(gi + 1)

    stopped = bb(0)
    tree_exhausted = not stopped
    packing = tuple(_raw_to_diagonal(all_t[t], H.n) for t in sorted(best))
    optimal = (not enum_exhausted) and (len(best) == ub or tree_exhausted)
    cert = f"greedy-hitting-set({ub_hit}), hyperplane-cap({hard_cap})"
    if support_ub is not None:
        cert += f", support-hitting-set({support_ub})"
    if enum_exhausted:
        cert += ", enumeration-truncated"
    return PackingResult(packing, optimal, None if enum_exhausted else ub, cert,
                         enum_exhausted or budget_hit, len(all_t))


# -- hitting-set certification ------------------------------------------------


def complete_avoiding(
    H: Hypercube,
    partial_cells: Sequence[Coords],
    forbidden: Iterable[Coords],
    budget: SearchBudget | None = None,
) -> Diagonal | None:
    """Extend a partial diagonal to a complete one avoiding the forbidden cells,
    by the most-constrained-row search of ``_complete``; the partial cells
    themselves may be forbidden.

    Returns None when no completion exists (exhaustive); raises ValueError
    when partial cells share a hyperplane, and BudgetExhausted when
    undecided."""
    budget = budget or SearchBudget()
    pre = [(tuple(c), H[c]) for c in partial_cells]
    cells = _Cells.of(H, False, frozenset(tuple(c) for c in forbidden))
    raw = _complete(cells, pre, _Gauge(budget))
    return None if raw is None else _raw_to_diagonal(raw, H.n)


def hitting_set_check(
    H: Hypercube,
    group: AbelianGroup | None,
    target: Element,
    cells: Iterable[Coords],
    budget: SearchBudget | None = None,
) -> bool:
    """True iff every complete diagonal with the given delta sum meets ``cells``.

    Off the nonzero-delta support X every delta is zero, so a diagonal D that
    avoids the cells U has the delta sum of D & X, and the rest of D avoids
    X | U.  The check branches over the partial diagonals P inside X - U; for
    each P with the target sum it searches for a completion of P avoiding
    X | U (``_complete``, on cells built at most once for the check), and
    answers True iff no branch completes.  When U covers X the only branch is the empty
    one, whose sum is zero, so a nonzero target is decided without search.

    One gauge covers the whole check: it ticks on every branch and is shared
    by every completion.  BudgetExhausted propagates, so an exhausted budget
    never yields True."""
    _require_latin(H)
    budget = budget or SearchBudget()
    group = H.group if group is None else group
    target = group.reduce(target)
    U = {tuple(int(x) for x in c) for c in cells}
    prof = profile(H, group)
    X = frozenset(prof.support)
    free = sorted(X - U)
    allowed: _Cells | None = None  # built for the first completion searched
    gauge = _Gauge(budget)
    used: list[set[int]] = [set() for _ in range(H.d)]
    branch: list[RawEntry] = []

    def completes(start: int, total: Element) -> bool:
        nonlocal allowed
        gauge.tick()
        if total == target:
            allowed = allowed or _Cells.of(H, False, X | U)
            if _complete(allowed, branch, gauge) is not None:
                return True
        for i in range(start, len(free)):
            cell = free[i]
            if any(v in u for v, u in zip(cell, used)):
                continue
            for v, u in zip(cell, used):
                u.add(v)
            branch.append((cell, H[cell]))
            found = completes(i + 1, group.add(total, prof.value_at(cell)))
            branch.pop()
            for v, u in zip(cell, used):
                u.discard(v)
            if found:
                return True
        return False

    return not completes(0, group.identity())


# -- decomposition hill climbing ----------------------------------------------


def hill_climb_decomposition(
    H: Hypercube,
    budget: SearchBudget | None = None,
) -> tuple[Diagonal, ...] | None:
    """Random local search for a partition of all cells into disjoint transversals.

    State: each axis-0 hyperplane assigns its n^(d-1) cells bijectively to
    n^(d-1) classes; cost counts repeated coordinates (axes 1..d-1) and
    repeated symbols inside classes.  A move swaps the class labels of two
    cells inside one hyperplane.  Failure within budget is not a
    nonexistence proof."""
    _require_latin(H)
    budget = budget or SearchBudget()
    rng = random.Random(budget.rng_seed)
    n, d = H.n, H.d
    k = n ** (d - 1)
    nested = H.symbols.reshape(n, -1).tolist()

    # cell c in hyperplane r has flat index c; its axis-j coordinate:
    coord_of = [[0] * k for _ in range(d - 1)]
    for c in range(k):
        rest = c
        for axis in reversed(range(d - 1)):
            coord_of[axis][c] = rest % n
            rest //= n

    max_moves = budget.max_nodes
    deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap
    moves = 0
    restart_after = max(2000, 200 * n * k)
    sideways_cap = 10 * n * k

    while moves < max_moves:
        labels = [list(range(k)) for _ in range(n)]
        for row in labels:
            rng.shuffle(row)
        # cnt[cls][axis][v] for axes 1..d-1, then symbols at index d-1
        cnt = [[[0] * n for _ in range(d)] for _ in range(k)]
        cost = 0
        for r in range(n):
            for c in range(k):
                cls = labels[r][c]
                for axis in range(d - 1):
                    v = coord_of[axis][c]
                    cnt[cls][axis][v] += 1
                    if cnt[cls][axis][v] > 1:
                        cost += 1
                s = nested[r][c]
                cnt[cls][d - 1][s] += 1
                if cnt[cls][d - 1][s] > 1:
                    cost += 1

        def move_delta(cls: int, r: int, c: int, sign: int) -> int:
            delta = 0
            for axis in range(d - 1):
                v = coord_of[axis][c]
                before = cnt[cls][axis][v]
                cnt[cls][axis][v] = before + sign
                if sign > 0 and before >= 1:
                    delta += 1
                if sign < 0 and before >= 2:
                    delta -= 1
            s = nested[r][c]
            before = cnt[cls][d - 1][s]
            cnt[cls][d - 1][s] = before + sign
            if sign > 0 and before >= 1:
                delta += 1
            if sign < 0 and before >= 2:
                delta -= 1
            return delta

        stagnant = 0
        sideways = 0
        while cost > 0 and moves < max_moves and stagnant < restart_after:
            moves += 1
            if deadline is not None and moves % 4096 == 0 and time.monotonic() > deadline:
                return None
            r = rng.randrange(n)
            c1 = rng.randrange(k)
            c2 = rng.randrange(k)
            a, b = labels[r][c1], labels[r][c2]
            if a == b:
                stagnant += 1
                continue
            delta = 0
            delta += move_delta(a, r, c1, -1)
            delta += move_delta(b, r, c2, -1)
            delta += move_delta(b, r, c1, +1)
            delta += move_delta(a, r, c2, +1)
            accept = delta < 0 or (delta == 0 and sideways < sideways_cap)
            if accept:
                labels[r][c1], labels[r][c2] = b, a
                cost += delta
                if delta == 0:
                    sideways += 1
                    stagnant += 1
                else:
                    stagnant = 0
                    sideways = 0
            else:
                # revert counters
                move_delta(a, r, c2, -1)
                move_delta(b, r, c1, -1)
                move_delta(b, r, c2, +1)
                move_delta(a, r, c1, +1)
                stagnant += 1

        if cost == 0:
            classes: list[list[Entry]] = [[] for _ in range(k)]
            for r in range(n):
                for c in range(k):
                    coords = (r,) + tuple(coord_of[axis][c] for axis in range(d - 1))
                    classes[labels[r][c]].append(Entry(coords, nested[r][c]))
            out = tuple(
                Diagonal.from_entries(H, sorted(cls), transversal=True) for cls in classes
            )
            return out
    return None
