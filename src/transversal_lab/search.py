"""Exact search over diagonals and transversals.

Two engines share one node gauge.  The depth-first search (``_dfs``) serves
enumeration, through-cell searches, completions and packings.  It fills rows
(axis-0 values in increasing order); within a row, candidate coordinates are
tried in increasing lexicographic order on the remaining axes.  This fixes a
deterministic output order.  Occupancy is tracked per axis and per symbol.
The frontier DP runs row by row over sets of packed-int states and serves
three uses.  ``bachelor_cells`` decides for every cell at once whether a
transversal passes through it, by one forward and one backward pass.
``count_transversals`` and ``count_diagonals`` count results by one forward
pass, after the DFS has listed the few witnesses asked for.  Each use runs the
DP only on cubes whose order and dimension (and group order) keep its worst
case small, and the DFS on larger cubes.

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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


def _dfs(
    H: Hypercube,
    gauge: _Gauge,
    *,
    transversal: bool,
    pre: Sequence[RawEntry] = (),
    forbidden: frozenset[Coords] = frozenset(),
) -> Iterator[tuple[RawEntry, ...]]:
    """Yield completions of ``pre`` to full diagonals, in deterministic order.

    ``pre`` entries occupy their hyperplanes up front and appear in every
    yielded result.  ``forbidden`` cells are never used.
    """
    n, d = H.n, H.d
    nested = H.symbols.tolist()
    used = [[False] * n for _ in range(d - 1)]
    used_sym = [False] * n
    pre = [((tuple(c)), s) for c, s in pre]
    pre_rows = set()
    for coords, sym in pre:
        if used_sym[sym] and transversal:
            raise ValueError("pre-placed entries repeat a symbol")
        pre_rows.add(coords[0])
        for axis in range(1, d):
            if used[axis - 1][coords[axis]]:
                raise ValueError("pre-placed entries share a hyperplane")
            used[axis - 1][coords[axis]] = True
        used_sym[sym] = True
    rows = [r for r in range(n) if r not in pre_rows]
    if len(pre_rows) != len(pre):
        raise ValueError("pre-placed entries share a hyperplane")
    if forbidden:
        # a row left with no allowed cell would only be found empty after
        # searching every filling of the rows before it; this check tests at
        # most n**d cells and the gauge does not count them
        free = [[v for v in range(n) if not u[v]] for u in used]
        for r in rows:
            if not any(
                (r,) + rest not in forbidden
                and not (transversal and used_sym[H[(r,) + rest]])
                for rest in itertools.product(*free)
            ):
                return

    acc: list[RawEntry] = list(pre)

    def rows_from(ri: int) -> Iterator[tuple[RawEntry, ...]]:
        if ri == len(rows):
            yield tuple(acc)
            return
        r = rows[ri]
        sub = nested[r]

        def pick(axis: int, node, prefix: Coords) -> Iterator[tuple[RawEntry, ...]]:
            if axis == d:
                sym = node
                if transversal and used_sym[sym]:
                    return
                if prefix in forbidden:
                    return
                used_sym[sym] = True
                acc.append((prefix, sym))
                yield from rows_from(ri + 1)
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

        yield from pick(1, sub, (r,))

    yield from rows_from(0)


def _raw_to_diagonal(raw: tuple[RawEntry, ...], n: int) -> Diagonal:
    entries = tuple(Entry(c, s) for c, s in raw)
    return Diagonal(entries, complete=len(entries) == n)


def enumerate_transversals(
    H: Hypercube,
    budget: SearchBudget | None = None,
) -> Iterator[Diagonal]:
    """All transversals, each exactly once, in deterministic order."""
    _require_latin(H)
    budget = budget or SearchBudget()
    yield from _listed(H, budget, _results(H, _Gauge(budget), transversal=True))


def enumerate_diagonals(
    H: Hypercube,
    group: AbelianGroup | None = None,
    target_sum: Element | None = None,
    budget: SearchBudget | None = None,
) -> Iterator[Diagonal]:
    """All complete diagonals, optionally filtered to a given delta sum."""
    _require_latin(H)
    budget = budget or SearchBudget()
    group = H.group if group is None else group
    target = None if target_sum is None else _TargetSum.of(H, group, target_sum)
    yield from _listed(H, budget, _results(H, _Gauge(budget), transversal=False, target=target))


@dataclass(frozen=True)
class Census:
    """How many results a search has, and the first ``keep`` of them.

    ``witnesses`` are the first results of the matching ``enumerate_*`` call.
    ``exact`` is False when a budget cut the search short; ``count`` is then
    ``max_results`` if that many results exist, and otherwise the number of
    results the DFS reached before the node or time budget ran out.  ``nodes``
    counts DFS nodes plus DP states, the units ``max_nodes`` caps.

    A count under ``max_results`` runs on the DFS alone and stops at the
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

    The DFS lists the ``keep`` witnesses.  Unless its tree ends first, the rest
    are counted by the frontier DP when its worst case (``_frontier_work``) is
    at most ``_DP_WORK_BOUND`` and no ``max_results`` is set, and by the same
    DFS otherwise."""
    _require_latin(H)
    small = _frontier_work(H.n, H.d) <= _DP_WORK_BOUND
    return _census(
        H,
        budget or SearchBudget(),
        keep,
        lambda gauge: _results(H, gauge, transversal=True),
        (lambda gauge: _count_transversals_dp(H, gauge)) if small else None,
    )


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

    As ``count_transversals``, with the target-sum DP, its worst case
    ``_target_work`` and its bound ``_TARGET_WORK_BOUND``."""
    _require_latin(H)
    group = H.group if group is None else group
    target = _TargetSum.of(H, group, target_sum)
    small = _target_work(H.n, H.d, group.order) <= _TARGET_WORK_BOUND
    return _census(
        H,
        budget or SearchBudget(),
        keep,
        lambda gauge: _results(H, gauge, transversal=False, target=target),
        (lambda gauge: _count_target_dp(H, target, gauge)) if small else None,
    )


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


def _results(
    H: Hypercube,
    gauge: _Gauge,
    *,
    transversal: bool,
    target: _TargetSum | None = None,
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


def _listed(
    H: Hypercube, budget: SearchBudget, results: Iterator[tuple[RawEntry, ...]]
) -> Iterator[Diagonal]:
    for emitted, raw in enumerate(results, 1):
        yield _raw_to_diagonal(raw, H.n)
        if emitted == budget.max_results:
            raise BudgetExhausted("result budget reached", partial=emitted)


def _census(
    H: Hypercube,
    budget: SearchBudget,
    keep: int,
    results: Callable[[_Gauge], Iterator[tuple[RawEntry, ...]]],
    dp: Callable[[_Gauge], int] | None,
) -> Census:
    """List ``keep`` results by the DFS, then count every result by the DP, or
    by the same DFS when ``dp`` is None or a result budget is set, so that a
    result-capped count stops at its cap; one gauge covers both."""
    if keep < 0:
        raise ValueError("keep must be non-negative")
    cap = budget.max_results
    if cap is not None:
        dp = None
    gauge = _Gauge(budget)
    witnesses: list[Diagonal] = []
    count = 0
    try:
        if keep or dp is None:
            for raw in results(gauge):
                if count < keep:
                    witnesses.append(_raw_to_diagonal(raw, H.n))
                count += 1
                if count == cap:
                    return Census(count, tuple(witnesses), False, gauge.nodes)
                if count == keep and dp is not None:
                    break
            else:
                return Census(count, tuple(witnesses), True, gauge.nodes)
        count = dp(gauge)
    except BudgetExhausted:
        return Census(count, tuple(witnesses), False, gauge.nodes)
    return Census(count, tuple(witnesses), True, gauge.nodes)


def transversal_through(
    H: Hypercube,
    cell: Coords,
    budget: SearchBudget | None = None,
) -> Diagonal | None:
    """A transversal containing the cell, or None if provably absent.

    Raises BudgetExhausted when the budget runs out before either outcome."""
    _require_latin(H)
    budget = budget or SearchBudget()
    cell = tuple(int(c) for c in cell)
    for raw in _dfs(H, _Gauge(budget), transversal=True, pre=[(cell, H[cell])]):
        return _raw_to_diagonal(raw, H.n)
    return None


@dataclass
class BachelorScan:
    """Cells proven to lie on no transversal.

    ``nodes`` counts the frontier states or the DFS nodes that the scan
    expanded, whichever engine ran.  A truncated scan (``exhaustive`` False)
    lists no cells and has ``checked_cells`` 0: it decides nothing."""

    bachelor_cells: tuple[Coords, ...]
    exhaustive: bool
    checked_cells: int
    nodes: int


# A row's cells bucketed for the frontier DP: (axis-1 bit, [(symbol bit,
# [cell masks])]).  Only buckets whose two bits are free in a state can hold a
# cell that fits it.
_RowBuckets = list[tuple[int, list[tuple[int, list[int]]]]]


def _packed_rows(H: Hypercube, values: np.ndarray) -> Iterator[list[tuple[Coords, int, int]]]:
    """Each row's cells in row-major order as (coords, axis mask, value).

    A cell of row r (axis-0 value r) gets an n-bit one-hot field for each of
    axes 1..d-1, so cells from distinct rows share no hyperplane iff their
    axis masks are disjoint; its value is ``values`` at the cell."""
    n, d = H.n, H.d
    rests = list(itertools.product(range(n), repeat=d - 1))
    masks = [sum(1 << (axis * n + v) for axis, v in enumerate(rest)) for rest in rests]
    for r, row in enumerate(values.reshape(n, -1).tolist()):
        yield [((r,) + rest, mask, v) for rest, mask, v in zip(rests, masks, row)]


def _frontier_rows(H: Hypercube) -> tuple[list[list[tuple[Coords, int]]], list[_RowBuckets]]:
    """Each row's cells as packed masks, in row-major order, and bucketed.

    A cell's mask is its axis mask (``_packed_rows``) plus an n-bit one-hot
    field for its symbol, so a set of cells from distinct rows is a partial
    transversal iff their masks are disjoint."""
    n = H.n
    sym_shift = (H.d - 1) * n
    axis1 = (1 << n) - 1
    rows, buckets = [], []
    for packed in _packed_rows(H, H.symbols):
        cells: list[tuple[Coords, int]] = []
        by_key: dict[int, dict[int, list[int]]] = {}
        for coords, axes, s in packed:
            sym_bit = 1 << (sym_shift + s)
            cells.append((coords, axes | sym_bit))
            by_key.setdefault(axes & axis1, {}).setdefault(sym_bit, []).append(axes | sym_bit)
        rows.append(cells)
        buckets.append([(b1, list(sub.items())) for b1, sub in by_key.items()])
    return rows, buckets


def _extend(states: Iterable[int], row: _RowBuckets, gauge: _Gauge) -> Iterator[tuple[int, int]]:
    """Every (state, cell mask) pair with the cell disjoint from the state."""
    for f in states:
        gauge.tick()
        for b1, sub in row:
            if f & b1:
                continue
            for b2, masks in sub:
                if f & b2:
                    continue
                for m in masks:
                    if not f & m:
                        yield f, m


# Above this much worst-case work (states times cells tried per state) the
# frontier DP is left to the DFS: to per-cell searches, which a
# transversal-rich cube ends in a few early exits, and to counting by the DFS.
# Transversal DP times track the bound at 1e-8 to 3e-8 s a unit (CPython 3.11,
# one Xeon core), so 2**26 is one or two seconds.  Order 13, d=2 is the first
# square above it; at order 16 the middle layer alone can hold C(16, 8)**2,
# about 1.7e8, states.
_DP_WORK_BOUND = 1 << 26

# The same for the target-sum DP, which fills its layers nearly to their worst
# case: seeded isotopes of Z12..Z15 at d=2 ran at 3.1e-7 to 3.6e-7 s a unit and
# of Z7, Z8 at d=3 at 8e-8 to 9e-8 s (same machine), so 2**22 is at most one or
# two seconds.  With |G| = n, order 15, d=2 (2.4 s) and order 8, d=3 are the
# first cubes above it.
_TARGET_WORK_BOUND = 1 << 22


def _frontier_work(n: int, d: int) -> int:
    """Worst-case work of the frontier DP on a cube of order n and dimension d.

    A state of layer r sets r bits in each of its d fields, so layer r holds
    at most C(n, r)**d states, and each state tries at most n**(d-1) cells."""
    return n ** (d - 1) * sum(math.comb(n, r) ** d for r in range(n + 1))


def _target_work(n: int, d: int, order: int) -> int:
    """Worst-case work of the target-sum DP: layer r holds at most
    C(n, r)**(d-1) axis masks times ``order`` running sums, and each state
    tries at most n**(d-1) cells."""
    return n ** (d - 1) * order * sum(math.comb(n, r) ** (d - 1) for r in range(n + 1))


def _count_transversals_dp(H: Hypercube, gauge: _Gauge) -> int:
    """The number of transversals, by a forward frontier DP that maps each
    union of partial transversals on the rows so far to its number of ways."""
    _, buckets = _frontier_rows(H)
    layer = {0: 1}
    for row in buckets:
        ways: dict[int, int] = {}
        for f, m in _extend(layer, row, gauge):
            g = f | m
            ways[g] = ways.get(g, 0) + layer[f]
        layer = ways
    return sum(layer.values())


def _count_target_dp(H: Hypercube, target: _TargetSum, gauge: _Gauge) -> int:
    """The number of diagonals with the target delta sum, by a forward frontier
    DP.  A state packs the axis masks of the cells placed so far (an n-bit
    field per axis 1..d-1) with the index of their delta sum above them."""
    n = H.n
    shift = (H.d - 1) * n
    axes = (1 << shift) - 1
    axis1 = (1 << n) - 1
    rows = []
    for packed in _packed_rows(H, target.deltas):
        by_bit: dict[int, list[tuple[int, int]]] = {}
        for _coords, mask, v in packed:
            by_bit.setdefault(mask & axis1, []).append((mask, v))
        rows.append(list(by_bit.items()))
    layer = {0: 1}
    for row in rows:
        ways: dict[int, int] = {}
        for f, w in layer.items():
            gauge.tick()
            used, add = f & axes, target.add[f >> shift]
            for b1, cells in row:
                if used & b1:
                    continue
                for mask, v in cells:
                    if not used & mask:
                        g = used | mask | add[v] << shift
                        ways[g] = ways.get(g, 0) + w
        layer = ways
    return layer.get(axes | target.index << shift, 0)


def bachelor_cells(H: Hypercube, budget: SearchBudget | None = None) -> BachelorScan:
    """Classify every cell by whether some transversal passes through it.

    The engine is chosen from the cube's order and dimension alone, before
    either runs.  Up to ``_DP_WORK_BOUND`` of worst-case work
    (``_frontier_work``) one frontier DP decides every cell at once; above it
    each cell not yet covered gets one early-exit DFS, which on a
    transversal-rich cube covers every cell in a few searches.

    ``nodes`` counts the frontier states or DFS nodes expanded.  When the
    budget runs out the scan is flagged non-exhaustive and lists no cells."""
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
    """The bachelor cells, by one row-by-row frontier DP.

    The forward pass builds F_r, the unions of partial transversals on rows
    0..r-1.  The backward pass walks from row n-1 down, keeping B_{r+1}, the
    unions on rows r+1..n-1 that some state of F_{r+1} completes; a cell m of
    row r is covered iff some b in B_{r+1} fits m and the complement of b | m
    lies in F_r.  If F_n is empty there is no transversal and every cell is a
    bachelor.

    The gauge ticks once per state expanded in either pass; each expansion
    adds at most n**(d-1) states, which bounds the states held."""
    n = H.n
    rows, buckets = _frontier_rows(H)
    full = (1 << (H.d * n)) - 1
    covered: list[set[int]] = [set() for _ in range(n)]
    layers = [{0}]
    for r in range(n):
        layers.append({f | m for f, m in _extend(layers[-1], buckets[r], gauge)})
    if layers.pop():
        back = {0}
        for r in reversed(range(n)):
            forward = layers.pop()
            prev = set()
            for b, m in _extend(back, buckets[r], gauge):
                s = b | m
                if full ^ s in forward:
                    covered[r].add(m)
                    prev.add(s)
            back = prev
    return tuple(c for r in range(n) for c, m in rows[r] if m not in covered[r])


def _per_cell_scan(H: Hypercube, gauge: _Gauge) -> tuple[Coords, ...]:
    """The bachelor cells, by one DFS per cell that no transversal found so far
    covers; the DFS stops at its first transversal."""
    covered: set[Coords] = set()
    bachelors: list[Coords] = []
    for cell in H.cells():
        if cell in covered:
            continue
        for raw in _dfs(H, gauge, transversal=True, pre=[(cell, H[cell])]):
            covered.update(c for c, _ in raw)
            break
        else:
            bachelors.append(cell)
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
    """Greedy cover: cells chosen so every set contains at least one of them."""
    remaining = list(range(len(cell_sets)))
    chosen: list[Coords] = []
    while remaining:
        freq: dict[Coords, int] = {}
        for i in remaining:
            for c in cell_sets[i]:
                freq[c] = freq.get(c, 0) + 1
        best = max(sorted(freq), key=lambda c: freq[c])
        chosen.append(best)
        remaining = [i for i in remaining if best not in cell_sets[i]]
    return chosen


def max_disjoint_transversals(
    H: Hypercube,
    cap: int | None = None,
    budget: SearchBudget | None = None,
) -> PackingResult:
    """A maximum-cardinality family of pairwise disjoint transversals.

    Enumerates all transversals, derives an upper bound from a greedy hitting
    set over them (valid because the enumeration is exhaustive), then packs by
    branch and bound grouped on hitting-set cells.  The optimality flag is set
    only when the bound is met or the packing tree was exhausted."""
    _require_latin(H)
    budget = budget or SearchBudget()
    all_t: list[tuple[RawEntry, ...]] = []
    enum_exhausted = False
    gauge = _Gauge(budget)
    try:
        for raw in _dfs(H, gauge, transversal=True):
            all_t.append(raw)
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
    """Extend a partial diagonal to a complete one avoiding the forbidden cells.

    Returns None when no completion exists (exhaustive); raises
    BudgetExhausted when undecided."""
    budget = budget or SearchBudget()
    gauge = _Gauge(budget)
    pre = [(tuple(c), H[c]) for c in partial_cells]
    forb = frozenset(tuple(c) for c in forbidden) - {tuple(c) for c in partial_cells}
    for raw in _dfs(H, gauge, transversal=False, pre=pre, forbidden=forb):
        return _raw_to_diagonal(raw, H.n)
    return None


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
    X | U, and answers True iff no branch completes.  When U covers X the only
    branch is the empty one, whose sum is zero, so a nonzero target is decided
    without search.

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
    forbidden = X | U
    gauge = _Gauge(budget)
    used: list[set[int]] = [set() for _ in range(H.d)]
    branch: list[RawEntry] = []

    def completes(start: int, total: Element) -> bool:
        gauge.tick()
        if total == target:
            for _ in _dfs(H, gauge, transversal=False, pre=branch, forbidden=forbidden):
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
