"""Exact search over diagonals and transversals.

The enumeration engine is a depth-first search over rows (axis-1 values in
increasing order); within a row, candidate coordinates are tried in increasing
lexicographic order on the remaining axes.  This fixes a deterministic output
order.  Occupancy is tracked per axis and per symbol.

Absence results (bachelor cells, hitting-set certificates, packing optimality)
are only reported when the relevant search tree ran to exhaustion within
budget; otherwise results carry an explicit exhausted flag or raise
BudgetExhausted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExhausted(f"node budget {self.max_nodes} exhausted")
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
    yield from _enumerate(H, budget, transversal=True)


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
    target_idx = None
    dlist = None
    add_tab = None
    if target_sum is not None:
        target_idx = group.index(group.reduce(target_sum))
        dlist = profile(H, group).indices.tolist()
        add_tab = index_add_table(group).tolist()
    yield from _enumerate(
        H,
        budget,
        transversal=False,
        target_idx=target_idx,
        dlist=dlist,
        add_tab=add_tab,
    )


def _enumerate(
    H: Hypercube,
    budget: SearchBudget,
    *,
    transversal: bool,
    target_idx: int | None = None,
    dlist=None,
    add_tab=None,
) -> Iterator[Diagonal]:
    def matches(raw: tuple[RawEntry, ...]) -> bool:
        if target_idx is None:
            return True
        total = 0
        for coords, _sym in raw:
            node = dlist
            for c in coords:
                node = node[c]
            total = add_tab[total][node]
        return total == target_idx

    emitted = 0
    gauge = _Gauge(budget)
    for raw in _dfs(H, gauge, transversal=transversal):
        if matches(raw):
            yield _raw_to_diagonal(raw, H.n)
            emitted += 1
            if budget.max_results is not None and emitted >= budget.max_results:
                raise BudgetExhausted("result budget reached", partial=emitted)


def transversal_through(
    H: Hypercube,
    cell: Coords,
    budget: SearchBudget | None = None,
) -> Diagonal | None:
    """A transversal containing the cell, or None if provably absent.

    Raises BudgetExhausted when the budget runs out before either outcome."""
    _require_latin(H)
    budget = budget or SearchBudget()
    gauge = _Gauge(budget)
    cell = tuple(int(c) for c in cell)
    raw = _find_transversal_through(H, cell, gauge)
    return None if raw is None else _raw_to_diagonal(raw, H.n)


def _find_transversal_through(H: Hypercube, cell: Coords, gauge: _Gauge):
    pre = [(cell, H[cell])]
    for raw in _dfs(H, gauge, transversal=True, pre=pre):
        return raw
    return None


@dataclass
class BachelorScan:
    """Cells proven to lie on no transversal."""

    bachelor_cells: tuple[Coords, ...]
    exhaustive: bool
    checked_cells: int
    nodes: int


def bachelor_cells(H: Hypercube, budget: SearchBudget | None = None) -> BachelorScan:
    """Classify every cell by whether some transversal passes through it.

    Cells covered by a previously found transversal are skipped; each
    remaining cell gets its own exhaustive through-cell search.  A partial
    scan (budget ran out) is flagged, never silently truncated."""
    _require_latin(H)
    budget = budget or SearchBudget()
    gauge = _Gauge(budget)
    covered: set[Coords] = set()
    bachelors: list[Coords] = []
    checked = 0
    for cell in H.cells():
        if cell in covered:
            checked += 1
            continue
        try:
            raw = _find_transversal_through(H, cell, gauge)
        except BudgetExhausted:
            return BachelorScan(tuple(bachelors), False, checked, gauge.nodes)
        checked += 1
        if raw is None:
            bachelors.append(cell)
        else:
            covered.update(c for c, _ in raw)
    return BachelorScan(tuple(bachelors), True, checked, gauge.nodes)


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
