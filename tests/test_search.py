import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from transversal_lab import search
from transversal_lab.constructions import (
    bachelor_forbidden_region,
    confirmed_bachelor,
    l8_square,
    ord6m_square,
    ord6m_starred_cells,
    ord8_blocking_cells,
    ord8_square,
    third_species_44,
    third_species_blocked_cells,
    turned_cyclic,
    turned_region,
    z6_isotope_square,
)
from transversal_lab.delta import delta, delta_sum, profile, suitable_target
from transversal_lab.dilation import dilate, transfer_hitting_set
from transversal_lab.extension import (
    g_extension,
    hall_pair,
    transversal_through_fibre,
)
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import (
    Diagonal,
    Entry,
    Hypercube,
    apply_isotopy,
    cyclic,
    is_latin,
    pairwise_disjoint_family,
)
from transversal_lab.oracles import (
    all_latin_squares,
    brute_diagonals,
    brute_max_disjoint,
    brute_target_diagonals,
    brute_transversals,
)
from transversal_lab.search import (
    BudgetExhausted,
    SearchBudget,
    bachelor_cells,
    count_diagonals,
    count_transversals,
    enumerate_diagonals,
    enumerate_transversals,
    hill_climb_decomposition,
    hitting_set_check,
    max_disjoint_transversals,
    transversal_through,
)
from transversal_lab.reports import cell_from_json, diagonal_from_json


def test_enumerate_diagonals_counts_match_oracle():
    H = cyclic(cyclic_group(3), 2)
    with_target = list(enumerate_diagonals(H, (0,)))
    assert len(with_target) == 6


def test_enumerate_diagonals_with_nonzero_target():
    H = ord6m_square(1)
    listed = [frozenset(D.cells()) for D in enumerate_diagonals(H, (3,))]
    assert len(listed) == len(set(listed))
    oracle = {frozenset(c) for c in brute_target_diagonals(H.symbols, 3)}
    assert set(listed) == oracle and listed


def test_enumerate_transversals_counts():
    assert sum(1 for _ in enumerate_transversals(cyclic(cyclic_group(3), 2))) == 3
    assert sum(1 for _ in enumerate_transversals(cyclic(cyclic_group(4), 4))) == 0
    assert sum(1 for _ in enumerate_transversals(cyclic(cyclic_group(2), 3))) == 4


def test_enumerated_witnesses_revalidate():
    for H in [cyclic(cyclic_group(3), 2), turned_cyclic(4, 4)]:
        for D in enumerate_transversals(H):
            assert Diagonal.from_entries(H, D.entries, transversal=True).complete


def test_enumeration_is_deterministic():
    H = turned_cyclic(4, 4)
    first = [D.cells() for D in enumerate_transversals(H)]
    second = [D.cells() for D in enumerate_transversals(H)]
    assert first == second


def test_ord8_target_diagonals_hit_blocking_pair():
    H = ord8_square()
    pair = set(ord8_blocking_cells())
    count = 0
    for D in enumerate_diagonals(H, (4,)):
        assert set(D.cells()) & pair
        count += 1
    assert count > 0


def test_transversal_through_absent_on_blocked_cells():
    H = confirmed_bachelor(4, 4)
    assert transversal_through(H, (0, 0, 0, 0)) is None
    assert transversal_through(H, (1, 0, 1, 0)) is None


def test_transversal_through_present():
    H = third_species_44()
    T = transversal_through(H, (3, 1, 2, 0))
    assert T is not None and (3, 1, 2, 0) in T.cells()
    assert Diagonal.from_entries(H, T.entries, transversal=True).complete


def test_transversal_through_every_cell_of_the_dilated_l8_within_budget():
    # filling the most constrained row first takes at most 6,584 nodes for a
    # cell of this order-16 square; filling rows in order took 1,058,715 at
    # (6, 12)
    D = dilate(l8_square(), 2)
    for cell in D.cells():
        T = transversal_through(D, cell, SearchBudget(max_nodes=20_000))
        assert T is not None and cell in T.cells()
        assert Diagonal.from_entries(D, T.entries, transversal=True).complete


def test_existence_searches_keep_their_node_counts(monkeypatch):
    # the existence searches fill the row with the fewest fitting cells first:
    # the 256 through-cell searches of the dilated l8 place 15,981 cells in
    # all (298,960 filling rows in order), and the per-cell scan of
    # third-species 4,4 places 6,392
    D = dilate(l8_square(), 2)
    assert _ticks(monkeypatch, lambda: [transversal_through(D, c) for c in D.cells()]) == 15_981
    gauge = search._Gauge(SearchBudget())
    search._per_cell_scan(third_species_44(), gauge)
    assert gauge.nodes == 6_392


def test_through_cell_searches_on_one_cube_build_its_cells_once(monkeypatch):
    builds = []
    build = search._Cells.of

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(search._Cells, "of", counted)
    search._cube_cells.cache_clear()
    H = third_species_44()
    for cell in H.cells():
        T = transversal_through(H, cell)
        assert T is None or cell in T.cells()
    assert builds == [H]
    # an equal cube read again shares the build; another cube gets its own
    transversal_through(Hypercube(H.symbols), (0, 0, 0, 0))
    transversal_through(confirmed_bachelor(4, 4), (0, 0, 0, 0))
    assert len(builds) == 2


def test_transversal_through_budget_exhaustion_is_distinct():
    H = confirmed_bachelor(4, 4)
    with pytest.raises(BudgetExhausted):
        transversal_through(H, (0, 0, 0, 0), SearchBudget(max_nodes=5))


def test_bachelor_cells_empty_for_small_cyclic():
    scan = bachelor_cells(cyclic(cyclic_group(3), 2))
    assert scan.exhaustive and scan.bachelor_cells == ()


def test_bachelor_cells_partial_flag_on_tiny_budget():
    H = confirmed_bachelor(4, 4)
    scan = bachelor_cells(H, SearchBudget(max_nodes=50))
    assert not scan.exhaustive


def test_bachelor_cells_known_regions():
    scan = bachelor_cells(third_species_44())
    assert scan.exhaustive
    assert set(scan.bachelor_cells) == {e.coords for e in third_species_blocked_cells()}
    # the paper's order-4 cube of dimension 6: its 2**6 corner cells, decided
    # on the layers B_0..B_4 in 28,234 states of both passes
    H = confirmed_bachelor(4, 6)
    scan = bachelor_cells(H)
    assert scan.exhaustive and scan.bachelor_cells == bachelor_forbidden_region(6)
    assert scan.nodes == 28_234
    layers = search._back_layers(H, search._Gauge(SearchBudget()))
    assert [len(keys) for keys in layers.keys] == [1, 2_016, 11_648, 1_024, 1]


def test_dfs_runs_above_64_fields():
    # cyclic Z33 at d=2 has 66 transversal fields, more than a uint64 holds,
    # so the through-cell search and the per-cell scan run on the DFS's int
    # bit sets
    H = cyclic(cyclic_group(33), 2)
    assert search._cell_fields(H, True).max() + 1 == 66
    T = transversal_through(H, (32, 5))
    assert T is not None and (32, 5) in T.cells()
    assert Diagonal.from_entries(H, T.entries, transversal=True).complete
    scan = bachelor_cells(H)
    assert scan.exhaustive and scan.bachelor_cells == ()
    assert scan.nodes == 71_883


def _uncovered_cells(H, covered):
    # the cells, in flat order, that a scan's (n, n**(d-1)) covered array leaves
    # uncovered
    return tuple(c for c, on in zip(H.cells(), covered.ravel().tolist()) if not on)


def _assert_bachelors_agree(H):
    # both scan engines against a DFS per cell and against the cells that the
    # brute-force oracle's transversals cover
    scan = bachelor_cells(H)
    assert scan.exhaustive and scan.checked_cells == H.n ** H.d
    frontier = _uncovered_cells(H, search._frontier_scan(H, search._Gauge(SearchBudget())))
    per_cell = _uncovered_cells(H, search._per_cell_scan(H, search._Gauge(SearchBudget())))
    dfs = tuple(c for c in H.cells() if transversal_through(H, c) is None)
    on_some = {c for cells in brute_transversals(H.symbols) for c in cells}
    brute = tuple(c for c in H.cells() if c not in on_some)
    assert scan.bachelor_cells == frontier == per_cell == dfs == brute


def test_bachelor_cells_match_dfs_and_brute_force_on_every_small_square(square_catalogue):
    for squares in square_catalogue.values():
        for arr in squares:
            _assert_bachelors_agree(Hypercube(arr))


def _random_isotope(H, seed):
    rng = random.Random(seed)
    perms = [rng.sample(range(H.n), H.n) for _ in range(H.d + 1)]
    return apply_isotopy(H, perms)


def _jacobson_matthews(n, seed, moves=None):
    """A random Latin square of order n >= 2: the Markov chain of Jacobson and
    Matthews (J. Combin. Des. 4, 1996), started from the cyclic square, run
    for ``moves`` moves (n**3 by default) and then until the square is proper.

    The square is its incidence cube M, M[r][c][s] = 1 iff cell (r, c) holds
    s, with every line summing to 1.  A move picks a 0 at (r, c, s), from a
    proper cube at random and from an improper one at its -1, and one r', c'
    and s' whose lines through it hold a 1 (at random among the two when
    improper); it adds 1 at (r, c, s) and the three points with two primed
    coordinates, and takes 1 from the three with one and from (r', c', s'),
    which becomes the next -1 if it held 0."""
    rng = random.Random(seed)
    M = [[[int((r + c) % n == s) for s in range(n)] for c in range(n)] for r in range(n)]
    improper = None
    for move in itertools.count():
        if improper is None and move >= (n ** 3 if moves is None else moves):
            break
        if improper is None:
            r, c, s = rng.choice([(r, c, s) for r in range(n) for c in range(n)
                                  for s in range(n) if not M[r][c][s]])
        else:
            r, c, s = improper
        r2 = rng.choice([x for x in range(n) if M[x][c][s] == 1])
        c2 = rng.choice([y for y in range(n) if M[r][y][s] == 1])
        s2 = rng.choice([z for z in range(n) if M[r][c][z] == 1])
        for (x, y, z), step in (((r, c, s), 1), ((r2, c2, s), 1), ((r2, c, s2), 1),
                                ((r, c2, s2), 1), ((r2, c, s), -1), ((r, c2, s), -1),
                                ((r, c, s2), -1), ((r2, c2, s2), -1)):
            M[x][y][z] += step
        improper = (r2, c2, s2) if M[r2][c2][s2] < 0 else None
    return Hypercube(np.array([[row.index(1) for row in plane] for plane in M]))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_jacobson_matthews_squares_are_latin_and_seeded(n):
    squares = [_jacobson_matthews(n, seed) for seed in range(6)]
    assert all(is_latin(H) for H in squares)
    assert _jacobson_matthews(n, 0) == squares[0]
    if n == 7:
        # the chain leaves the cyclic square and its isotopes: not every
        # deviation is zero
        assert len({H.symbols.tobytes() for H in squares}) == 6
        assert all(profile(H).support for H in squares)


_BACHELOR_CASES = {
    **{f"cyclic-{n}-d{d}": (lambda n=n, d=d: cyclic(cyclic_group(n), d))
       for n in (2, 3) for d in (2, 3, 4)},
    "confirmed-bachelor-4-4": lambda: confirmed_bachelor(4, 4),
    "third-species-44": third_species_44,
    **{f"{name}-seed{seed}": (lambda base=base, seed=seed: _random_isotope(base(), seed))
       for name, base in (("l8", l8_square), ("z6-isotope", z6_isotope_square),
                          ("ord6m-1", lambda: ord6m_square(1)))
       for seed in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(_BACHELOR_CASES))
def test_bachelor_cells_match_dfs_and_brute_force(name):
    _assert_bachelors_agree(_BACHELOR_CASES[name]())


def test_bachelor_cells_budget_never_claims_absence():
    H = confirmed_bachelor(4, 4)
    full = bachelor_cells(H)
    total = full.nodes
    for max_nodes in (1, total // 4, total // 2, 3 * total // 4, total - 1):
        scan = bachelor_cells(H, SearchBudget(max_nodes=max_nodes))
        assert (scan.bachelor_cells, scan.exhaustive, scan.checked_cells) == ((), False, 0)
    assert bachelor_cells(H, SearchBudget(max_nodes=total)) == full


def test_bachelor_cells_runs_the_dp_where_its_worst_case_is_small():
    # Z10 has no transversal: 13,606 frontier states decide all 100 cells,
    # where one search per cell takes about 2.8 million nodes
    H = cyclic(cyclic_group(10), 2)
    scan = bachelor_cells(H, SearchBudget(max_nodes=20_000))
    assert scan.exhaustive and scan.bachelor_cells == tuple(H.cells())


def test_bachelor_cells_searches_per_cell_on_large_cubes():
    # Z15 is transversal-rich: early-exit searches through the cells no found
    # transversal covers take 1,226 nodes (4,008 without skipping covered
    # cells), where the frontier DP would expand about 1.4e7 states
    H = cyclic(cyclic_group(15), 2)
    scan = bachelor_cells(H, SearchBudget(max_nodes=60_000))
    assert scan.exhaustive and scan.bachelor_cells == () and scan.checked_cells == 225
    cut = bachelor_cells(H, SearchBudget(max_nodes=10))
    assert (cut.bachelor_cells, cut.exhaustive, cut.checked_cells) == ((), False, 0)


def test_truncated_search_reports_exactly_max_nodes():
    scan = bachelor_cells(confirmed_bachelor(4, 4), SearchBudget(max_nodes=50))
    assert not scan.exhaustive and scan.nodes == 50
    gauge = search._Gauge(SearchBudget(max_nodes=3))
    for _ in range(3):
        gauge.tick()
    with pytest.raises(BudgetExhausted):
        gauge.tick()
    assert gauge.nodes == 3
    # a count that does not fit fills the budget, as its ticks one by one would
    gauge = search._Gauge(SearchBudget(max_nodes=10))
    gauge.tick(4)
    gauge.tick(6)
    with pytest.raises(BudgetExhausted):
        gauge.tick(1)
    gauge = search._Gauge(SearchBudget(max_nodes=10))
    gauge.tick(4)
    with pytest.raises(BudgetExhausted):
        gauge.tick(7)
    assert gauge.nodes == 10


# the layer sizes of three cubes: the backward layers B_n, ..., B_1 (states
# expanded by a count) and the forward layers L_0, ..., L_{n-1} (the bachelor
# sweep's), with the full counts of each search, the number of transversals
# and the nodes of listing them all off the layers
_LAYER_CUTS = {
    "confirmed-bachelor-4-4": (lambda: confirmed_bachelor(4, 4),
                               [1, 64, 320, 120], [1, 56, 272, 64], 505, 898, 3_840, 1_522),
    "cyclic-7": (lambda: cyclic(cyclic_group(7), 2),
                 [1, 7, 35, 112, 168, 63, 7], [1, 7, 35, 105, 105, 35, 7], 393, 688, 133, 807),
    "turned-cyclic-4-4": (lambda: turned_cyclic(4, 4),
                          [1, 64, 448, 120], [1, 64, 272, 64], 633, 1_034, 1_280, 1_402),
}


@pytest.mark.parametrize("name", sorted(_LAYER_CUTS))
def test_budget_running_out_inside_a_layer(name):
    # a layer's states are ticked in one step, and a budget that ends inside
    # it, at its boundary or one past it cuts the search with exactly
    # max_nodes counted and decides nothing
    make, back, forward, count_nodes, scan_nodes, _, _ = _LAYER_CUTS[name]
    H = make()
    layers = search._back_layers(H, search._Gauge(SearchBudget()))
    assert [len(keys) for keys in reversed(layers.keys[1:])] == back
    assert count_transversals(H).nodes == count_nodes == sum(back)
    assert bachelor_cells(H).nodes == scan_nodes == sum(back) + sum(forward)
    bounds = list(itertools.accumulate(back + forward))
    caps = {1, scan_nodes - 1} | {b + e for b in bounds for e in (-1, 0, 1)}
    for cap in sorted(c for c in caps if 0 < c < scan_nodes):
        scan = bachelor_cells(H, SearchBudget(max_nodes=cap))
        assert (scan.bachelor_cells, scan.exhaustive, scan.nodes) == ((), False, cap), cap
        if cap < count_nodes:
            census = count_transversals(H, SearchBudget(max_nodes=cap))
            assert (census.count, census.exact, census.nodes) == (0, False, cap), cap


@pytest.mark.parametrize("name", sorted(_LAYER_CUTS))
def test_full_layer_listing_keeps_its_node_count(name):
    # the layers' states plus one node per partial transversal extended by a
    # row other than the last, however the partials are grouped into blocks
    make, back, _, _, _, results, nodes = _LAYER_CUTS[name]
    H = make()
    gauge = search._Gauge(SearchBudget())
    listed = search._Table(H.n).fill(*search._results(H, gauge))
    assert (len(listed), gauge.nodes) == (results, nodes)
    assert nodes > sum(back)


def test_layers_at_the_64_bit_extremes():
    # an order-1 cube of numpy's 64 dimensions fills all 64 bits of a state;
    # Z2 at d=13 is the widest state (26 bits) of order n >= 2 within the
    # bound, and Z12 has no transversal, so every cell is a bachelor
    H = Hypercube(np.zeros((1,) * 64, dtype=np.int64))
    assert search._layer_work(1, 64, None) <= search._WORK_BOUND
    assert count_transversals(H) == search.Census(1, (), True, 1)
    assert bachelor_cells(H) == search.BachelorScan((), True, 1, 2)
    z2 = cyclic(cyclic_group(2), 13)
    assert count_transversals(z2) == search.Census(4_096, (), True, 4_097)
    assert bachelor_cells(z2) == search.BachelorScan((), True, 2 ** 13, 8_194)
    z12 = cyclic(cyclic_group(12), 2)
    scan = bachelor_cells(z12)
    assert (scan.nodes, scan.exhaustive) == (166_960, True)
    assert scan.bachelor_cells == tuple(z12.cells())


def test_layers_do_not_depend_on_the_chunk_size(monkeypatch):
    # one (state, cell) pair per chunk, a few, and the default size give the
    # same layers, counts, bachelor cells, listings (with their nodes) and
    # census witnesses, for transversals and target sums: the listing goes on
    # across chunk boundaries, and a census stops at its witnesses
    cubes = [confirmed_bachelor(4, 4), z6_isotope_square(), cyclic(cyclic_group(5), 3)]

    def layers_of(H):
        targets = [None] + [search._TargetSum.of(H, (t,)) for t in range(H.n)]
        built, listings = [], []
        for t in targets:
            gauge = search._Gauge(SearchBudget())
            built.append(search._back_layers(H, gauge, t))
            blocks = list(search._array_listing(built[-1], gauge))
            listings.append((search._Table(H.n).fill(None, blocks).tolist(), gauge.nodes))
        witnesses = [census.witnesses
                     for keep in (1, 2, 8)
                     for census in (count_transversals(H, keep=keep),
                                    *(count_diagonals(H, (t,), keep=keep)
                                      for t in range(H.n)))]
        return ([(k.tolist(), w.tolist()) for L in built for k, w in zip(L.keys, L.ways)],
                bachelor_cells(H), listings, witnesses)

    expected = [layers_of(H) for H in cubes]
    for chunk in (1, 7, 64):
        monkeypatch.setattr(search, "_CHUNK_PAIRS", chunk)
        assert [layers_of(H) for H in cubes] == expected, chunk


# block lengths and nodes of listings off the layers, recorded before a full
# listing found each distinct state's completions once per row: the full
# listing's blocks (the layers' nodes included) and, for census limits of 1, 7
# and 8, the census nodes (each such listing is one block of that length)
_LISTING_BLOCKS = {
    "cyclic-11": (lambda: cyclic(cyclic_group(11), 2), 207_946,
                  [5957, 54, 326, 1441, 5957, 52, 293, 201, 5957, 64, 337,
                   1291, 5957, 67, 347, 332, 5957, 72, 386, 1326, 1477],
                  {1: 47_278, 7: 47_332, 8: 47_341}),
    "cyclic-5-d3": (lambda: cyclic(cyclic_group(5), 3), 2_627, [2621, 704],
                    {1: 455, 7: 473, 8: 476}),
}


@pytest.mark.parametrize("name", sorted(_LISTING_BLOCKS))
def test_listing_blocks_and_nodes_are_unchanged(name):
    make, nodes, blocks, census_nodes = _LISTING_BLOCKS[name]
    H = make()
    gauge = search._Gauge(SearchBudget())
    layers = search._back_layers(H, gauge)
    assert [len(block) for block in search._array_listing(layers, gauge)] == blocks
    assert gauge.nodes == nodes
    for keep, expected in census_nodes.items():
        gauge = search._Gauge(SearchBudget())
        listed = list(search._array_listing(search._back_layers(H, gauge), gauge, keep))
        assert ([len(block) for block in listed], gauge.nodes) == ([keep], expected)
        census = count_transversals(H, keep=keep)
        assert (len(census.witnesses), census.nodes) == (keep, expected)


def _looked_up(monkeypatch, run):
    # the number of states that ``run`` looks up in the layers
    looked, lookup = 0, search._lookup

    def counting(keys, states):
        nonlocal looked
        looked += np.size(states)
        return lookup(keys, states)

    with monkeypatch.context() as mp:
        mp.setattr(search, "_lookup", counting)
        run()
    return looked


def test_full_listing_looks_up_no_more_states_than_the_sweep(monkeypatch):
    # each distinct state's completing children are found once per row, so
    # listing all 37,851 transversals of cyclic Z11 looks up no more states
    # than the bachelor sweep over the same layers (it looked up 318,154 when
    # each partial result found its own)
    z11 = cyclic(cyclic_group(11), 2)
    layers = search._back_layers(z11, search._Gauge(SearchBudget()))
    listing = _looked_up(monkeypatch, lambda: sum(
        map(len, search._array_listing(layers, search._Gauge(SearchBudget())))))
    sweep = _looked_up(monkeypatch, lambda: search._frontier_scan(
        z11, search._Gauge(SearchBudget())))
    assert listing == 91_037 <= sweep


def test_kept_children_stay_within_the_layers_states(monkeypatch):
    # a full listing keeps at most as many children as its layers have
    # states (the room; _CHUNK_PAIRS when that is more) and finds the
    # children of the states met after the room is full again at each
    # meeting: with 200 pairs a chunk, listing cyclic Z11 (60,885 children in
    # its forward sweep, 47,269 states) fills the room and lists the same
    # results as with the default chunk
    z11 = cyclic(cyclic_group(11), 2)
    expected = search._Table(11).fill(*search._results(z11, search._Gauge(SearchBudget())))
    made = []

    class Spied(search._Kept):
        def __init__(self, layers):
            super().__init__(layers)
            made.append(self)

    monkeypatch.setattr(search, "_Kept", Spied)
    monkeypatch.setattr(search, "_CHUNK_PAIRS", 200)
    listed = search._Table(11).fill(*search._results(z11, search._Gauge(SearchBudget())))
    assert np.array_equal(listed, expected)
    (kept,) = made
    states = sum(map(len, kept.layers.keys))
    assert kept.room == states == 47_269
    assert states - 200 < kept.size <= states
    assert kept.edges.shape[1] <= states + 200


def test_cover_masks_match_a_plain_reference():
    # bit t of the matrix's row c is set iff transversal t passes through
    # cell c, for transversal counts on and off byte boundaries, within one
    # word and past it, and at d = 3; the cover holds the listing itself, not
    # a copy; the table that holds it is allocated once, at the layers' count
    for H in (cyclic(cyclic_group(5), 3), turned_cyclic(4, 4), cyclic(cyclic_group(7), 2)):
        table = search._Table(H.n)
        every = table.fill(*search._results(H, search._Gauge(SearchBudget())))
        assert len(table.rows) == len(every) == count_transversals(H).count
        per_row = H.symbols.size // H.n
        for count in (1, 5, 8, 13, 100, len(every)):
            listed = every[:count]
            cover = search._cover(H, listed, search._Gauge(SearchBudget()))
            assert cover.listed is listed
            masks = [0] * H.symbols.size
            for t, cells in enumerate(listed.tolist()):
                for r, i in enumerate(cells):
                    masks[r * per_row + i] |= 1 << t
            rows = [int.from_bytes(row.tobytes(), "little") for row in cover.matrix]
            assert rows == masks, count


def test_listing_the_first_results_builds_no_more_than_the_layers():
    # the first 2,000 target-sum diagonals of a Z15 isotope wait for no whole
    # row or whole sweep: listing them adds at most about the size of the
    # layers to the traced peak of building them (a full forward sweep of
    # this cube's layers holds about 41 MB of edges, the layers 7.7 MB)
    H = _random_isotope(cyclic(cyclic_group(15), 2), 1)
    target = search._TargetSum.of(H, (0,))
    layers = search._back_layers(H, search._Gauge(SearchBudget()), target)
    size = sum(keys.nbytes + ways.nbytes for keys, ways in zip(layers.keys, layers.ways))
    del layers
    tracemalloc.start()
    try:
        search._back_layers(H, search._Gauge(SearchBudget()), target)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        first = list(itertools.islice(enumerate_diagonals(H, (0,)), 2_000))
        listing = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 2_000
    assert listing <= build + size


# the cubes of the pair-finding test, on both sides of its rule for trying only
# the cells whose axis values are free: every call at d = 2 and on small rows
# takes the AND with all the cells of the row, the large rows of the d >= 3
# cubes take the product of the free values
_FITTING_CUBES = {
    "order-1-d64": lambda: Hypercube(np.zeros((1,) * 64, dtype=np.int64)),
    "cyclic-2-d13": lambda: cyclic(cyclic_group(2), 13),
    "cyclic-3-d8": lambda: cyclic(cyclic_group(3), 8),
    "cyclic-10": lambda: cyclic(cyclic_group(10), 2),
    "cyclic-5-d3": lambda: cyclic(cyclic_group(5), 3),
    "confirmed-bachelor-4-4": lambda: confirmed_bachelor(4, 4),
    "confirmed-bachelor-4-6": lambda: confirmed_bachelor(4, 6),
    "turned-cyclic-4-4": lambda: turned_cyclic(4, 4),
}


@pytest.mark.parametrize("name", sorted(_FITTING_CUBES))
def test_fitting_yields_the_pairs_of_the_and_with_every_cell(monkeypatch, name):
    # every call of the layer builder, the bachelor sweep and the block
    # listing, for transversals and target sums, yields the pairs of the AND
    # of each state with every cell of the row, in its order, chunk by chunk
    H = _FITTING_CUBES[name]()
    fitting, calls = search._fitting, []

    def checked(states, masks):
        chunks = list(fitting(states, masks))
        step = max(1, search._CHUNK_PAIRS // masks.size)
        assert len(chunks) == -(-len(states) // step)
        for j, (si, ci) in enumerate(chunks):
            assert ((j * step <= si) & (si < (j + 1) * step)).all()
        want = ((states[:, None] & masks.reshape(-1)) == 0).nonzero()
        got = [np.concatenate(part) for part in zip(*chunks)] or want
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        calls.append(len(states))
        yield from chunks

    monkeypatch.setattr(search, "_fitting", checked)
    scan = bachelor_cells(H)
    assert scan.exhaustive and len(calls) == 2 * H.n
    for target in (None, search._TargetSum.of(H, (0,))):
        gauge = search._Gauge(SearchBudget())
        layers = search._back_layers(H, gauge, target)
        if layers.count:  # cyclic Z10 has no transversal to list
            before = len(calls)
            listed = sum(map(len, search._array_listing(layers, gauge, 3_000)))
            assert listed == min(layers.count, 3_000) and len(calls) >= before + H.n


def test_shape_tables_are_shared_safely_between_cubes():
    # one read-only table per (n, d) serves every cube of that shape: listings
    # of squares and cubes of one shape and of several, interleaved in one
    # process, each equal brute force, and no cached array can be written
    squares = all_latin_squares(4)[::45] + all_latin_squares(3)[::4]
    cubes = [cyclic(cyclic_group(3), 3), turned_cyclic(4, 4), confirmed_bachelor(4, 4),
             cyclic(cyclic_group(2), 4), third_species_44()]
    order = [*squares, *cubes]
    random.Random(5).shuffle(order)
    hits = search._shape.cache_info().hits
    for _ in range(2):
        for H in order:
            H = Hypercube(H) if isinstance(H, np.ndarray) else H
            naive = {frozenset(c) for c in brute_transversals(H.symbols)}
            assert {D.cell_set() for D in enumerate_transversals(H)} == naive
    assert search._shape.cache_info().hits > hits + len(order)
    for H in (Hypercube(squares[0]), *cubes):
        fields = (search._cell_fields(H, True), search._cell_fields(H, False))
        target = search._TargetSum.of(H, (0,))
        masks = search._back_layers(H, search._Gauge(SearchBudget()), target).masks
        for part in (*search._shape(H.n, H.d), *fields, masks):
            with pytest.raises(ValueError):
                part[(0,) * part.ndim] = 0
    assert search._shape(4, 4).bits.tolist() == [1 << b for b in range(12)]
    assert search._shape(4, 4).place.tolist() == [16, 4, 1]


def test_fitting_refuses_states_with_unequal_free_counts():
    # B_2 of confirmed-bachelor 4,6 has two free values on each axis; moving
    # one taken bit of a state from axis 1 to axis 2 keeps its free bits in
    # number but leaves three values on axis 1 and one on axis 2, which the
    # product of its free values would mix up
    H = confirmed_bachelor(4, 6)
    layers = search._back_layers(H, search._Gauge(SearchBudget()))
    states, masks = layers.keys[2].copy(), layers.masks[1]
    assert sum(len(si) for si, _ in search._fitting(states, masks)) > 0
    state = int(states[-1])
    taken = next(b for b in range(4) if state >> b & 1)
    free = next(b for b in range(4, 8) if not state >> b & 1)
    states[-1] = state ^ (1 << taken) ^ (1 << free)
    with pytest.raises(ValueError):
        list(search._fitting(states, masks))


def test_every_cube_within_the_bounds_fits_64_bits(monkeypatch):
    # the array layers hold a state in a uint64 and its ways in an int64:
    # every (n, d) within the bound fits, for either kind, the widest state
    # of order n >= 2 has 26 bits, and the layer builder asserts the fit
    widest = 0
    for n in range(1, 30):
        for d in range(2, 65):
            if search._layer_work(n, d, None) <= search._WORK_BOUND:
                assert search._fits_64_bits(n, d, None), (n, d)
                if n > 1:
                    widest = max(widest, d * n)
            if d > 1 and search._layer_work(n, d, n) <= search._WORK_BOUND:
                assert search._fits_64_bits(n, d, n), (n, d)
    assert widest == 26 == 13 * 2
    assert search._fits_64_bits(1, 64, None) and search._fits_64_bits(1, 64, 1)
    assert not search._fits_64_bits(2, 33, None)  # 66 bits
    assert not search._fits_64_bits(21, 2, None)  # 21! ways overflow int64
    assert search._fits_64_bits(20, 2, None)
    monkeypatch.setattr(search, "_WORK_BOUND", 1 << 200)
    with pytest.raises(AssertionError):
        count_transversals(cyclic(cyclic_group(21), 2))
    with pytest.raises(AssertionError):
        bachelor_cells(cyclic(cyclic_group(21), 2))


def test_layer_builder_asserts_the_64_bit_fit_before_any_tick():
    # 21! and 22! ways overflow int64: the builder refuses Z21's transversal
    # layers and Z22's target-sum layers itself, whichever caller reaches it
    z21, z22 = cyclic(cyclic_group(21), 2), cyclic(cyclic_group(22), 2)
    for H, target in ((z21, None), (z22, search._TargetSum.of(z22, (0,)))):
        gauge = search._Gauge(SearchBudget(max_nodes=1_000))
        with pytest.raises(AssertionError):
            search._back_layers(H, gauge, target)
        assert gauge.nodes == 0


@functools.lru_cache(maxsize=1)
def _brute_by_sum(H):
    # one pass over every diagonal of H, kept for the cube last asked about:
    # the transversals, and the diagonals by deviation sum, with the oracles'
    # own tests (distinct symbols, as brute_transversals, and symbol minus
    # coordinate sum added up mod n, as brute_target_diagonals)
    arr, n = H.symbols, H.n
    transversals, by_sum = [], [[] for _ in range(n)]
    for cells in brute_diagonals(arr):
        symbols = [int(arr[c]) for c in cells]
        if len(set(symbols)) == n:
            transversals.append(cells)
        by_sum[sum(s - sum(c) for s, c in zip(symbols, cells)) % n].append(cells)
    return transversals, by_sum


def test_brute_by_sum_matches_the_oracles():
    for H in (cyclic(cyclic_group(3), 3), z6_isotope_square(), ord6m_square(1)):
        assert _brute_by_sum(H) == (
            brute_transversals(H.symbols),
            [brute_target_diagonals(H.symbols, t) for t in range(H.n)])


def _dfs_only(monkeypatch):
    # every cube is above a bound of 0, so both counts run on the DFS alone
    monkeypatch.setattr(search, "_WORK_BOUND", 0)


def _assert_census(census, listed, keep):
    assert census.exact and census.count == len(listed)
    assert census.witnesses == tuple(listed[:keep])


def _assert_counts_agree(H, targets, keep=3):
    # the stored layers' count, the DFS listing, the census on either engine
    # and the brute-force oracle all count the same results
    listed = list(enumerate_transversals(H))
    layers = search._back_layers(H, search._Gauge(SearchBudget()))
    transversals, by_sum = _brute_by_sum(H)
    assert layers.count == len(listed) == len(transversals)
    _assert_census(count_transversals(H, keep=keep), listed, keep)
    with pytest.MonkeyPatch.context() as mp:
        _dfs_only(mp)
        _assert_census(count_transversals(H, keep=keep), listed, keep)
    for t in targets:
        listed = list(enumerate_diagonals(H, (t,)))
        target = search._TargetSum.of(H, (t,))
        layers = search._back_layers(H, search._Gauge(SearchBudget()), target)
        assert layers.count == len(listed) == len(by_sum[t]), t
        _assert_census(count_diagonals(H, (t,), keep=keep), listed, keep)
        with pytest.MonkeyPatch.context() as mp:
            _dfs_only(mp)
            _assert_census(count_diagonals(H, (t,), keep=keep), listed, keep)


def test_counts_match_dfs_and_brute_force_on_every_small_square(square_catalogue):
    for n, squares in square_catalogue.items():
        for arr in squares:
            _assert_counts_agree(Hypercube(arr), range(n))


_COUNT_CASES = {
    **{f"cyclic-{n}-d{d}": (lambda n=n, d=d: cyclic(cyclic_group(n), d))
       for n in (2, 3, 4, 5) for d in (3, 4)},
    **{f"{name}-seed{seed}": (lambda base=base, seed=seed: _random_isotope(base(), seed))
       for name, base in (("l8", l8_square), ("z6-isotope", z6_isotope_square),
                          ("ord6m-1", lambda: ord6m_square(1)))
       for seed in (1, 2)},
    **{f"jm-7-seed{seed}": (lambda seed=seed: _jacobson_matthews(7, seed)) for seed in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(_COUNT_CASES))
def test_counts_match_dfs_and_brute_force(name):
    H = _COUNT_CASES[name]()
    targets = range(H.n)
    if name.startswith("cyclic"):
        # every deviation of a cyclic cube is zero, so all (n!)**(d-1)
        # diagonals have sum 0 and none has another sum; the DFS and the
        # oracle then check one target of each kind
        gauge = search._Gauge(SearchBudget())
        counts = [search._back_layers(H, gauge, search._TargetSum.of(H, (t,))).count
                  for t in targets]
        assert counts == [math.factorial(H.n) ** (H.d - 1)] + [0] * (H.n - 1)
        targets = (0, 1)
    if name == "cyclic-5-d4":
        # 1.7 million diagonals and 321,375 transversals: listing or brute
        # force would take minutes, so the DFS only counts the transversals
        dp = count_transversals(H)
        with pytest.MonkeyPatch.context() as mp:
            _dfs_only(mp)
            dfs = count_transversals(H)
        assert dp.exact and dfs.exact and dp.count == dfs.count == 321_375
        return
    if H.n == 8:
        # each target lists all 40,320 diagonals three times over
        targets = (H.n // 2,)
    _assert_counts_agree(H, targets)


def test_count_transversals_runs_the_dp_where_its_worst_case_is_small():
    # Z10 has no transversal: 13,606 frontier states count them, where the
    # DFS needs 63,250 nodes
    census = count_transversals(cyclic(cyclic_group(10), 2), SearchBudget(max_nodes=20_000))
    assert census == search.Census(0, (), True, 13_606)
    # cyclic Z3 d=8: 185,895 transversals in 4,375 states
    census = count_transversals(cyclic(cyclic_group(3), 8))
    assert census == search.Census(185_895, (), True, 4_375)


def test_count_diagonals_runs_the_dp_where_its_worst_case_is_small():
    # L8 has no diagonal with sum 4: 506 states count them, where the DFS
    # needs 109,600 nodes
    census = count_diagonals(l8_square(), (4,), SearchBudget(max_nodes=1_000))
    assert census == search.Census(0, (), True, 506)


def test_census_with_witnesses_needs_no_search_on_a_cube_without_results():
    # cyclic Z6 d=4 has no transversal: the layers decide it in 43,972 states,
    # where a DFS listing the witnesses first spent 3,000,000 nodes undecided
    H = cyclic(cyclic_group(6), 4)
    census = count_transversals(H, SearchBudget(max_nodes=50_000), keep=8)
    assert (census.count, census.witnesses, census.exact) == (0, (), True)
    assert census.nodes == 43_972


def test_counts_run_the_dfs_above_the_dp_bound():
    # the DP would spend the whole node budget on its first layers and count
    # nothing beyond the (no) witnesses; the DFS counts what it reaches
    z13 = cyclic(cyclic_group(13), 2)
    assert search._layer_work(13, 2, None) > search._WORK_BOUND
    census = count_transversals(z13, SearchBudget(max_nodes=10_000))
    assert (census.count, census.exact) == (716, False)
    listed = []
    with pytest.raises(BudgetExhausted):
        listed.extend(enumerate_transversals(z13, SearchBudget(max_nodes=10_000)))
    assert len(listed) == 716
    # order 10 at d=3 lies 2.75 times above the bound for target sums
    z10 = cyclic(cyclic_group(10), 3)
    assert search._layer_work(10, 3, 10) > 2.75 * search._WORK_BOUND
    census = count_diagonals(z10, (0,), SearchBudget(max_nodes=1_000))
    assert (census.count, census.exact) == (436, False)
    listed = []
    with pytest.raises(BudgetExhausted):
        listed.extend(enumerate_diagonals(z10, (0,), SearchBudget(max_nodes=1_000)))
    assert len(listed) == 436


@pytest.mark.parametrize("n, d", [(15, 2), (8, 3)])
def test_target_listing_matches_dfs_between_2_22_and_the_bound(n, d):
    # target-sum cubes whose worst case lies between 2**22 and the bound list
    # on the layers; their first 2,000 results come in the DFS's order
    H = _random_isotope(cyclic(cyclic_group(n), d), 1)
    assert 1 << 22 < search._layer_work(n, d, n) <= search._WORK_BOUND
    for t in (0, n // 2):
        layers, dfs = _listings(H, t)
        assert list(itertools.islice(layers, 2_000)) == list(itertools.islice(dfs, 2_000)), t


def test_target_count_on_z3_d8_is_the_same_on_both_engines(monkeypatch):
    # the layers count in 4,375 states what the DFS counts in 562,059 nodes
    H = _random_isotope(cyclic(cyclic_group(3), 8), 1)
    assert 1 << 22 < search._layer_work(3, 8, 3) <= search._WORK_BOUND
    layers = count_diagonals(H, (0,))
    _dfs_only(monkeypatch)
    dfs = count_diagonals(H, (0,))
    assert (layers.count, layers.exact, layers.nodes) == (279_936, True, 4_375)
    assert (dfs.count, dfs.exact, dfs.nodes) == (279_936, True, 562_059)


# DFS censuses with a target sum, recorded before the DFS carried the sum (it
# then listed every diagonal and kept those with the sum): count, exact,
# nodes, and the column of each row's cell in the first three witnesses
_DFS_TARGET_CENSUSES = {
    "z15-seed1-sum0": (2_000, False, 69_471, [(*range(12), 14, 13, 12),
                                              (*range(11), 12, 14, 13, 11),
                                              (*range(10), 11, 12, 10, 13, 14)]),
    "z15-seed1-sum7": (2_000, False, 81_116, [tuple(range(15)),
                                              (*range(11), 13, 14, 11, 12),
                                              (*range(11), 14, 11, 13, 12)]),
    "l8-sum4": (0, True, 109_600, []),
    "ord8-sum4": (1_920, True, 109_600, [(0, 2, 1, 3, 4, 5, 6, 7), (0, 2, 1, 3, 4, 5, 7, 6),
                                         (0, 2, 1, 3, 4, 6, 5, 7)]),
}


@pytest.mark.parametrize("name", sorted(_DFS_TARGET_CENSUSES))
def test_dfs_target_census_is_unchanged(monkeypatch, name):
    # every diagonal of these cubes is placed whatever its sum, so the nodes
    # are those of the whole tree (l8 and ord8 alike), and a misplaced sum
    # check shows in the count or the witnesses
    if name.startswith("z15"):
        # within the bound, so only the bound at 0 sends it to the DFS
        H = _random_isotope(cyclic(cyclic_group(15), 2), 1)
        assert search._layer_work(15, 2, 15) <= search._WORK_BOUND
        budget = SearchBudget(max_results=2_000)
    else:
        H = l8_square() if name.startswith("l8") else ord8_square()
        budget = SearchBudget()
    _dfs_only(monkeypatch)
    t = int(name.rpartition("sum")[2])
    census = count_diagonals(H, (t,), budget, keep=3)
    columns = [tuple(c for _, c in D.cells()) for D in census.witnesses]
    assert (census.count, census.exact, census.nodes, columns) == _DFS_TARGET_CENSUSES[name]


def test_count_under_max_results_stops_where_enumeration_stops():
    # the count runs on the same engine as `enumerate_*`, so with a node cap
    # as well the count is what `enumerate_*` lists; Z11 is within the work
    # bound, and none of these caps lets its layers finish (47,268 states)
    z11 = cyclic(cyclic_group(11), 2)
    assert search._layer_work(11, 2, None) <= search._WORK_BOUND
    for max_nodes, reached in ((1_000, False), (1_114, False), (1_115, False), (2_000, False),
                               (5_000, False)):
        budget = SearchBudget(max_results=100, max_nodes=max_nodes)
        listed = []
        with pytest.raises(BudgetExhausted):
            listed.extend(enumerate_transversals(z11, budget))
        census = count_transversals(z11, budget, keep=8)
        assert (census.count == 100) == reached
        assert census.count == len(listed) and not census.exact
        assert census.witnesses == tuple(listed[:8])


@pytest.mark.parametrize("dfs_only", [False, True], ids=["dp", "dfs"])
def test_count_max_results_caps_the_count(monkeypatch, dfs_only):
    # both kinds of layers, and the DFS, against `enumerate_*`
    if dfs_only:
        _dfs_only(monkeypatch)
    H = turned_cyclic(4, 4)
    listed = list(enumerate_transversals(H))
    assert len(listed) == 1280
    for cap in (1, 5, 8, 9, 1279, 1280):
        census = count_transversals(H, SearchBudget(max_results=cap), keep=8)
        assert (census.count, census.exact) == (cap, False)
        assert census.witnesses == tuple(listed[:min(cap, 8)])
    census = count_transversals(H, SearchBudget(max_results=1281), keep=8)
    assert (census.count, census.exact) == (1280, True)
    H6 = z6_isotope_square()
    listed = list(enumerate_diagonals(H6, (3,)))
    total = len(listed)
    for cap in (1, 5, 8, 9, total - 1, total):
        census = count_diagonals(H6, (3,), SearchBudget(max_results=cap), keep=8)
        assert (census.count, census.exact) == (cap, False)
        assert census.witnesses == tuple(listed[:min(cap, 8)])
    census = count_diagonals(H6, (3,), SearchBudget(max_results=total + 1), keep=8)
    assert (census.count, census.exact) == (total, True)


@pytest.mark.parametrize("dfs_only", [False, True], ids=["dp", "dfs"])
def test_truncated_census_is_never_exact(monkeypatch, dfs_only):
    if dfs_only:
        _dfs_only(monkeypatch)
    H = turned_cyclic(4, 4)
    H6 = z6_isotope_square()
    for count in (lambda b: count_transversals(H, b, keep=8),
                  lambda b: count_diagonals(H6, (3,), b, keep=8)):
        full = count(SearchBudget())
        assert full.exact and full.count > 8
        for max_nodes in (1, full.nodes // 4, full.nodes // 2, full.nodes - 1):
            cut = count(SearchBudget(max_nodes=max_nodes))
            assert not cut.exact and cut.nodes == max_nodes
            assert cut.witnesses == full.witnesses[:len(cut.witnesses)]
            # the count is what the DFS reached before the cut: on the DP side
            # only the listed witnesses
            assert len(cut.witnesses) <= cut.count <= full.count
            assert dfs_only or cut.count == len(cut.witnesses)
        assert count(SearchBudget(max_nodes=full.nodes)) == full


def _array_listing(H, target=None, budget=SearchBudget()):
    # the array listing off the layers, a result at a time as the tuple of
    # its cell index on each row, the form the DFS lists in
    gauge = search._Gauge(budget)
    blocks = search._array_listing(search._back_layers(H, gauge, target), gauge)
    return (tuple(cells) for block in blocks for cells in block.tolist())


def _listings(H, target_sum=None):
    # the array listing and the DFS listing of the transversals, or of the
    # diagonals with the target sum if given
    target = None if target_sum is None else search._TargetSum.of(H, (target_sum,))
    cells = search._cube_cells(H, target is None)
    return _array_listing(H, target), search._dfs(cells, search._Gauge(SearchBudget()), target)


def _assert_listing_matches_dfs(H, brute=True, target_sum=None):
    # the array listing and the DFS listing yield the same tuples in the same
    # order, which is the sorted order of the brute-force oracle's row-sorted
    # cell tuples; streamed, so that no list of results is held without brute
    layers, dfs = _listings(H, target_sum)
    oracle = iter(())
    if brute:
        transversals, by_sum = _brute_by_sum(H)
        oracle = iter(sorted(transversals if target_sum is None else by_sum[target_sum]))
    for a, b in itertools.zip_longest(layers, dfs):
        assert a == b
        if brute:
            [D] = search._diagonals(H, [a])
            assert D.cells() == next(oracle)
    assert next(oracle, None) is None


def test_layer_listing_matches_dfs_on_every_small_square(square_catalogue):
    for squares in square_catalogue.values():
        for arr in squares:
            _assert_listing_matches_dfs(Hypercube(arr))


_LISTING_CASES = {
    **{f"cyclic-{n}-d{d}": (lambda n=n, d=d: cyclic(cyclic_group(n), d))
       for n in (2, 3, 5) for d in (3, 4)},
    "turned-cyclic-4-4": lambda: turned_cyclic(4, 4),
    "cyclic-10": lambda: cyclic(cyclic_group(10), 2),
    **{f"{name}-seed{seed}": (lambda base=base, seed=seed: _random_isotope(base(), seed))
       for name, base in (("l8", l8_square), ("z6-isotope", z6_isotope_square),
                          ("ord6m-1", lambda: ord6m_square(1)))
       for seed in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(_LISTING_CASES))
def test_layer_listing_matches_dfs(name):
    H = _LISTING_CASES[name]()
    # brute force runs over all (n!)**(d-1) diagonals: 1.7 million for
    # cyclic-5-d4 (321,375 transversals) and 3.6 million for cyclic-10
    _assert_listing_matches_dfs(H, brute=name not in ("cyclic-5-d4", "cyclic-10"))


def test_target_listing_matches_dfs_on_every_small_square(square_catalogue):
    for n, squares in square_catalogue.items():
        for arr in squares:
            for t in range(n):
                _assert_listing_matches_dfs(Hypercube(arr), target_sum=t)


@pytest.mark.parametrize("name", sorted(_COUNT_CASES))
def test_target_listing_matches_dfs(name):
    H = _COUNT_CASES[name]()
    if name == "cyclic-5-d4":
        # all 1.7 million diagonals have sum 0: the first thousand come in the
        # DFS's order, and every other sum lists nothing
        budget = SearchBudget()
        target = search._TargetSum.of(H, (0,))
        layers = _array_listing(H, target, budget)
        dfs = search._dfs(search._cube_cells(H, False), search._Gauge(budget), target)
        assert list(itertools.islice(layers, 1000)) == list(itertools.islice(dfs, 1000))
        for t in range(1, H.n):
            assert list(enumerate_diagonals(H, (t,))) == []
        return
    for t in range(H.n):
        _assert_listing_matches_dfs(H, target_sum=t)


# every cube with at most 50,000 diagonals, so that brute force stays quick
_SMALL_SIZES = [(n, d) for d in range(2, 8) for n in range(2, 9)
                if math.factorial(n) ** (d - 1) <= 50_000]


@st.composite
def _small_cubes(draw):
    # a seeded random isotope of a cyclic cube, a turned cyclic cube, a cyclic
    # cube of even order with one order-2 subcube switched, or a random square
    # of order 4 to 8 by Jacobson-Matthews
    kind = draw(st.sampled_from(["cyclic", "turned", "switched", "jm"]))
    if kind == "jm":
        # the seed also picks the order: Hypothesis favours the ends of a
        # drawn range, and an order-8 example costs ten order-7 ones
        seed = draw(st.integers(0, 2**32 - 1))
        H = _jacobson_matthews(4 + seed % 5, seed)
    elif kind == "turned":
        n, d = draw(st.sampled_from([(n, d) for n, d in _SMALL_SIZES
                                     if n > 2 and n % 2 == 0 and d % 2 == 0]))
        H = turned_cyclic(n, d)
    elif kind == "switched":
        n, d = draw(st.sampled_from([(n, d) for n, d in _SMALL_SIZES if n % 2 == 0]))
        corner = draw(st.tuples(*[st.integers(0, n - 1)] * d))
        # n/2 added mod n on the block {c_i, c_i + n/2}^d, a two-symbol subcube
        arr = np.array(cyclic(cyclic_group(n), d).symbols)
        block = np.ix_(*[(c, (c + n // 2) % n) for c in corner])
        arr[block] = (arr[block] + n // 2) % n
        H = Hypercube(arr, cyclic_group(n))
    else:
        n, d = draw(st.sampled_from(_SMALL_SIZES))
        H = cyclic(cyclic_group(n), d)
    return _random_isotope(H, draw(st.integers(0, 2**32 - 1)))


# derandomize seeds Hypothesis from a hash of the test's source, so every edit
# of the test would draw other cubes; this seed is that hash of the source
# before brute force was shared across targets, which keeps its 30 cubes
_RANDOM_CUBES_SEED = int(
    "1696974590109331652162138407289238943347"
    "7277095649302485946874782524916973676931"
    "348152091380654811045112410448428899")


@settings(max_examples=30, deadline=None, derandomize=True)
@seed(_RANDOM_CUBES_SEED)
@given(H=_small_cubes(), data=st.data())
def test_dfs_layers_and_brute_force_agree_on_random_cubes(H, data):
    # with the bound at 0 every listing and count runs on the DFS; it, the
    # layers and brute force agree on the transversals and on every target
    # sum, and a census cut by its node cap is never exact
    transversals, by_sum = _brute_by_sum(H)
    with pytest.MonkeyPatch.context() as mp:
        _dfs_only(mp)
        for t in (None, *range(H.n)):
            if t is None:
                oracle = sorted(transversals)
                listed = list(enumerate_transversals(H))
                count = lambda b: count_transversals(H, b, keep=2)
            else:
                oracle = sorted(by_sum[t])
                listed = list(enumerate_diagonals(H, (t,)))
                count = lambda b: count_diagonals(H, (t,), b, keep=2)
            layers, dfs = _listings(H, t)
            layers = list(layers)
            assert [D.entries for D in listed] == [D.entries for D in search._diagonals(H, layers)]
            assert layers == list(dfs)
            assert [D.cells() for D in listed] == oracle
            full = count(SearchBudget())
            assert full.exact and full.count == len(oracle)
            assert full.witnesses == tuple(listed[:2])
            max_nodes = data.draw(st.integers(1, full.nodes), label=f"max_nodes {t}")
            cut = count(SearchBudget(max_nodes=max_nodes))
            if max_nodes < full.nodes:
                assert not cut.exact and cut.nodes == max_nodes
            else:
                assert cut == full


def test_listing_engine_is_chosen_by_the_bound(monkeypatch):
    # the layers run iff their worst case is within the work bound: no node
    # or result cap sends a cube within it to the DFS, for listing, counting
    # or packing, and above it every one of them goes to the DFS; each kind
    # of layers has its own worst case.  The spy counts the DFS's listings,
    # not its existence searches (constrained)
    H = cyclic(cyclic_group(5), 3)
    work, target_work = search._layer_work(5, 3, None), search._layer_work(5, 3, 5)
    assert target_work < work
    dfs = search._dfs
    engines = []

    def spy(cells, gauge, target=None, pre=(), constrained=False):
        if not constrained:
            engines.append("transversals" if target is None else "target")
        return dfs(cells, gauge, target, pre, constrained)

    def run_all():
        for budget in (SearchBudget(), SearchBudget(max_nodes=work - 1),
                       SearchBudget(max_nodes=1), SearchBudget(max_results=5)):
            try:
                list(enumerate_transversals(H, budget))
            except BudgetExhausted:
                pass
            try:
                list(enumerate_diagonals(H, (0,), budget))
            except BudgetExhausted:
                pass
            count_transversals(H, budget, keep=2)
            count_diagonals(H, (0,), budget, keep=2)
            max_disjoint_transversals(H, budget=budget)

    monkeypatch.setattr(search, "_dfs", spy)
    run_all()
    assert engines == []
    assert len(list(enumerate_transversals(H))) == 3325
    packing = max_disjoint_transversals(H, budget=SearchBudget(max_nodes=work))
    assert packing.transversal_count == 3325
    assert engines == []
    with monkeypatch.context() as mp:
        mp.setattr(search, "_WORK_BOUND", work - 1)
        run_all()
    assert engines == ["transversals"] * 12
    engines.clear()
    with monkeypatch.context() as mp:
        mp.setattr(search, "_WORK_BOUND", target_work - 1)
        run_all()
    assert sorted(engines) == ["target"] * 8 + ["transversals"] * 12


def test_node_budget_cuts_the_layer_listing():
    # Z11 is within the bound, so its layers list under any node cap, and a
    # cut listing returns only what they reached: nothing in 5,000 nodes,
    # within their build (47,268 states), and 6,337 transversals in 100,000
    z11 = cyclic(cyclic_group(11), 2)
    assert search._layer_work(11, 2, None) == 7_759_752
    assert count_transversals(z11).nodes == 47_268
    for max_nodes, reached in ((5_000, 0), (100_000, 6_337)):
        budget = SearchBudget(max_nodes=max_nodes)
        listed = []
        with pytest.raises(BudgetExhausted):
            listed.extend(enumerate_transversals(z11, budget))
        assert listed == list(itertools.islice(enumerate_transversals(z11), reached))
        result = max_disjoint_transversals(z11, budget=budget)
        assert result.transversal_count == reached
        assert result.exhausted and not result.optimal and result.upper_bound is None


def _ticks(monkeypatch, run):
    ticks = 0
    tick = search._Gauge.tick

    def counting_tick(gauge, count=1):
        nonlocal ticks
        ticks += count
        tick(gauge, count)

    with monkeypatch.context() as mp:
        mp.setattr(search._Gauge, "tick", counting_tick)
        run()
    return ticks


def _cut_points(monkeypatch, H, run):
    """Node caps around each engine's total ticks for ``run``, with each
    cap's total: the layers run under every cap."""
    layers_total = _ticks(monkeypatch, run)
    with monkeypatch.context() as mp:
        _dfs_only(mp)
        dfs_total = _ticks(monkeypatch, run)
    caps = {1, dfs_total // 4, dfs_total // 2, dfs_total - 1, dfs_total,
            layers_total - 1, layers_total}
    return [(cap, layers_total) for cap in sorted(caps)]


@pytest.mark.parametrize("make", [lambda: turned_cyclic(4, 4), ord8_square],
                         ids=["turned-cyclic-4-4", "ord8"])
def test_truncated_packing_is_never_optimal(monkeypatch, make):
    H = make()
    full = max_disjoint_transversals(H)
    assert full.optimal and not full.exhausted
    cut_any = False
    for max_nodes, total in _cut_points(monkeypatch, H, lambda: max_disjoint_transversals(H)):
        result = max_disjoint_transversals(H, budget=SearchBudget(max_nodes=max_nodes))
        if max_nodes < total:
            cut_any = True
            assert result.exhausted and not result.optimal, max_nodes
        else:
            assert result == full, max_nodes
    assert cut_any


@pytest.mark.parametrize("make", [lambda: turned_cyclic(4, 4), ord8_square,
                                  lambda: cyclic(cyclic_group(5), 3)],
                         ids=["turned-cyclic-4-4", "ord8", "cyclic-5-d3"])
def test_truncated_decomposition_is_never_a_proven_none(monkeypatch, make):
    # a cut run raises; only a run that finished may answer None
    H = make()
    full = hill_climb_decomposition(H)
    assert (full is None) == (H.n != 5)
    cut_any = False
    for max_nodes, total in _cut_points(monkeypatch, H, lambda: hill_climb_decomposition(H)):
        budget = SearchBudget(max_nodes=max_nodes)
        if max_nodes < total:
            cut_any = True
            with pytest.raises(BudgetExhausted):
                hill_climb_decomposition(H, budget)
        else:
            assert hill_climb_decomposition(H, budget) == full, max_nodes
    assert cut_any


def test_time_capped_packing_is_never_optimal():
    # the time cap cuts the layer build short (the gauge reads the clock every
    # 4,096 ticks), and the packing is flagged, not optimal
    z11 = cyclic(cyclic_group(11), 2)
    result = max_disjoint_transversals(z11, budget=SearchBudget(time_cap=1e-9))
    assert result.exhausted and not result.optimal


@pytest.mark.parametrize("make", [lambda: cyclic(cyclic_group(3), 2),
                                  lambda: cyclic(cyclic_group(2), 2),
                                  lambda: cyclic(cyclic_group(5), 3),
                                  lambda: cyclic(cyclic_group(9), 2),
                                  lambda: turned_cyclic(4, 4),
                                  ord8_square],
                         ids=["cyclic-3", "cyclic-2", "cyclic-5-d3", "cyclic-9",
                              "turned-cyclic-4-4", "ord8"])
def test_packing_is_the_same_on_both_engines(monkeypatch, make):
    H = make()
    layers = max_disjoint_transversals(H)
    _dfs_only(monkeypatch)
    assert max_disjoint_transversals(H) == layers


@pytest.mark.parametrize("seed", range(4))
def test_greedy_hitting_set_picks_the_smallest_most_frequent_cell(seed):
    # the greedy on the cells' transversal masks against a recount of every
    # remaining set per step; cell (r, c) is flat index 5 * r + c
    rng = random.Random(seed)
    cells = [(r, c) for r in range(5) for c in range(5)]
    sets = [frozenset(rng.sample(cells, rng.randrange(1, 6))) for _ in range(60)]
    # one word per cell: bit i of cell c's word is set iff set i holds c
    matrix = np.array([[sum(1 << i for i, cs in enumerate(sets) if cell in cs)] for cell in cells],
                      np.uint64)
    remaining, expected = list(sets), []
    while remaining:
        freq = {}
        for cs in remaining:
            for c in cs:
                freq[c] = freq.get(c, 0) + 1
        best = min(freq, key=lambda c: (-freq[c], c))
        expected.append(best)
        remaining = [cs for cs in remaining if best not in cs]
    chosen = search._greedy_hitting_set(matrix, search._Gauge(SearchBudget()))
    assert [divmod(c, 5) for c in chosen] == expected


def test_max_disjoint_small_decomposition():
    H = cyclic(cyclic_group(3), 2)
    result = max_disjoint_transversals(H)
    assert len(result.packing) == 3 == brute_max_disjoint(H.symbols)
    assert result.optimal
    assert pairwise_disjoint_family(result.packing)


def test_max_disjoint_respects_cap():
    # a packing found at the cap below ub is optimal only if every larger g up
    # to ub was refuted: Z3 packs its cap of 2 but ub is 3 and nothing was
    # refuted; turned-cyclic(6,2) packs 4 = ub, so a cap of 5 or 6 is refuted
    # first and a cap of 3 is not
    H = cyclic(cyclic_group(3), 2)
    result = max_disjoint_transversals(H, cap=2)
    assert len(result.packing) == 2
    assert result.upper_bound == 3 and not result.optimal and not result.exhausted
    tc62 = turned_cyclic(6, 2)
    for cap, size, optimal in ((3, 3, False), (4, 4, True), (5, 4, True), (6, 4, True)):
        result = max_disjoint_transversals(tc62, cap=cap)
        assert (len(result.packing), result.optimal, result.upper_bound) == (size, optimal, 4)
        assert pairwise_disjoint_family(result.packing)


@pytest.mark.parametrize("cap", [0, -1])
def test_max_disjoint_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap"):
        max_disjoint_transversals(cyclic(cyclic_group(3), 2), cap=cap)


def test_max_disjoint_no_transversals():
    result = max_disjoint_transversals(cyclic(cyclic_group(2), 2))
    assert result.packing == () and result.optimal and result.upper_bound == 0


def _assert_packing_and_decomposition_match_the_oracle(H):
    best = brute_max_disjoint(H.symbols)
    result = max_disjoint_transversals(H)
    assert len(result.packing) == best and result.optimal and not result.exhausted
    assert pairwise_disjoint_family(result.packing)
    parts = hill_climb_decomposition(H)
    if best == H.n ** (H.d - 1):
        assert parts is not None and len(parts) == best and pairwise_disjoint_family(parts)
    else:
        assert parts is None


def test_packing_and_decomposition_match_the_oracle_on_every_small_square(square_catalogue):
    for squares in square_catalogue.values():
        for arr in squares:
            _assert_packing_and_decomposition_match_the_oracle(Hypercube(arr))


# a random order-7 square with 18 transversals whose greedy bound, 5, is
# refuted: its packing of 4 must leave the first branching cell uncovered
_ORDER_7_PACKS_4 = [[4, 5, 0, 1, 3, 6, 2], [1, 3, 5, 4, 6, 2, 0], [2, 0, 1, 3, 5, 4, 6],
                    [3, 6, 4, 2, 1, 0, 5], [0, 2, 6, 5, 4, 1, 3], [5, 4, 2, 6, 0, 3, 1],
                    [6, 1, 3, 0, 2, 5, 4]]


@pytest.mark.parametrize("make, upper_bound",
                         [(lambda: cyclic(cyclic_group(3), 3), 9),
                          (lambda: Hypercube(np.array(_ORDER_7_PACKS_4)), 5)],
                         ids=["cyclic-3-d3", "order-7-packs-4"])
def test_packing_and_decomposition_match_the_oracle(make, upper_bound):
    H = make()
    _assert_packing_and_decomposition_match_the_oracle(H)
    assert max_disjoint_transversals(H).upper_bound == upper_bound


def test_packing_is_proven_where_a_line_limits_it():
    # 32 cells of third-species 4,4 lie on no transversal, and some hyperplane
    # or symbol class keeps only 48 cells that do, while the greedy bound is
    # 56: the search refutes 56..49 at the root and packs 48
    H = third_species_44()
    result = max_disjoint_transversals(H)
    assert (len(result.packing), result.optimal, result.upper_bound) == (48, True, 56)
    assert pairwise_disjoint_family(result.packing)
    on_some = np.ones(H.symbols.shape, dtype=bool)
    for cell in bachelor_cells(H).bachelor_cells:
        on_some[cell] = False
    lines = [on_some.take(v, axis=k) for k in range(H.d) for v in range(H.n)]
    lines += [on_some[H.symbols == s] for s in range(H.n)]
    assert min(int(line.sum()) for line in lines) == 48


def _reference_packs(cover, g, gauge, best):
    """``search._packs`` as it ran on one int bit set per cell, rescanning
    every open cell's live transversals at every node: the reference that the
    word-matrix search with per-cell live counts must match node for node."""
    listed, lines = cover.listed, cover.lines.tolist()
    masks = [int.from_bytes(row.tobytes(), "little") for row in cover.matrix]
    n = listed.shape[1]
    line_count = len(lines[0]) * n
    starts = len(masks) // n * np.arange(n)
    chosen = []
    path = []
    live, todo = (1 << len(listed)) - 1, list(range(len(masks)))
    while True:
        if len(chosen) > len(best):
            best[:] = chosen
        if len(chosen) == g:
            return True
        open_cells, on_line = [], [0] * line_count
        pivot, fewest = -1, 0
        for c in todo:
            k = (masks[c] & live).bit_count()
            if k:
                open_cells.append(c)
                for x in lines[c]:
                    on_line[x] += 1
                if pivot < 0 or k < fewest:
                    pivot, fewest = c, k
        if len(chosen) + min(on_line) >= g:
            path.append([live, open_cells, pivot, masks[pivot] & live, len(chosen)])
        while path:
            node = path[-1]
            live, todo, pivot, untried, above = node
            del chosen[above:]
            if untried:
                t = (untried & -untried).bit_length() - 1
                node[3] = untried ^ (1 << t)
                chosen.append(t)
                cells = (listed[t] + starts).tolist()
                live &= ~functools.reduce(lambda a, b: a | b, (masks[c] for c in cells))
            elif pivot >= 0:
                node[2] = -1
                live &= ~masks[pivot]
            else:
                path.pop()
                continue
            gauge.tick()
            break
        else:
            return False


def _packing_cover(H):
    gauge = search._Gauge(SearchBudget())
    table = search._Table(H.n)
    listed = table.fill(*search._results(H, gauge))
    return search._cover(H, listed, gauge)


def _packs_run(packs, cover, g, max_nodes=2_000_000_000):
    gauge, best = search._Gauge(SearchBudget(max_nodes=max_nodes)), []
    try:
        found = packs(cover, g, gauge, best)
    except BudgetExhausted:
        found = None
    return found, best, gauge.nodes


@pytest.mark.parametrize("make", [lambda: cyclic(cyclic_group(5), 3),
                                  lambda: cyclic(cyclic_group(7), 2),
                                  lambda: turned_cyclic(4, 4), third_species_44],
                         ids=["cyclic-5-d3", "cyclic-7", "turned-cyclic-4-4",
                              "third-species-4-4"])
@pytest.mark.parametrize("seed", [1, 2])
def test_packs_matches_the_int_bit_set_reference(make, seed):
    # every g from the greedy bound down to the answer: the same answer, the
    # same largest family and the same ticks, on seeded isotopes (whose
    # listing orders differ from the cube's own), over every transversal and
    # over a seeded fifth of them, which backtracks far more; a search cut at
    # 2,000 ticks must be cut in both, holding the same family
    H = _random_isotope(make(), seed)
    every = _packing_cover(H).listed
    fifth = sorted(random.Random(seed).sample(range(len(every)), len(every) // 5))
    for listed in (every, every[fifth]):
        cover = search._cover(H, listed, search._Gauge(SearchBudget()))
        g = min(len(search._greedy_hitting_set(cover.matrix, search._Gauge(SearchBudget()))),
                H.n ** (H.d - 1), len(listed))
        while True:
            found, best, ticks = _packs_run(search._packs, cover, g, 2_000)
            assert (found, best, ticks) == _packs_run(_reference_packs, cover, g, 2_000), g
            if found is not False:
                break
            g -= 1


def test_packs_ticks_are_pinned():
    # the node counts of the int bit set search this one replaced
    z11 = _packing_cover(cyclic(cyclic_group(11), 2))
    found, best, ticks = _packs_run(search._packs, z11, 11)
    assert found and len(best) == 11 and ticks == 117
    H = cyclic(cyclic_group(5), 4)
    z5d4 = _packing_cover(H)
    found, best, ticks = _packs_run(search._packs, z5d4, 125)
    assert found and len(best) == 125 and ticks == 831
    assert pairwise_disjoint_family(list(search._diagonals(H, z5d4.listed[best].tolist())))


@pytest.mark.parametrize("make", [lambda: cyclic(cyclic_group(11), 2),
                                  lambda: _random_isotope(turned_cyclic(4, 4), 3)],
                         ids=["cyclic-11", "turned-cyclic-4-4-isotope"])
def test_cut_packings_are_disjoint_transversals_and_never_shrink(monkeypatch, make):
    # a packing cut by max_nodes keeps the largest family reached: pairwise
    # disjoint transversals of the cube, never fewer under a larger cap
    H = make()
    full = max_disjoint_transversals(H)
    total = _ticks(monkeypatch, lambda: max_disjoint_transversals(H))
    transversals = set(enumerate_transversals(H))
    sizes = []
    for max_nodes in sorted({total - k for k in range(0, 120, 6)} | {total // 2, 1}):
        result = max_disjoint_transversals(H, budget=SearchBudget(max_nodes=max_nodes))
        assert result.exhausted == (max_nodes < total), max_nodes
        assert set(result.packing) <= transversals
        assert pairwise_disjoint_family(result.packing)
        sizes.append(len(result.packing))
    assert sizes == sorted(sizes) and sizes[-1] == len(full.packing)
    assert len(set(sizes) - {0, sizes[-1]}) > 1, sizes


def test_packing_and_decomposition_run_deeper_than_the_recursion_limit():
    # cyclic Z2 d=11 splits into 1,024 transversals, each a cell and its
    # complement: one search level per transversal chosen
    H = cyclic(cyclic_group(2), 11)
    result = max_disjoint_transversals(H)
    assert len(result.packing) == 1024 and result.optimal
    parts = hill_climb_decomposition(H)
    assert parts is not None and len(parts) == 1024 and pairwise_disjoint_family(parts)


def test_hill_climb_finds_decomposition():
    H = cyclic(cyclic_group(3), 2)
    parts = hill_climb_decomposition(H)
    assert parts is not None and len(parts) == 3
    covered = set()
    for D in parts:
        assert D.has_distinct_symbols()
        covered |= D.cell_set()
    assert len(covered) == 9


def test_hill_climb_fails_when_no_transversal_exists():
    H = cyclic(cyclic_group(2), 2)
    assert hill_climb_decomposition(H) is None


def test_hill_climb_proves_turned_cyclic_4_4_has_no_decomposition():
    # 1,280 transversals, all through the turned block, pack only 16 of 64
    assert hill_climb_decomposition(turned_cyclic(4, 4)) is None


def test_hill_climb_on_boosted_cube():
    H = g_extension(cyclic(cyclic_group(3), 2), cyclic_group(3), 3)
    parts = hill_climb_decomposition(H)
    assert parts is not None and len(parts) == 9
    assert pairwise_disjoint_family(parts)
    assert len(set().union(*(D.cell_set() for D in parts))) == 27


def test_hill_climb_determinism():
    H = cyclic(cyclic_group(3), 2)
    a = hill_climb_decomposition(H)
    b = hill_climb_decomposition(H)
    assert a is not None and [x.cells() for x in a] == [x.cells() for x in b]


def test_hitting_set_check_empty_set_is_false():
    H = cyclic(cyclic_group(3), 2)
    assert not hitting_set_check(H, (0,), [])


_SMALL_SQUARES = {
    "cyclic-3": lambda: cyclic(cyclic_group(3), 2),
    "cyclic-4": lambda: cyclic(cyclic_group(4), 2),
    "cyclic-5": lambda: cyclic(cyclic_group(5), 2),
    "cyclic-6": lambda: cyclic(cyclic_group(6), 2),
    "turned-cyclic-4": lambda: turned_cyclic(4, 2),
    "turned-cyclic-6": lambda: turned_cyclic(6, 2),
    "ord6m-1": lambda: ord6m_square(1),
    "z6-isotope": z6_isotope_square,
}


@pytest.mark.parametrize("name", sorted(_SMALL_SQUARES))
def test_hitting_set_check_matches_brute_force(name):
    H = _SMALL_SQUARES[name]()
    n = H.n
    support = set(profile(H).support)
    cells = list(H.cells())
    by_target = {t: [set(D) for D in brute_target_diagonals(H.symbols, t)] for t in range(n)}
    rng = random.Random(2024)
    outcomes = set()
    for trial in range(8):
        U = set(rng.sample(cells, rng.randrange(1, 2 * n)))
        if trial % 2:
            U |= support
        assert U - support, "every cell set includes cells outside the support"
        for t in range(n):
            expected = all(D & U for D in by_target[t])
            assert hitting_set_check(H, (t,), U) == expected, (sorted(U), t)
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_hitting_set_check_ord6m_starred_pair():
    H = ord6m_square(1)
    stars = ord6m_starred_cells(1)
    assert hitting_set_check(H, (3,), stars)
    # dropping one starred cell must break the property
    assert not hitting_set_check(H, (3,), stars[:1])


def test_hitting_set_check_covering_the_support_needs_no_search():
    # a diagonal avoiding the whole support has delta sum zero, so one branch
    # (the empty one) decides a nonzero target
    H = turned_cyclic(6, 4)
    region = turned_region(6, 4)
    target = suitable_target(H.group, 4)
    assert hitting_set_check(H, target, region, SearchBudget(max_nodes=1))


def test_hitting_set_check_prunes_a_row_with_no_allowed_cell():
    # with all of the last row forbidden no completion exists; a search that
    # finds the row empty only on reaching it takes 27,994 ticks here, and 814
    # when the forbidden row is row 2
    H = ord8_square()
    last_row = [c for c in H.cells() if c[0] == H.n - 1]
    assert hitting_set_check(H, (0,), last_row, SearchBudget(max_nodes=814))


def test_hitting_set_check_budget_covers_the_whole_check(monkeypatch):
    # every sum-5 diagonal of the z6 isotope meets the anti-diagonal, which
    # lies inside the support; deciding it takes several completion searches
    H = z6_isotope_square()
    anti = [(i, H.n - 1 - i) for i in range(H.n)]
    ticks = 0
    tick = search._Gauge.tick

    def counting_tick(gauge):
        nonlocal ticks
        ticks += 1
        tick(gauge)

    monkeypatch.setattr(search._Gauge, "tick", counting_tick)
    assert hitting_set_check(H, (5,), anti)
    total = ticks
    for max_nodes in (1, total // 2, total - 1):
        with pytest.raises(BudgetExhausted):
            hitting_set_check(H, (5,), anti, SearchBudget(max_nodes=max_nodes))
    assert hitting_set_check(H, (5,), anti, SearchBudget(max_nodes=total))


def _assert_completions_match_brute_force(H, rng, trials):
    # random partial diagonals, forbidden sets and target sums (none, or a
    # random element), against the diagonals that hold the partial cells,
    # avoid the forbidden ones and have the sum: the DFS through the partial
    # cells lists exactly those, in sorted order, filling the lowest row
    # first, and finds one of them iff there is one filling the row with the
    # fewest fitting cells first
    _, by_sum = _brute_by_sum(H)
    every = list(H.cells())
    for _ in range(trials):
        size, partial = rng.randrange(H.n), []
        for cell in rng.sample(every, len(every)):
            if len(partial) < size and all(a != b for c in partial for a, b in zip(cell, c)):
                partial.append(cell)
        rate = rng.choice((0.1, 0.3, 0.6))
        forbidden = {c for c in every if c not in partial and rng.random() < rate}
        t = rng.choice((None, rng.randrange(H.n)))
        pool = itertools.chain.from_iterable(by_sum) if t is None else by_sum[t]
        matching = sorted(D for D in pool if set(partial) <= set(D) and not set(D) & forbidden)
        target = None if t is None else search._TargetSum.of(H, (t,))
        cells = search._Cells.of(H, False, frozenset(search._checked_cells(H, forbidden)))
        pre = search._checked_cells(H, partial)
        listed = search._dfs(cells, search._Gauge(SearchBudget()), target, pre)
        assert [D.cells() for D in search._diagonals(H, listed)] == matching
        first = search._dfs(cells, search._Gauge(SearchBudget()), target, pre, constrained=True)
        found = next(search._diagonals(H, first), None)
        assert (found is None) == (not matching)
        assert found is None or found.cells() in matching


def test_dfs_completions_match_brute_force_on_every_small_square(square_catalogue):
    rng = random.Random(2024)
    for squares in square_catalogue.values():
        for arr in squares:
            _assert_completions_match_brute_force(Hypercube(arr), rng, 12)


@pytest.mark.parametrize("name", ["z6-isotope", "ord6m-1"])
def test_dfs_completions_match_brute_force(name):
    H = {"z6-isotope": z6_isotope_square, "ord6m-1": lambda: ord6m_square(1)}[name]()
    _assert_completions_match_brute_force(H, random.Random(name), 200)


def test_dfs_rejects_pre_cells_that_conflict():
    # (0, 0) and (0, 1) share row 0; (0, 0) and (1, 2) share symbol 0, which
    # conflicts on transversal cells only
    H = cyclic(cyclic_group(3), 2)
    gauge = search._Gauge(SearchBudget())
    diagonal_cells, transversal_cells = search._Cells.of(H, False), search._Cells.of(H, True)
    with pytest.raises(ValueError):
        next(search._dfs(diagonal_cells, gauge, pre=search._checked_cells(H, [(0, 0), (0, 1)])))
    with pytest.raises(ValueError):
        next(search._dfs(transversal_cells, gauge, pre=search._checked_cells(H, [(0, 0), (1, 2)])))
    found = search._dfs(diagonal_cells, gauge, pre=search._checked_cells(H, [(0, 0), (1, 2)]))
    assert [D.cells() for D in search._diagonals(H, found)] == [((0, 0), (1, 2), (2, 1))]


def _cell_entry_points(H):
    """Every entry point that takes a caller's cell, each as a call on one
    cell of the cyclic square H of order 5, whose cell (0, 1) holds symbol 1:
    the fibre's alpha is the cell followed by a last coordinate 0."""
    D = transversal_through(H, (0, 1))
    return {
        "entry": lambda c: H.entry(c),
        "from_entries": lambda c: Diagonal.from_entries(H, [(c, 1)]),
        "from_cells": lambda c: Diagonal.from_cells(H, [c]),
        "transversal_through": lambda c: transversal_through(H, c),
        "hitting_set_check": lambda c: hitting_set_check(H, (0,), [(0, 0), c]),
        "cell_from_json": lambda c: cell_from_json(list(c), H),
        "diagonal_from_json": lambda c: diagonal_from_json([{"coords": list(c), "symbol": 1}], H),
        "delta": lambda c: delta(H, Entry(c, 1)),
        "delta_sum": lambda c: delta_sum(H, [Entry(c, 1)]),
        "value_at": lambda c: profile(H).value_at(c),
        "transfer_hitting_set": lambda c: transfer_hitting_set(H, [c], 2),
        "through_fibre": lambda c: transversal_through_fibre(H, D, 3, Entry((*c, 0), 1)),
    }


def test_cells_outside_the_cube_are_rejected_not_claimed_absent():
    # numpy would wrap (-1, 0) to the last row, int() would truncate (0.5, 0)
    # to (0, 0), and cells out of range or of the wrong length would fail
    # with IndexError or TypeError or be ignored: every entry point raises
    # ValueError instead, and takes NumPy integers as Python ints
    H = cyclic(cyclic_group(5), 2)
    H6 = ord6m_square(1)
    bad_cells = [(0.5, 0), (1.0, 0), ("1", 0), (True, 0), (None, 0), (-1, 0), (5, 0), (0, 5),
                 (0,), (0, 0, 0), (0.0, 1), (np.float64(1.0), 0), (np.True_, 0), "01"]
    for name, call in _cell_entry_points(H).items():
        for bad in bad_cells:
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"{name} took the cell {bad!r}")
        want = repr(call((0, 1)))
        for cell in [(np.int64(0), np.int32(1)), np.array([0, 1]), [0, 1], (np.uint8(0), 1)]:
            assert repr(call(cell)) == want, name
    with pytest.raises(ValueError):
        transversal_through(H6, (-1, 2))
    with pytest.raises(ValueError):
        hitting_set_check(H6, (3,), [*ord6m_starred_cells(1), (6, 0)])
    assert transversal_through(H, (4, 0)).cells()[4] == (4, 0)
    # an entry that is not a (coords, symbol) pair is refused the same way,
    # not left to fail on its unpacking
    D = transversal_through(H, (0, 1))
    entry_points = {
        "from_entries": lambda e: Diagonal.from_entries(H, [e]),
        "delta": lambda e: delta(H, e),
        "delta_sum": lambda e: delta_sum(H, [e]),
        "through_fibre": lambda e: transversal_through_fibre(H, D, 3, e),
    }
    for name, call in entry_points.items():
        for bad in [5, None, ((0, 1),), ((0, 1), 1, 0), np.int64(1)]:
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"{name} took the entry {bad!r}")


def test_symbols_and_permutations_follow_the_integer_rule():
    # the host holds 1 at (0, 1), so 1.0 and True equal it and still fail
    H = cyclic(cyclic_group(5), 2)
    D = transversal_through(H, (0, 1))
    symbol_entry_points = {
        "from_entries": lambda s: Diagonal.from_entries(H, [((0, 1), s)]),
        "diagonal_from_json": lambda s: diagonal_from_json([{"coords": [0, 1], "symbol": s}], H),
        "delta": lambda s: delta(H, Entry((0, 1), s)),
        "delta_sum": lambda s: delta_sum(H, [Entry((0, 1), s)]),
        "through_fibre": lambda s: transversal_through_fibre(H, D, 3, Entry((0, 1, 0), s)),
    }
    for name, call in symbol_entry_points.items():
        for bad in [0.7, "0", True, 1.0, "1", None, np.True_, np.float64(1.0)]:
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"{name} took the symbol {bad!r}")
        assert repr(call(np.int64(1))) == repr(call(1)), name
    H3 = cyclic(cyclic_group(3), 2)
    ident = [0, 1, 2]
    for bad in [0.7, "0", True]:
        with pytest.raises(ValueError):
            Hypercube([[0, 1], [1, bad]])
        with pytest.raises(ValueError):
            apply_isotopy(H3, [[0, bad, 2], ident, ident])
        with pytest.raises(ValueError):
            apply_isotopy(H3, [ident, ident, [bad, 1, 2]])
    for bad in [[[True, False], [False, True]], np.array([[0.0, 1.0], [1.0, 0.0]]),
                [[0, 1], [1, np.True_]], [[0.5, 1.9], [1.2, 0.7]], [["0", "1"], ["1", "0"]]]:
        with pytest.raises(ValueError):
            Hypercube(bad)
    for bad in [[0.2, 1.7, 2.9], ["0", "1", "2"], np.array([2.0, 1.0, 0.0]),
                np.array([False, True, True])]:
        with pytest.raises(ValueError):
            apply_isotopy(H3, [bad, ident, ident])
    square = Hypercube([[0, 1], [1, 0]])
    for arr in [np.array([[0, 1], [1, 0]], dtype=np.uint8), [[np.int32(0), 1], [1, 0]]]:
        assert Hypercube(arr) == square and Hypercube(arr).symbols.dtype == np.int64
    flip = [2, 1, 0]
    want = apply_isotopy(H3, [flip, ident, ident])
    assert apply_isotopy(H3, [np.array(flip, dtype=np.int32), ident, (0, 1, np.int8(2))]) == want

    # a target's components, a count and a dilation factor are integers by
    # the same rule: 4.9 is not read as 4, nor True as 1, nor '4' as 4
    L8, pair = ord8_square(), ord8_blocking_cells()
    target_entry_points = {
        "count_diagonals": lambda t: count_diagonals(L8, t).count,
        "enumerate_diagonals": lambda t: len(list(enumerate_diagonals(L8, t))),
        "hitting_set_check": lambda t: hitting_set_check(L8, t, pair),
    }
    for name, call in target_entry_points.items():
        for bad in [(4.9,), (4.0,), ("4",), (True,), (np.float64(4.0),), (None,)]:
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"{name} took the target {bad!r}")
        assert call((np.int64(4),)) == call((12,)) == call([4]), name
    assert count_diagonals(L8, (4,)).count == 1920
    with pytest.raises(ValueError):
        hall_pair(cyclic_group(3), [(0.5,), (0,), (0,)])
    count_entry_points = {
        "max_nodes": lambda k: SearchBudget(max_nodes=k),
        "max_results": lambda k: SearchBudget(max_results=k),
        "keep": lambda k: count_transversals(H, keep=k),
        "cap": lambda k: max_disjoint_transversals(H, cap=k),
        "suitable_target": lambda k: suitable_target(cyclic_group(6), k),
        "g_extension": lambda k: g_extension(H, None, k),
        "dilate": lambda k: dilate(H, k),
        "transfer_hitting_set": lambda k: transfer_hitting_set(H, [(0, 0)], k),
    }
    for name, call in count_entry_points.items():
        for bad in [1.5, 3.0, True, "3", np.float64(3.0)]:
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"{name} took the count {bad!r}")
        assert call(np.int64(3)) == call(3), name
    # a factor below 2 fails the one factor check, whichever call makes it
    for bad in [0, -3, 1]:
        for call in (count_entry_points["dilate"], count_entry_points["transfer_hitting_set"]):
            with pytest.raises(ValueError, match="dilation factor must be at least 2"):
                call(bad)


def test_budget_max_results():
    H = cyclic(cyclic_group(3), 2)
    got = []
    with pytest.raises(BudgetExhausted):
        for D in enumerate_transversals(H, SearchBudget(max_results=2)):
            got.append(D)
    assert len(got) == 2


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_results=0)
    with pytest.raises(ValueError):
        SearchBudget(time_cap=-1)


@pytest.mark.parametrize("caps", [
    {"max_nodes": float("nan")}, {"max_nodes": 2.5}, {"max_nodes": float("inf")},
    {"max_nodes": None}, {"max_results": 2.5}, {"max_results": float("nan")},
    {"max_results": -1}, {"time_cap": float("nan")}, {"time_cap": 0.0},
    {"time_cap": True}, {"time_cap": "5"},
], ids=["nodes-nan", "nodes-2.5", "nodes-inf", "nodes-none", "results-2.5", "results-nan",
        "results-negative", "time-nan", "time-0", "time-bool", "time-str"])
def test_budget_rejects_caps_it_cannot_honour(caps):
    # a fractional or NaN node or result cap is never met, a NaN time cap
    # passes a `<= 0` check and never expires, and a time cap is a real
    # number of seconds, not a bool or a string
    with pytest.raises(ValueError, match=next(iter(caps))):
        SearchBudget(**caps)


def test_budget_accepts_integer_caps_and_an_infinite_time_cap():
    # a numpy integer is an integer cap, and an infinite time cap never cuts
    H = cyclic(cyclic_group(3), 2)
    assert len(list(enumerate_transversals(H, SearchBudget(time_cap=float("inf"))))) == 3
    with pytest.raises(BudgetExhausted, match="node budget 5 "):
        list(enumerate_transversals(H, SearchBudget(max_nodes=np.int64(5),
                                                     max_results=np.int8(2))))


def test_search_requires_latin():
    import numpy as np

    H = Hypercube(np.array([[0, 0], [1, 1]]))
    with pytest.raises(ValueError):
        list(enumerate_transversals(H))


def test_engine_matches_oracle_on_catalogue_sample(square_catalogue):
    for arr in square_catalogue[3]:
        H = Hypercube(arr)
        engine = {frozenset(D.cells()) for D in enumerate_transversals(H)}
        naive = {frozenset(c) for c in brute_transversals(arr)}
        assert engine == naive


def test_engine_matches_oracle_at_order_five():
    base = cyclic(cyclic_group(5), 2)
    twisted = apply_isotopy(base, [[2, 0, 4, 1, 3], [0, 3, 1, 4, 2], [1, 4, 0, 2, 3]])
    for H in (base, twisted):
        engine = {frozenset(D.cells()) for D in enumerate_transversals(H)}
        naive = {frozenset(c) for c in brute_transversals(H.symbols)}
        assert engine == naive and engine
