import itertools
import math
import random

import pytest

from transversal_lab import search
from transversal_lab.constructions import (
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
from transversal_lab.delta import profile, suitable_target
from transversal_lab.dilation import dilate
from transversal_lab.extension import g_extension
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import (
    Diagonal,
    Hypercube,
    apply_isotopy,
    cyclic,
    pairwise_disjoint_family,
)
from transversal_lab.oracles import (
    brute_diagonals,
    brute_max_disjoint,
    brute_target_diagonals,
    brute_transversals,
)
from transversal_lab.search import (
    BudgetExhausted,
    SearchBudget,
    bachelor_cells,
    complete_avoiding,
    count_diagonals,
    count_transversals,
    enumerate_diagonals,
    enumerate_transversals,
    hill_climb_decomposition,
    hitting_set_check,
    max_disjoint_transversals,
    transversal_through,
)


def test_enumerate_diagonals_counts_match_oracle():
    H = cyclic(cyclic_group(3), 2)
    engine = list(enumerate_diagonals(H))
    assert len(engine) == 6
    assert {frozenset(D.cells()) for D in engine} == {
        frozenset(c) for c in brute_diagonals(H.symbols)
    }
    with_target = list(enumerate_diagonals(H, H.group, (0,)))
    assert len(with_target) == 6


def test_enumerate_diagonals_with_nonzero_target():
    H = ord6m_square(1)
    listed = [frozenset(D.cells()) for D in enumerate_diagonals(H, H.group, (3,))]
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
    for D in enumerate_diagonals(H, H.group, (4,)):
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


def _assert_bachelors_agree(H):
    # both scan engines against a DFS per cell and against the cells that the
    # brute-force oracle's transversals cover
    scan = bachelor_cells(H)
    assert scan.exhaustive and scan.checked_cells == H.n ** H.d
    frontier = search._frontier_scan(H, search._Gauge(SearchBudget()))
    per_cell = search._per_cell_scan(H, search._Gauge(SearchBudget()))
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


def _dfs_only(monkeypatch):
    # every cube is above bounds of 0, so both counts run on the DFS alone
    monkeypatch.setattr(search, "_DP_WORK_BOUND", 0)
    monkeypatch.setattr(search, "_TARGET_WORK_BOUND", 0)


def _assert_census(census, listed, keep):
    assert census.exact and census.count == len(listed)
    assert census.witnesses == tuple(listed[:keep])


def _assert_counts_agree(H, targets, keep=3):
    # the stored layers' count, the DFS listing, the census on either engine
    # and the brute-force oracle all count the same results
    listed = list(enumerate_transversals(H))
    layers = search._back_layers(H, search._Gauge(SearchBudget()))
    assert layers.count == len(listed) == len(brute_transversals(H.symbols))
    _assert_census(count_transversals(H, keep=keep), listed, keep)
    with pytest.MonkeyPatch.context() as mp:
        _dfs_only(mp)
        _assert_census(count_transversals(H, keep=keep), listed, keep)
    for t in targets:
        listed = list(enumerate_diagonals(H, H.group, (t,)))
        target = search._TargetSum.of(H, H.group, (t,))
        layers = search._back_layers(H, search._Gauge(SearchBudget()), target)
        assert layers.count == len(listed) == len(brute_target_diagonals(H.symbols, t)), t
        _assert_census(count_diagonals(H, None, (t,), keep=keep), listed, keep)
        with pytest.MonkeyPatch.context() as mp:
            _dfs_only(mp)
            _assert_census(count_diagonals(H, None, (t,), keep=keep), listed, keep)


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
        counts = [search._back_layers(H, gauge, search._TargetSum.of(H, H.group, (t,))).count
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
    # DFS needs 282,800 nodes
    census = count_transversals(cyclic(cyclic_group(10), 2), SearchBudget(max_nodes=20_000))
    assert census == search.Census(0, (), True, 13_606)


def test_count_diagonals_runs_the_dp_where_its_worst_case_is_small():
    # L8 has no diagonal with sum 4: 506 states count them, where the DFS
    # needs 109,600 nodes
    census = count_diagonals(l8_square(), None, (4,), SearchBudget(max_nodes=1_000))
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
    assert search._frontier_work(13, 2) > search._DP_WORK_BOUND
    census = count_transversals(z13, SearchBudget(max_nodes=10_000))
    assert (census.count, census.exact) == (153, False)
    # order 8 at d=3 lies above the target-sum bound but below the
    # transversal one, so this fails if the two bounds are merged again
    z8 = cyclic(cyclic_group(8), 3)
    assert search._target_work(8, 3, 8) > search._TARGET_WORK_BOUND
    assert search._target_work(8, 3, 8) <= search._DP_WORK_BOUND
    census = count_diagonals(z8, None, (0,), SearchBudget(max_nodes=1_000))
    assert (census.count, census.exact) == (256, False)


def test_count_under_max_results_stops_where_enumeration_stops():
    # a result budget keeps the count on the DFS, also below the DP bound, so
    # with a node cap as well the count is what `enumerate_*` lists
    z11 = cyclic(cyclic_group(11), 2)
    assert search._frontier_work(11, 2) <= search._DP_WORK_BOUND
    for max_nodes, reached in ((2_000, False), (5_000, True)):
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


@pytest.mark.parametrize("dfs_only", [False, True], ids=["dp", "dfs"])
def test_truncated_census_is_never_exact(monkeypatch, dfs_only):
    if dfs_only:
        _dfs_only(monkeypatch)
    H = turned_cyclic(4, 4)
    H6 = z6_isotope_square()
    for count in (lambda b: count_transversals(H, b, keep=8),
                  lambda b: count_diagonals(H6, None, (3,), b, keep=8)):
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


def _assert_listing_matches_dfs(H, brute=True, target_sum=None):
    # the layer listing yields the DFS's results (filtered to the target sum if
    # given), as the same tuples in the same order; streamed, so that no list
    # of results is held
    target = None if target_sum is None else search._TargetSum.of(H, H.group, (target_sum,))
    gauge = search._Gauge(SearchBudget())
    layers = search._layer_listing(search._back_layers(H, gauge, target), gauge)
    dfs = search._dfs_results(H, search._Gauge(SearchBudget()), target is None, target)
    cells = []
    for a, b in itertools.zip_longest(layers, dfs):
        assert a == b
        if brute:
            cells.append(tuple(c for c, _ in a))
    if brute:
        oracle = (brute_transversals(H.symbols) if target is None
                  else brute_target_diagonals(H.symbols, target_sum))
        assert sorted(cells) == sorted(oracle)


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
        target = search._TargetSum.of(H, H.group, (0,))
        layers = search._layer_listing(search._back_layers(H, search._Gauge(budget), target),
                                       search._Gauge(budget))
        dfs = search._dfs(H, search._Gauge(budget), transversal=False)
        assert list(itertools.islice(layers, 1000)) == list(itertools.islice(dfs, 1000))
        for t in range(1, H.n):
            assert list(enumerate_diagonals(H, H.group, (t,))) == []
        return
    for t in range(H.n):
        _assert_listing_matches_dfs(H, target_sum=t)


def test_listing_engine_is_chosen_by_the_budget(monkeypatch):
    # the layers run iff their worst case is within the DP bound and the node
    # cap and no result cap is set; otherwise the DFS lists
    H = cyclic(cyclic_group(5), 3)
    work = search._frontier_work(5, 3)
    dfs = search._dfs
    engines = []

    def spy(*args, **kwargs):
        engines.append("dfs")
        return dfs(*args, **kwargs)

    monkeypatch.setattr(search, "_dfs", spy)
    listed = list(enumerate_transversals(H, SearchBudget(max_nodes=work)))
    assert engines == [] and len(listed) == 3325
    packing = max_disjoint_transversals(H, budget=SearchBudget(max_nodes=work))
    assert engines == [] and packing.transversal_count == 3325
    assert len(list(enumerate_transversals(H, SearchBudget(max_nodes=work - 1)))) == 3325
    assert engines == ["dfs"]
    with pytest.raises(BudgetExhausted):
        list(enumerate_transversals(H, SearchBudget(max_results=3325)))
    assert engines == ["dfs"] * 2
    with monkeypatch.context() as mp:
        mp.setattr(search, "_DP_WORK_BOUND", work - 1)
        assert len(list(enumerate_transversals(H))) == 3325
    assert engines == ["dfs"] * 3


def test_node_budget_below_the_worst_case_lists_by_the_dfs():
    # Z11's worst case is 7,759,752; below it the DFS lists what it reaches,
    # as it did before the layers: 122 transversals in 5,000 nodes and 2,258
    # in 100,000
    z11 = cyclic(cyclic_group(11), 2)
    assert search._frontier_work(11, 2) == 7_759_752
    for max_nodes, reached in ((5_000, 122), (100_000, 2_258)):
        budget = SearchBudget(max_nodes=max_nodes)
        listed = []
        with pytest.raises(BudgetExhausted):
            listed.extend(enumerate_transversals(z11, budget))
        dfs = []
        with pytest.raises(BudgetExhausted):
            dfs.extend(search._dfs(z11, search._Gauge(budget), transversal=True))
        assert listed == [search._raw_to_diagonal(raw, 11) for raw in dfs]
        assert len(listed) == reached
        result = max_disjoint_transversals(z11, budget=budget)
        assert result.transversal_count == reached
        assert result.exhausted and not result.optimal and result.upper_bound is None


def _packing_ticks(monkeypatch, H):
    ticks = 0
    tick = search._Gauge.tick

    def counting_tick(gauge):
        nonlocal ticks
        ticks += 1
        tick(gauge)

    with monkeypatch.context() as mp:
        mp.setattr(search._Gauge, "tick", counting_tick)
        max_disjoint_transversals(H)
    return ticks


@pytest.mark.parametrize("make", [lambda: turned_cyclic(4, 4), ord8_square],
                         ids=["turned-cyclic-4-4", "ord8"])
def test_truncated_packing_is_never_optimal(monkeypatch, make):
    H = make()
    work = search._frontier_work(H.n, H.d)
    layers_total = _packing_ticks(monkeypatch, H)
    with monkeypatch.context() as mp:
        _dfs_only(mp)
        dfs_total = _packing_ticks(monkeypatch, H)
    full = max_disjoint_transversals(H)
    assert full.optimal and not full.exhausted
    cut_any = False
    for max_nodes in sorted({1, dfs_total // 4, dfs_total // 2, dfs_total - 1, dfs_total,
                             layers_total - 1, layers_total, work - 1, work}):
        result = max_disjoint_transversals(H, budget=SearchBudget(max_nodes=max_nodes))
        total = layers_total if max_nodes >= work else dfs_total
        if max_nodes < total:
            cut_any = True
            assert result.exhausted and not result.optimal, max_nodes
        else:
            assert result == full, max_nodes
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
    # the incremental greedy against a recount of every remaining set per step
    rng = random.Random(seed)
    cells = [(r, c) for r in range(5) for c in range(5)]
    sets = [frozenset(rng.sample(cells, rng.randrange(1, 6))) for _ in range(60)]
    remaining, expected = list(sets), []
    while remaining:
        freq = {}
        for cs in remaining:
            for c in cs:
                freq[c] = freq.get(c, 0) + 1
        best = min(freq, key=lambda c: (-freq[c], c))
        expected.append(best)
        remaining = [cs for cs in remaining if best not in cs]
    assert search._greedy_hitting_set(sets) == expected


def test_max_disjoint_small_decomposition():
    H = cyclic(cyclic_group(3), 2)
    result = max_disjoint_transversals(H)
    assert len(result.packing) == 3 == brute_max_disjoint(H.symbols)
    assert result.optimal
    assert pairwise_disjoint_family(result.packing)


def test_max_disjoint_respects_cap():
    H = cyclic(cyclic_group(3), 2)
    result = max_disjoint_transversals(H, cap=2)
    assert len(result.packing) == 2


def test_max_disjoint_no_transversals():
    result = max_disjoint_transversals(cyclic(cyclic_group(2), 2))
    assert result.packing == () and result.optimal and result.upper_bound == 0


def test_hill_climb_finds_decomposition():
    H = cyclic(cyclic_group(3), 2)
    parts = hill_climb_decomposition(H, SearchBudget(max_nodes=200_000, rng_seed=7))
    assert parts is not None and len(parts) == 3
    covered = set()
    for D in parts:
        assert D.has_distinct_symbols()
        covered |= D.cell_set()
    assert len(covered) == 9


def test_hill_climb_fails_when_no_transversal_exists():
    H = cyclic(cyclic_group(2), 2)
    assert hill_climb_decomposition(H, SearchBudget(max_nodes=20_000)) is None


def test_hill_climb_on_boosted_cube():
    H = g_extension(cyclic(cyclic_group(3), 2), cyclic_group(3), 3)
    parts = hill_climb_decomposition(H, SearchBudget(max_nodes=2_000_000, rng_seed=11))
    assert parts is not None and len(parts) == 9
    assert pairwise_disjoint_family(parts)
    assert len(set().union(*(D.cell_set() for D in parts))) == 27


def test_hill_climb_determinism():
    H = cyclic(cyclic_group(3), 2)
    a = hill_climb_decomposition(H, SearchBudget(max_nodes=100_000, rng_seed=3))
    b = hill_climb_decomposition(H, SearchBudget(max_nodes=100_000, rng_seed=3))
    assert a is not None and [x.cells() for x in a] == [x.cells() for x in b]


def test_hitting_set_check_empty_set_is_false():
    H = cyclic(cyclic_group(3), 2)
    assert not hitting_set_check(H, H.group, (0,), [])


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
            assert hitting_set_check(H, H.group, (t,), U) == expected, (sorted(U), t)
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_hitting_set_check_ord6m_starred_pair():
    H = ord6m_square(1)
    stars = ord6m_starred_cells(1)
    assert hitting_set_check(H, H.group, (3,), stars)
    # dropping one starred cell must break the property
    assert not hitting_set_check(H, H.group, (3,), stars[:1])


def test_hitting_set_check_covering_the_support_needs_no_search():
    # a diagonal avoiding the whole support has delta sum zero, so one branch
    # (the empty one) decides a nonzero target
    H = turned_cyclic(6, 4)
    region = turned_region(6, 4)
    target = suitable_target(H.group, 4)
    assert hitting_set_check(H, H.group, target, region, SearchBudget(max_nodes=1))


def test_hitting_set_check_prunes_a_row_with_no_allowed_cell():
    # with all of the last row forbidden no completion exists; a search that
    # finds the row empty only on reaching it takes 27,994 ticks here, and 814
    # when the forbidden row is row 2
    H = ord8_square()
    last_row = [c for c in H.cells() if c[0] == H.n - 1]
    assert hitting_set_check(H, H.group, (0,), last_row, SearchBudget(max_nodes=814))


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
    assert hitting_set_check(H, H.group, (5,), anti)
    total = ticks
    for max_nodes in (1, total // 2, total - 1):
        with pytest.raises(BudgetExhausted):
            hitting_set_check(H, H.group, (5,), anti, SearchBudget(max_nodes=max_nodes))
    assert hitting_set_check(H, H.group, (5,), anti, SearchBudget(max_nodes=total))


def _assert_completions_match_brute_force(H, rng, trials):
    # random partial diagonals and forbidden sets: a completion exists iff
    # some diagonal holds the partial cells and avoids the forbidden ones
    diagonals = [frozenset(cells) for cells in brute_diagonals(H.symbols)]
    every = list(H.cells())
    for _ in range(trials):
        size, partial = rng.randrange(H.n), []
        for cell in rng.sample(every, len(every)):
            if len(partial) < size and all(a != b for c in partial for a, b in zip(cell, c)):
                partial.append(cell)
        rate = rng.choice((0.1, 0.3, 0.6))
        forbidden = {c for c in every if c not in partial and rng.random() < rate}
        exists = any(set(partial) <= D and not D & forbidden for D in diagonals)
        found = complete_avoiding(H, partial, forbidden)
        assert (found is not None) == exists
        if found is not None:
            cells = set(found.cells())
            assert set(partial) <= cells and not cells & forbidden
            assert Diagonal.from_entries(H, found.entries).complete


def test_complete_avoiding_matches_brute_force_on_every_small_square(square_catalogue):
    rng = random.Random(2024)
    for squares in square_catalogue.values():
        for arr in squares:
            _assert_completions_match_brute_force(Hypercube(arr), rng, 12)


@pytest.mark.parametrize("name", ["z6-isotope", "ord6m-1"])
def test_complete_avoiding_matches_brute_force(name):
    H = {"z6-isotope": z6_isotope_square, "ord6m-1": lambda: ord6m_square(1)}[name]()
    _assert_completions_match_brute_force(H, random.Random(name), 200)


def test_complete_avoiding():
    H = ord6m_square(1)
    stars = ord6m_starred_cells(1)
    D = complete_avoiding(H, [stars[0]], [c for c in map(tuple, [])])
    assert D is not None and stars[0] in D.cells()
    with pytest.raises(ValueError):
        complete_avoiding(H, [(0, 0), (0, 1)], [])


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
