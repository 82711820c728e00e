import random

import pytest

from transversal_lab import search
from transversal_lab.constructions import (
    confirmed_bachelor,
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
from transversal_lab.extension import g_extension
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import Diagonal, Hypercube, cyclic, pairwise_disjoint_family
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
    from transversal_lab.hypercube import apply_isotopy

    base = cyclic(cyclic_group(5), 2)
    twisted = apply_isotopy(base, [[2, 0, 4, 1, 3], [0, 3, 1, 4, 2], [1, 4, 0, 2, 3]])
    for H in (base, twisted):
        engine = {frozenset(D.cells()) for D in enumerate_transversals(H)}
        naive = {frozenset(c) for c in brute_transversals(H.symbols)}
        assert engine == naive and engine
