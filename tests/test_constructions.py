import itertools

import numpy as np
import pytest

from transversal_lab import constructions as cons
from transversal_lab.constructions import ConstructionError
from transversal_lab.delta import delta_sum, profile
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import cyclic, is_latin, pairwise_disjoint_family

from test_hypercube import bachelor_pre_switch


# -- corner-block construction --


def test_confirmed_bachelor_cells():
    H = cons.confirmed_bachelor(4, 4)
    assert H[(0, 0, 0, 0)] == 1
    assert H[(3, 1, 1, 1)] == 2
    H8 = cons.confirmed_bachelor(8, 4)
    assert bachelor_pre_switch(8, 4)[(1, 1, 0, 0)] == 0
    assert H8[(1, 1, 0, 0)] == 1


def test_confirmed_bachelor_delta_parity():
    for n, d in [(4, 4), (8, 4)]:
        H = cons.confirmed_bachelor(n, d)
        prof = profile(H)
        region = set(cons.bachelor_forbidden_region(d))
        for cell in H.cells():
            parity = prof.value_at(cell)[0] % 2
            assert (parity == 1) == (cell in region)


def test_confirmed_bachelor_matches_pre_switch_outside_block():
    H = cons.confirmed_bachelor(4, 4)
    base = bachelor_pre_switch(4, 4)
    region = set(cons.bachelor_forbidden_region(4))
    for cell in H.cells():
        if cell in region:
            assert H[cell] == 1 - base[cell]
        else:
            assert H[cell] == base[cell]


def _confirmed_bachelor_by_full_grids(n, d):
    # the construction on one full np.indices grid per axis, as it was first
    # written: the even shift, then symbols 0 and 1 swapped inside the corner
    grids = np.indices((n,) * d)
    sigma = grids.sum(axis=0)
    m = (grids % 2).sum(axis=0)
    base = np.where(m % 2 == 1, sigma - (m - 1), sigma - m) % n
    arr = base.copy()
    inner = np.all(grids <= 1, axis=0)
    block = arr[inner]
    arr[inner] = np.where(block == 0, 1, np.where(block == 1, 0, block))
    return base, arr


@pytest.mark.parametrize("n,d", [(4, 4), (8, 4), (12, 4), (4, 6), (8, 6)])
def test_confirmed_bachelor_matches_the_full_grid_construction(n, d):
    # every (n, d) of the witness family that the paper-claims check builds
    base, arr = _confirmed_bachelor_by_full_grids(n, d)
    got = cons._bachelor_base_formula(n, d)
    assert got.dtype == base.dtype and np.array_equal(got, base)
    assert np.array_equal(cons.confirmed_bachelor(n, d).symbols, arr)


@pytest.mark.parametrize("n,d", [(4, 2), (4, 4), (6, 2), (6, 4), (8, 2), (4, 6)])
def test_turned_cyclic_matches_the_full_grid_construction(n, d):
    grids = np.indices((n,) * d)
    arr = grids.sum(axis=0) % n
    region = np.all((grids == 0) | (grids == n // 2), axis=0)
    arr[region] = (arr[region] + n // 2) % n
    assert np.array_equal(cons.turned_cyclic(n, d).symbols, arr)


def test_confirmed_bachelor_rejects_bad_parameters():
    for n, d in [(6, 4), (4, 3), (4, 2), (5, 4)]:
        with pytest.raises(ConstructionError):
            cons.confirmed_bachelor(n, d)


def test_bachelor_transversal_44_table():
    T = cons.bachelor_transversal(4, 4)
    cols = list(zip(*(e.coords for e in T.entries)))
    assert cols[0] == (3, 1, 2, 0)
    assert cols[1] == (1, 3, 0, 2)
    assert cols[2] == (1, 3, 0, 2)
    assert cols[3] == (1, 2, 3, 0)
    assert tuple(e.symbol for e in T.entries) == (2, 3, 1, 0)


def test_bachelor_transversal_86_first_row():
    T = cons.bachelor_transversal(8, 6)
    assert T.entries[0].coords == (3, 1, 1, 1, 0, 0)
    assert T.entries[0].symbol == 2


def test_bachelor_transversal_family_validates():
    for n, d in [(4, 4), (8, 4), (12, 4), (4, 6), (8, 6)]:
        T = cons.bachelor_transversal(n, d)
        assert len(T.entries) == n
        region = set(cons.bachelor_forbidden_region(d))
        assert not (T.cell_set() & region)
        for axis in range(d):
            assert sorted(e.coords[axis] for e in T.entries) == list(range(n))
        assert sorted(e.symbol for e in T.entries) == list(range(n))


def test_bachelor_transversal_rejects_bad_parameters():
    with pytest.raises(ConstructionError):
        cons.bachelor_transversal(6, 4)
    with pytest.raises(ConstructionError):
        cons.bachelor_transversal(4, 3)


# -- third species --


def test_third_species_is_latin_and_blocked_cells():
    H = cons.third_species_44()
    assert is_latin(H)
    blocked = cons.third_species_blocked_cells()
    assert len(blocked) == 32
    prof = profile(H)
    odd = {c for c, v in prof.support.items() if v[0] % 2 == 1}
    assert odd == {e.coords for e in blocked}
    for e in blocked:
        assert H[e.coords] == e.symbol


def test_third_species_example_transversal():
    T = cons.third_species_example_transversal()
    assert [e for e in T.entries] == sorted(T.entries, key=lambda e: e.symbol)
    assert {e.coords for e in T.entries} == {(3, 1, 2, 0), (0, 2, 0, 3), (2, 0, 3, 1), (1, 3, 1, 2)}


def test_turned_cyclic_cells():
    assert cons.turned_cyclic(4, 4)[(0, 0, 0, 0)] == 2
    assert cons.turned_cyclic(6, 4)[(3, 3, 0, 0)] == 3


def test_turned_cyclic_differs_in_exactly_block_cells():
    for n, d in [(4, 4), (6, 4)]:
        H = cons.turned_cyclic(n, d)
        base = cyclic(cyclic_group(n), d)
        diff = int((H.symbols != base.symbols).sum())
        assert diff == 2**d
        prof = profile(H)
        assert set(prof.support) == set(cons.turned_region(n, d))


def test_turned_cyclic_rejects_bad_parameters():
    for n, d in [(2, 4), (5, 4), (4, 3)]:
        with pytest.raises(ConstructionError):
            cons.turned_cyclic(n, d)


@pytest.mark.parametrize(
    "build, n, d",
    [
        (cons.turned_cyclic, 4, 0),
        (cons.turned_cyclic, 4, -2),
        (cons.turned_cyclic_transversal, 4, 0),
        (cons.turned_cyclic_transversal, 4, -2),
        (cons.confirmed_bachelor, 0, 4),
        (cons.confirmed_bachelor, -4, 4),
        (cons.bachelor_transversal, 0, 4),
        (cons.bachelor_transversal, -4, 4),
    ],
)
def test_constructions_reject_orders_and_dimensions_below_their_least(build, n, d):
    with pytest.raises(ConstructionError):
        build(n, d)


def test_turned_cyclic_transversal_rows():
    T4 = cons.turned_cyclic_transversal(4, 4)
    assert T4.entries[0].coords == (0, 0, 0, 0) and T4.entries[0].symbol == 2
    assert T4.entries[1].coords == (1, 2, 1, 3) and T4.entries[1].symbol == 3
    T6 = cons.turned_cyclic_transversal(6, 4)
    assert T6.entries[0].symbol == 3
    e = T6.entries[3]  # i = 3, first entry of the second block
    assert e.coords == (3, 5, 3, 3) and e.symbol == 2


def test_turned_cyclic_transversal_works_for_squares():
    T = cons.turned_cyclic_transversal(8, 2)
    assert len(T.entries) == 8


def test_translated_transversals():
    for n in (4, 6):
        H = cons.turned_cyclic(n, 4)
        T = cons.turned_cyclic_transversal(n, 4)
        zero = cons.translated_transversals(H, T, [(0, 0, 0, 0)])
        assert zero[0].cell_set() == T.cell_set()
        vectors = list(itertools.product((0, n // 2), repeat=4))
        family = cons.translated_transversals(H, T, vectors)
        assert len(family) == 16
        assert pairwise_disjoint_family(family)


def test_translated_transversals_rejects_bad_vector():
    H = cons.turned_cyclic(4, 4)
    T = cons.turned_cyclic_transversal(4, 4)
    with pytest.raises(ConstructionError):
        cons.translated_transversals(H, T, [(1, 0, 0, 0)])
    for vector in [(0.5, 0, 0, 0), (2.0, 0, 0, 0), (True, 0, 0, 0)]:
        with pytest.raises(ValueError):
            cons.translated_transversals(H, T, [vector])


# -- fixed exhibits --


def test_ord8_square_cells():
    H = cons.ord8_square()
    assert H[(1, 2)] == 2
    assert is_latin(H)
    assert H.symbols[0].tolist() == [0, 1, 3, 4, 5, 6, 7, 2]


def test_ord8_marked_transversals():
    ta, tb = cons.ord8_marked_transversals()
    assert delta_sum(cons.ord8_square(), ta) == (4,)
    assert delta_sum(cons.ord8_square(), tb) == (4,)
    assert not (ta.cell_set() & tb.cell_set())


def test_ord8_blocking_cells_have_delta_seven():
    prof = profile(cons.ord8_square())
    for cell in cons.ord8_blocking_cells():
        assert prof.value_at(cell) == (7,)


def test_ord6m_square_matches_display():
    display = [
        [1, 2, 4, 3, 0, 5],
        [2, 1, 3, 4, 5, 0],
        [0, 3, 2, 5, 4, 1],
        [3, 4, 5, 0, 1, 2],
        [4, 5, 0, 1, 2, 3],
        [5, 0, 1, 2, 3, 4],
    ]
    assert cons.ord6m_square(1).symbols.tolist() == display


def test_ord6m_square_latin_for_several_m():
    for m in (1, 2, 3, 4):
        assert is_latin(cons.ord6m_square(m))
    with pytest.raises(ConstructionError):
        cons.ord6m_square(0)


def test_ord6m_marked_transversals_hit_stars():
    ta, tb = cons.ord6m_marked_transversals()
    stars = set(cons.ord6m_starred_cells(1))
    assert set(ta.cells()) & stars
    assert set(tb.cells()) & stars


def test_z6_isotope_square_is_symbol_swap_of_cyclic():
    from transversal_lab.hypercube import apply_isotopy

    H = cons.z6_isotope_square()
    base = cyclic(cyclic_group(6), 2)
    ident = list(range(6))
    swapped = apply_isotopy(base, [ident, ident, [0, 1, 2, 3, 5, 4]])
    assert H == swapped


def test_l8_square_delta_pattern():
    prof = profile(cons.l8_square())
    arr = prof.indices
    for r in (0, 2, 4, 6):
        assert not arr[r].any()
    for r in (1, 3, 5, 7):
        assert arr[r].tolist() == [0, 2, 2, 2, 2, 2, 4, 2]


def test_every_constructor_output_is_latin():
    cubes = [
        cons.confirmed_bachelor(4, 4),
        cons.confirmed_bachelor(12, 4),
        cons.third_species_44(),
        cons.turned_cyclic(6, 4),
        cons.ord8_square(),
        cons.ord6m_square(2),
        cons.z6_isotope_square(),
        cons.l8_square(),
    ]
    for H in cubes:
        assert is_latin(H)


def test_build_registry():
    g = cyclic_group(4)
    assert cons.build("cyclic", group=g, d=4) == cyclic(g, 4)
    assert cons.build("confirmed-bachelor", n=4, d=4) == cons.confirmed_bachelor(4, 4)
    assert cons.build("third-species-44") == cons.third_species_44()
    assert cons.build("turned-cyclic", n=4, d=4) == cons.turned_cyclic(4, 4)
    assert cons.build("ord8") == cons.ord8_square()
    assert cons.build("ord6m", m=2) == cons.ord6m_square(2)
    assert cons.build("z6-isotope") == cons.z6_isotope_square()
    assert cons.build("l8") == cons.l8_square()
    with pytest.raises(ConstructionError):
        cons.build("nonsense")
    with pytest.raises(ConstructionError):
        cons.build("cyclic")
    with pytest.raises(ConstructionError):
        cons.build("ord6m")
