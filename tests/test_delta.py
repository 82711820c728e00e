import itertools
import random

import pytest

from transversal_lab.constructions import (
    confirmed_bachelor,
    l8_square,
    ord6m_marked_transversals,
    ord6m_square,
    ord8_square,
    turned_cyclic,
    z6_isotope_square,
    z6_marked_diagonal,
)
from transversal_lab.delta import (
    delta,
    delta_sum,
    is_suitable,
    profile,
    suitable_target,
    support_as_json,
)
from transversal_lab.extension import symbol_classes
from transversal_lab.groups import cyclic_group, parse_group
from transversal_lab.hypercube import Diagonal, Entry, Hypercube, apply_isotopy, cyclic
from transversal_lab.oracles import brute_diagonals
from transversal_lab.search import count_diagonals, enumerate_transversals

from test_hypercube import bachelor_pre_switch


def test_delta_zero_on_cyclic():
    for g in [cyclic_group(5), parse_group("Z2xZ2")]:
        H = cyclic(g, 3)
        for coords in [(0, 0, 0), (1, 2, 3), (3, 3, 1)]:
            assert delta(H, H.entry(coords)) == g.identity()


def test_delta_ord8_entry():
    H = ord8_square()
    assert H[(0, 7)] == 2
    assert delta(H, H.entry((0, 7))) == (3,)


def test_delta_pre_switch_odd_count_rule():
    H = bachelor_pre_switch(8, 4)
    for coords in itertools.product(range(8), repeat=2):
        cell = coords + (1, 0)
        m = sum(1 for x in cell if x % 2 == 1)
        expect = (-(m - 1)) % 8 if m % 2 == 1 else (-m) % 8
        assert delta(H, H.entry(cell)) == (expect,)


def test_delta_rejects_foreign_entry():
    H = cyclic(cyclic_group(3), 2)
    with pytest.raises(ValueError):
        delta(H, Entry((0, 0), 1))


def test_delta_sum_examples():
    H5 = cyclic(cyclic_group(5), 2)
    main = Diagonal.from_cells(H5, [(i, i) for i in range(5)])
    assert delta_sum(H5, main) == (0,)

    for T in ord6m_marked_transversals():
        assert delta_sum(ord6m_square(1), T) == (3,)

    assert delta_sum(z6_isotope_square(), z6_marked_diagonal()) == (3,)


def test_suitable_target_examples():
    assert suitable_target(cyclic_group(8), 2) == (4,)
    assert suitable_target(cyclic_group(6), 4) == (3,)
    for d_prime in range(2, 7):
        assert suitable_target(cyclic_group(5), d_prime) == (0,)
    with pytest.raises(ValueError):
        suitable_target(cyclic_group(5), 1)


def test_is_suitable():
    H = ord6m_square(1)
    for T in ord6m_marked_transversals():
        assert is_suitable(H, T, 2)
        assert is_suitable(H, T, 4)

    H8 = cyclic(cyclic_group(8), 2)
    main = Diagonal.from_cells(H8, [(i, i) for i in range(8)])
    assert not is_suitable(H8, main, 2)

    assert is_suitable(z6_isotope_square(), z6_marked_diagonal(), 4)

    partial = Diagonal.from_cells(H8, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        is_suitable(H8, partial, 2)


def test_profile_cyclic_empty():
    prof = profile(cyclic(cyclic_group(4), 3))
    assert not prof.support
    assert all(len(p) == 0 for p in prof.projections)


def test_profile_l8():
    prof = profile(l8_square())
    assert len(prof.support) == 28
    assert prof.projections[0] == frozenset({1, 3, 5, 7})
    assert prof.projections[1] == frozenset(range(1, 8))
    assert prof.projection_sizes() == (4, 7)
    for r in (1, 3, 5, 7):
        assert [int(prof.indices[r, c]) for c in range(8)] == [0, 2, 2, 2, 2, 2, 4, 2]
    for r in (0, 2, 4, 6):
        assert not prof.indices[r].any()


def test_profile_ord6m_support():
    for m in (1, 2, 3):
        n = 6 * m
        prof = profile(ord6m_square(m))
        expected = {
            (0, 0): m, (0, m): m, (0, 2 * m): 2 * m, (0, 4 * m): 2 * m,
            (m, 0): m, (m, m): (-m) % n,
            (2 * m, 0): (-2 * m) % n, (2 * m, 2 * m): (-2 * m) % n,
            (2 * m, 4 * m): (-2 * m) % n,
        }
        assert {c: v[0] for c, v in prof.support.items()} == expected


def test_profile_value_at_and_json():
    prof = profile(ord6m_square(1))
    assert prof.value_at((1, 1)) == (5,)
    assert prof.value_at((3, 3)) == (0,)
    records = support_as_json(prof)
    assert {"coords": [1, 1], "delta": [5]} in records
    assert len(records) == 9


def test_constant_diagonal_sum_rule(square_catalogue):
    # every constant diagonal sums to -d times the all-element sum
    for arr in square_catalogue[4][:40]:
        H = Hypercube(arr)
        g = H.group
        expect = g.scalar_mul(-2, g.g_plus())
        for D in symbol_classes(H):
            assert delta_sum(H, D) == expect


def test_constant_diagonal_sum_rule_klein():
    g = parse_group("Z2xZ2")
    H = cyclic(g, 2)
    for D in symbol_classes(H):
        assert delta_sum(H, D) == g.identity()


def test_even_even_cyclic_has_no_suitable_diagonal():
    for n, d in [(2, 2), (4, 2), (2, 4)]:
        g = cyclic_group(n)
        H = cyclic(g, d)
        target = suitable_target(g, d)
        assert target == (n // 2,) != (0,)
        for cells in brute_diagonals(H.symbols):
            D = Diagonal.from_cells(H, cells)
            assert delta_sum(H, D) == (0,)


def test_deviation_sum_invariant_on_enumerated_transversals():
    cases = [
        cyclic(cyclic_group(3), 2),
        cyclic(cyclic_group(2), 3),
        ord6m_square(1),
        turned_cyclic(4, 4),
        cyclic(parse_group("Z2xZ2"), 2),
    ]
    for H in cases:
        g = H.group
        expect = g.scalar_mul(1 - H.d, g.g_plus())
        count = 0
        for T in enumerate_transversals(H):
            assert delta_sum(H, T) == expect
            count += 1
            if count >= 200:
                break


def test_profile_memoization_returns_same_object():
    H = confirmed_bachelor(4, 4)
    assert profile(H) is profile(H)


def test_one_array_under_two_labelings():
    # cubes compare and hash by their arrays alone, so the memo must key on
    # the group too, or one labeling's profile would answer for the other
    z4 = cyclic(cyclic_group(4), 2)
    klein = Hypercube(z4.symbols, parse_group("Z2xZ2"))
    assert z4 == klein and hash(z4) == hash(klein)
    prof_z4, prof_klein = profile(z4), profile(klein)
    assert prof_z4 is not prof_klein
    assert (len(prof_z4.support), len(prof_klein.support)) == (0, 4)
    assert (prof_z4.group, prof_klein.group) == (z4.group, klein.group)
    assert [count_diagonals(z4, s).count for s in z4.group.elements()] == [24, 0, 0, 0]
    assert [count_diagonals(klein, s).count for s in klein.group.elements()] == [8, 0, 16, 0]
    assert list(klein.group.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize(
    "literal, d, seed",
    [("Z2xZ4", 2, 1), ("Z2xZ2", 3, 2), ("Z3xZ3", 2, 3), ("Z6", 3, 4), ("Z8", 2, 5),
     ("Z2xZ4", 3, 6)],
)
def test_profile_matches_delta_on_seeded_isotopes(literal, d, seed):
    # the table lookup of profile against the componentwise, checked delta
    g = parse_group(literal)
    rng = random.Random(seed)
    perms = [rng.sample(range(g.order), g.order) for _ in range(d + 1)]
    H = apply_isotopy(cyclic(g, d), perms)
    prof = profile(H)
    assert prof.support
    for cell in H.cells():
        expect = delta(H, H.entry(cell))
        assert prof.value_at(cell) == expect
        assert prof.indices[cell] == g.index(expect)
        assert prof.support.get(cell, g.identity()) == expect
