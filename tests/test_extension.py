import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transversal_lab.constructions import (
    ord6m_marked_transversals,
    ord6m_square,
    ord6m_starred_cells,
    ord8_blocking_cells,
    ord8_marked_transversals,
    ord8_square,
    z6_isotope_square,
    z6_marked_diagonal,
)
from transversal_lab.delta import delta_sum, profile, suitable_target
from transversal_lab.extension import (
    ExtensionMap,
    Quasigroup,
    constant_to_transversal_fibre,
    extension_hitting_certificate,
    fibre,
    g_extension,
    hall_pair,
    iterated_decomposition,
    iterated_hypercube,
    lift_diagonal,
    lift_family,
    project,
    quasi_extend,
    symbol_classes,
    transversal_through_fibre,
    transversal_to_constant_fibre,
)
from transversal_lab.groups import cyclic_group, parse_group
from transversal_lab.hypercube import (
    Diagonal,
    Entry,
    Hypercube,
    cyclic,
    is_latin,
    pairwise_disjoint_family,
)

def test_extension_of_cyclic_is_cyclic():
    for g in [cyclic_group(4), parse_group("Z2xZ2")]:
        L = cyclic(g, 2)
        assert g_extension(L, g, 4) == cyclic(g, 4)


def test_extension_is_latin_and_preserves_deviation():
    L = z6_isotope_square()
    ext = g_extension(L, L.group, 3)
    assert is_latin(ext)
    prof_base = profile(L)
    prof_ext = profile(ext)
    for coords in itertools.product(range(6), repeat=3):
        assert prof_ext.value_at(coords) == prof_base.value_at(coords[:2])


def test_extension_deviation_preserved_ord8_d4():
    L = ord8_square()
    ext = g_extension(L, L.group, 4)
    prof_base = profile(L)
    prof_ext = profile(ext)
    rng = random.Random(5)
    for _ in range(1000):
        coords = tuple(rng.randrange(8) for _ in range(4))
        assert prof_ext.value_at(coords) == prof_base.value_at(coords[:2])


def test_extension_rejects_bad_parameters():
    L = cyclic(cyclic_group(4), 2)
    with pytest.raises(ValueError):
        g_extension(L, cyclic_group(4), 2)
    with pytest.raises(ValueError):
        g_extension(L, cyclic_group(5), 3)


def test_project_and_fibre():
    L = z6_isotope_square()
    mapping = ExtensionMap(2, 4, L.group)
    ext = g_extension(L, L.group, 4)
    e = L.entry((2, 3))
    fib = fibre([e], mapping, ext)
    assert len(fib) == 36
    assert {project(a, mapping, L) for a in fib} == {e}

    one_up = ExtensionMap(2, 3, L.group)
    ext3 = g_extension(L, L.group, 3)
    assert len(fibre([e], one_up, ext3)) == 6

    # the extension is the disjoint union of the fibres of the base entries
    all_cells = set()
    for base_entry in L.entries():
        cells = {a.coords for a in fibre([base_entry], one_up, ext3)}
        assert not (cells & all_cells)
        all_cells |= cells
    assert len(all_cells) == 6**3


def test_extension_map_validation():
    with pytest.raises(ValueError):
        ExtensionMap(3, 3, cyclic_group(4))


# -- zero-sum pairing --


def test_hall_pair_all_zero():
    g = cyclic_group(5)
    a, b = hall_pair(g, [g.identity()] * 5)
    assert a == b == [g.element(i) for i in range(5)]


def test_hall_pair_examples():
    g = cyclic_group(3)
    sigmas = [(0,), (1,), (2,)]
    a, b = hall_pair(g, sigmas)
    assert sorted(a) == sorted(b) == [(0,), (1,), (2,)]
    assert all(g.sub(x, y) == s for x, y, s in zip(a, b, sigmas))

    g4 = cyclic_group(4)
    a, b = hall_pair(g4, [(1,)] * 4)
    assert sorted(a) == sorted(b) == [(i,) for i in range(4)]
    assert all(g4.sub(x, y) == (1,) for x, y in zip(a, b))


def test_hall_pair_rejects_bad_input():
    g = cyclic_group(4)
    with pytest.raises(ValueError):
        hall_pair(g, [(1,), (0,), (0,), (0,)])
    with pytest.raises(ValueError):
        hall_pair(g, [(0,)] * 3)


def test_hall_pair_every_zero_sum_sequence_of_small_groups():
    # all 8,540 zero-sum sequences over the abelian groups of order 2 to 6
    checked = 0
    for g in map(parse_group, ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6")):
        elems = sorted(g.elements())
        for head in itertools.product(elems, repeat=g.order - 1):
            sigmas = [*head, g.neg(g.sum(head))]
            a, b = hall_pair(g, sigmas)
            assert sorted(a) == sorted(b) == elems
            assert all(g.sub(x, y) == s for x, y, s in zip(a, b, sigmas))
            checked += 1
    assert checked == 8540


HALL_GROUPS = [
    cyclic_group(5),
    cyclic_group(8),
    cyclic_group(12),
    parse_group("Z2xZ2"),
    parse_group("Z2xZ4"),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), gi=st.integers(min_value=0, max_value=len(HALL_GROUPS) - 1))
def test_hall_pair_property(data, gi):
    g = HALL_GROUPS[gi]
    n = g.order
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    sigmas = [g.element(i) for i in picks]
    sigmas.append(g.neg(g.sum(sigmas)))
    a, b = hall_pair(g, sigmas)
    assert sorted(a) == sorted(g.elements())
    assert sorted(b) == sorted(g.elements())
    assert all(g.sub(x, y) == s for x, y, s in zip(a, b, sigmas))


# -- lifting --


def test_lift_marked_diagonal_to_dimension_four():
    L = z6_isotope_square()
    D = z6_marked_diagonal()
    T = lift_diagonal(L, D, L.group, 4)
    assert len(T.entries) == 6
    assert {e.coords[:2] for e in T.entries} == set(D.cells())
    ext = g_extension(L, L.group, 4)
    assert Diagonal.from_entries(ext, T.entries, transversal=True).complete


def test_lift_constant_diagonal_one_dimension():
    L = cyclic(cyclic_group(3), 2)
    D = symbol_classes(L)[0]
    T = lift_diagonal(L, D, L.group, 3)
    assert {e.coords[:2] for e in T.entries} == set(D.cells())


def test_lift_rejects_unsuitable_diagonal():
    L = cyclic(cyclic_group(4), 2)
    main = Diagonal.from_cells(L, [(i, i) for i in range(4)])
    with pytest.raises(ValueError):
        lift_diagonal(L, main, L.group, 4)


def test_lift_with_seeded_padding():
    L = z6_isotope_square()
    D = z6_marked_diagonal()
    T1 = lift_diagonal(L, D, L.group, 6, rng=random.Random(1))
    T2 = lift_diagonal(L, D, L.group, 6, rng=random.Random(1))
    assert T1.cells() == T2.cells()
    ext = g_extension(L, L.group, 6)
    Diagonal.from_entries(ext, T1.entries, transversal=True)


def test_transversal_through_fibre():
    L = z6_isotope_square()
    D = z6_marked_diagonal()
    g = L.group
    ext = g_extension(L, g, 4)
    T = lift_diagonal(L, D, g, 4)

    anchor = T.entries[2]
    again = transversal_through_fibre(L, D, g, 4, anchor)
    assert again.cell_set() == T.cell_set()

    alpha = ext.entry(D.entries[3].coords + (2, 5))
    through = transversal_through_fibre(L, D, g, 4, alpha)
    assert alpha in through.entries
    assert Diagonal.from_entries(ext, through.entries, transversal=True).complete

    # symbols shift by the group sum of the translation vector
    base_entry = next(e for e in T.entries if e.coords[:2] == alpha.coords[:2])
    vec_sum = sum(a - b for a, b in zip(alpha.coords[2:], base_entry.coords[2:])) % 6
    moved = next(e for e in through.entries if e.coords[:2] == alpha.coords[:2])
    assert moved.symbol == (base_entry.symbol + vec_sum) % 6

    outside = ext.entry((5, 5, 0, 0))
    with pytest.raises(ValueError):
        transversal_through_fibre(L, D, g, 4, outside)


def test_lift_family_decomposes_boosted_square():
    L = cyclic(cyclic_group(3), 2)
    family = lift_family(L, symbol_classes(L), L.group, 3)
    assert len(family) == 9
    assert pairwise_disjoint_family(family)
    assert len(set().union(*(d.cell_set() for d in family))) == 27


def test_lift_family_from_one_diagonal():
    L = z6_isotope_square()
    family = lift_family(L, [z6_marked_diagonal()], L.group, 4)
    assert len(family) == 36
    assert pairwise_disjoint_family(family)


def test_lift_family_rejects_overlapping_input():
    L = cyclic(cyclic_group(3), 2)
    D = symbol_classes(L)[0]
    with pytest.raises(ValueError):
        lift_family(L, [D, D], L.group, 3)


def test_symbol_classes():
    L = cyclic(cyclic_group(3), 2)
    classes = symbol_classes(L)
    assert {e.coords for e in classes[0].entries} == {(0, 0), (1, 2), (2, 1)}
    covered = set()
    for D in classes:
        assert D.is_constant()
        covered |= D.cell_set()
    assert len(covered) == 9
    with pytest.raises(ValueError):
        symbol_classes(cyclic(cyclic_group(3), 3))


def test_decomposition_exists_under_each_sufficient_condition():
    # odd target dimension; odd order; two even factors in the group
    cases = [
        (cyclic_group(4), 3, 16),
        (cyclic_group(5), 4, 125),
        (parse_group("Z2xZ2"), 4, 64),
    ]
    for g, d_prime, expected in cases:
        L = cyclic(g, 2)
        family = lift_family(L, symbol_classes(L), g, d_prime)
        assert len(family) == expected
        assert pairwise_disjoint_family(family)
        covered = set().union(*(D.cell_set() for D in family))
        assert len(covered) == g.order**d_prime


# -- quasigroup extension --


def test_quasigroup_validation():
    with pytest.raises(ValueError):
        Quasigroup(((0, 1), (0, 1)))
    q = Quasigroup.from_group(cyclic_group(3))
    assert q.apply(1, 2) == 0
    assert q.solve_right(1, 0) == 2


def test_quasi_extend_matches_group_extension():
    g = cyclic_group(4)
    L = cyclic(g, 2)
    q = Quasigroup.from_group(g)
    assert quasi_extend(L, q) == g_extension(L, g, 3)


def test_quasi_extend_rejects_order_mismatch():
    with pytest.raises(ValueError):
        quasi_extend(cyclic(cyclic_group(3), 2), Quasigroup.from_group(cyclic_group(4)))


def test_constant_diagonal_fibre_transversals():
    L = cyclic(cyclic_group(2), 2)
    q = Quasigroup.from_group(cyclic_group(2))
    D = symbol_classes(L)[0]
    parts = constant_to_transversal_fibre(L, q, D)
    assert len(parts) == 2
    union = set().union(*(p.cell_set() for p in parts))
    assert len(union) == 4
    assert all(c[:2] in set(D.cells()) for c in union)

    L3 = cyclic(cyclic_group(3), 2)
    q3 = Quasigroup.from_group(cyclic_group(3))
    for D in symbol_classes(L3):
        parts = constant_to_transversal_fibre(L3, q3, D)
        H3 = quasi_extend(L3, q3)
        for T in parts:
            assert Diagonal.from_entries(H3, T.entries, transversal=True).complete


def test_transversal_fibre_constant_diagonals():
    L = cyclic(cyclic_group(3), 2)
    q = Quasigroup.from_group(cyclic_group(3))
    T = Diagonal.from_cells(L, [(0, 0), (1, 1), (2, 2)], transversal=True)
    parts = transversal_to_constant_fibre(L, q, T)
    assert len(parts) == 3
    assert sorted(p.entries[0].symbol for p in parts) == [0, 1, 2]
    for p in parts:
        assert p.is_constant()
    union = set().union(*(p.cell_set() for p in parts))
    assert union == {e.coords + (t,) for e in T.entries for t in range(3)}


def test_iterated_hypercube_of_group_tables_is_cyclic():
    g = cyclic_group(3)
    q = Quasigroup.from_group(g)
    assert iterated_hypercube([q, q, q]) == cyclic(g, 4)


def test_iterated_decomposition_odd_dimension_gives_transversals():
    q4a = Quasigroup.from_group(cyclic_group(4))
    q4b = Quasigroup.from_group(parse_group("Z2xZ2"))
    parts = iterated_decomposition([q4a, q4b])
    assert len(parts) == 16
    H = iterated_hypercube([q4a, q4b])
    for D in parts:
        assert Diagonal.from_entries(H, D.entries, transversal=True).complete
    assert len(set().union(*(D.cell_set() for D in parts))) == 64


def test_iterated_decomposition_even_dimension_gives_constants():
    q3 = Quasigroup.from_group(cyclic_group(3))
    sub3 = Quasigroup(tuple(tuple((r - c) % 3 for c in range(3)) for r in range(3)))
    parts = iterated_decomposition([q3, sub3, q3])
    assert len(parts) == 27
    assert all(D.is_constant() for D in parts)


def test_iterated_rejects_order_mismatch():
    with pytest.raises(ValueError):
        iterated_hypercube([Quasigroup.from_group(cyclic_group(3)),
                            Quasigroup.from_group(cyclic_group(4))])


# -- boosted hitting sets --


def test_extension_hitting_certificate_order8():
    L = ord8_square()
    g = L.group
    pair = ord8_blocking_cells()
    cert = extension_hitting_certificate(L, g, 4, pair)
    assert cert.holds

    ta, tb = ord8_marked_transversals()
    assert delta_sum(L, g, ta) == suitable_target(g, 4)
    family = lift_family(L, [ta, tb], g, 4)
    assert len(family) == 128
    assert pairwise_disjoint_family(family)
    image = {c + extra for c in pair for extra in itertools.product(range(8), repeat=2)}
    for T in family:
        assert set(T.cells()) & image


def test_quasigroup_reads_from_square_file(tmp_path):
    from transversal_lab.hypercube import load, save

    path = tmp_path / "q.lhc"
    save(z6_isotope_square(), path)
    q = Quasigroup.from_square(load(path))
    assert q.order == 6 and q.apply(0, 4) == 5
    with pytest.raises(ValueError):
        Quasigroup.from_square(cyclic(cyclic_group(2), 3))
