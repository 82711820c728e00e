import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transversal_lab.constructions import (
    ord6m_marked_transversals,
    ord6m_square,
    ord8_blocking_cells,
    ord8_marked_transversals,
    ord8_square,
    z6_isotope_square,
    z6_marked_diagonal,
)
from transversal_lab.delta import delta_sum, profile, suitable_target
from transversal_lab import extension
from transversal_lab.extension import (
    constant_to_transversal_fibre,
    extension_hitting_certificate,
    g_extension,
    hall_pair,
    iterated_decomposition,
    iterated_hypercube,
    lift_diagonal,
    lift_family,
    symbol_classes,
    transversal_through_fibre,
    transversal_to_constant_fibre,
)
from transversal_lab.groups import cyclic_group, index_table, parse_group
from transversal_lab.hypercube import (
    Diagonal,
    Hypercube,
    cyclic,
    is_latin,
    pairwise_disjoint_family,
    quasi_extend,
)
from transversal_lab.search import count_diagonals

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


def test_hall_pair_reduces_sigmas_that_are_not_canonical_tuples():
    # canonical tuples are looked up directly; lists, out-of-range components
    # and NumPy integers give the pair of their reductions, and an element
    # of the wrong length is refused whatever its form
    for g, canonical in ((cyclic_group(5), [(2,), (4,), (0,), (1,), (3,)]),
                         (parse_group("Z2xZ4"), [(1, 3), (0, 2), (1, 1), (0, 2),
                                                 (0, 0), (1, 0), (1, 3), (0, 1)])):
        assert g.sum(canonical) == g.identity()
        want = hall_pair(g, canonical)
        shifted = [tuple(c + m for c, m in zip(s, g.moduli)) for s in canonical]
        assert shifted[0] == ((7,) if g.order == 5 else (3, 7))
        for sigmas in ([list(s) for s in canonical], shifted,
                       [tuple(map(np.int64, s)) for s in canonical],
                       [np.array(s) - g.moduli for s in canonical]):
            assert hall_pair(g, sigmas) == want
        for wrong in ((*canonical[0], 0), [*canonical[0], 0], canonical[0][1:]):
            with pytest.raises(ValueError):
                hall_pair(g, [wrong, *canonical[1:]])


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
    T = lift_diagonal(L, D, 4)
    assert len(T.entries) == 6
    assert {e.coords[:2] for e in T.entries} == set(D.cells())
    ext = g_extension(L, L.group, 4)
    assert Diagonal.from_entries(ext, T.entries, transversal=True).complete


def test_lift_constant_diagonal_one_dimension():
    L = cyclic(cyclic_group(3), 2)
    D = symbol_classes(L)[0]
    T = lift_diagonal(L, D, 3)
    assert {e.coords[:2] for e in T.entries} == set(D.cells())


def test_lift_rejects_unsuitable_diagonal():
    L = cyclic(cyclic_group(4), 2)
    main = Diagonal.from_cells(L, [(i, i) for i in range(4)])
    with pytest.raises(ValueError):
        lift_diagonal(L, main, 4)


def test_lift_pads_middle_dimensions():
    L = z6_isotope_square()
    D = z6_marked_diagonal()
    T = lift_diagonal(L, D, 6)
    ext = g_extension(L, L.group, 6)
    assert Diagonal.from_entries(ext, T.entries, transversal=True).complete
    # entry i of D gets coordinate i on each middle dimension
    assert [e.coords[:5] for e in T.entries] == [
        e.coords + (i,) * 3 for i, e in enumerate(D.entries)
    ]


def test_transversal_through_fibre():
    L = z6_isotope_square()
    D = z6_marked_diagonal()
    g = L.group
    ext = g_extension(L, g, 4)
    T = lift_diagonal(L, D, 4)

    anchor = T.entries[2]
    again = transversal_through_fibre(L, D, 4, anchor)
    assert again.cell_set() == T.cell_set()

    alpha = ext.entry(D.entries[3].coords + (2, 5))
    through = transversal_through_fibre(L, D, 4, alpha)
    assert alpha in through.entries
    assert Diagonal.from_entries(ext, through.entries, transversal=True).complete

    # symbols shift by the group sum of the translation vector
    base_entry = next(e for e in T.entries if e.coords[:2] == alpha.coords[:2])
    vec_sum = sum(a - b for a, b in zip(alpha.coords[2:], base_entry.coords[2:])) % 6
    moved = next(e for e in through.entries if e.coords[:2] == alpha.coords[:2])
    assert moved.symbol == (base_entry.symbol + vec_sum) % 6

    outside = ext.entry((5, 5, 0, 0))
    with pytest.raises(ValueError):
        transversal_through_fibre(L, D, 4, outside)


def test_lift_family_decomposes_boosted_square():
    L = cyclic(cyclic_group(3), 2)
    family = lift_family(L, symbol_classes(L), 3)
    assert len(family) == 9
    assert pairwise_disjoint_family(family)
    assert len(set().union(*(d.cell_set() for d in family))) == 27


def test_lift_family_from_one_diagonal():
    L = z6_isotope_square()
    family = lift_family(L, [z6_marked_diagonal()], 4)
    assert len(family) == 36
    assert pairwise_disjoint_family(family)


def test_lift_family_rejects_overlapping_input():
    L = cyclic(cyclic_group(3), 2)
    D = symbol_classes(L)[0]
    with pytest.raises(ValueError):
        lift_family(L, [D, D], 3)


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
        family = lift_family(L, symbol_classes(L), d_prime)
        assert len(family) == expected
        assert pairwise_disjoint_family(family)
        covered = set().union(*(D.cell_set() for D in family))
        assert len(covered) == g.order**d_prime


# -- chains of Latin squares --


def _sub3():
    """The subtraction table of Z3: a Latin square that is no group's addition."""
    return Hypercube(np.subtract.outer(range(3), range(3)) % 3)


def test_quasigroup_validation():
    # a quasigroup's table is a Latin square, and quasi_extend boosts by
    # nothing else; the symbol at (x, t) is Q[H[x], t]
    with pytest.raises(ValueError):
        quasi_extend(cyclic(cyclic_group(2), 2), Hypercube(((0, 1), (0, 1))))
    q = cyclic(cyclic_group(3), 2)
    H = quasi_extend(_sub3(), q)
    assert q[1, 2] == 0 and _sub3()[0, 1] == 2
    assert H[0, 1, 2] == q[2, 2] == 1
    assert [t for t in range(3) if H[1, 0, t] == 0] == [2]


def test_quasi_extend_matches_group_extension():
    g = cyclic_group(4)
    L = cyclic(g, 2)
    assert quasi_extend(L, cyclic(g, 2)) == g_extension(L, g, 3)
    # the boost keeps the cube's group and its Latin flag
    klein = parse_group("Z2xZ2")
    boosted = quasi_extend(Hypercube(L.symbols, klein), L)
    assert boosted.group == klein and boosted._latin is None and is_latin(boosted)
    assert quasi_extend(L, L)._latin is True
    bare = quasi_extend(Hypercube([[0, 1], [0, 1]]), cyclic(cyclic_group(2), 2))
    assert bare._latin is None and not is_latin(bare)


def test_quasi_extend_rejects_order_mismatch():
    with pytest.raises(ValueError):
        quasi_extend(cyclic(cyclic_group(3), 2), cyclic(cyclic_group(4), 2))


def test_constant_diagonal_fibre_transversals():
    L = cyclic(cyclic_group(2), 2)
    D = symbol_classes(L)[0]
    parts = constant_to_transversal_fibre(quasi_extend(L, L), D)
    assert len(parts) == 2
    union = set().union(*(p.cell_set() for p in parts))
    assert len(union) == 4
    assert all(c[:2] in set(D.cells()) for c in union)

    L3 = cyclic(cyclic_group(3), 2)
    H3 = quasi_extend(L3, L3)
    for D in symbol_classes(L3):
        for T in constant_to_transversal_fibre(H3, D):
            assert Diagonal.from_entries(H3, T.entries, transversal=True).complete
    # the fibre lies one dimension above the diagonal
    with pytest.raises(ValueError):
        constant_to_transversal_fibre(L3, symbol_classes(L3)[0])


def test_transversal_fibre_constant_diagonals():
    L = cyclic(cyclic_group(3), 2)
    T = Diagonal.from_cells(L, [(0, 0), (1, 1), (2, 2)], transversal=True)
    H = quasi_extend(L, _sub3())
    parts = transversal_to_constant_fibre(H, T)
    assert len(parts) == 3
    assert sorted(p.entries[0].symbol for p in parts) == [0, 1, 2]
    for p in parts:
        assert p.is_constant()
        assert Diagonal.from_entries(H, p.entries).complete
    union = set().union(*(p.cell_set() for p in parts))
    assert union == {e.coords + (t,) for e in T.entries for t in range(3)}
    with pytest.raises(ValueError):
        transversal_to_constant_fibre(quasi_extend(H, L), T)


def _group_sums(g, d):
    """The index of x_1 + ... + x_d at every cell, by the checked group
    operations: the reference both boosts are held to."""
    n = g.order
    return np.array([g.index(g.sum(map(g.element, x)))
                     for x in itertools.product(range(n), repeat=d)]).reshape((n,) * d)


def test_iterated_hypercube_of_group_tables_is_cyclic():
    # the group's addition square, boosted by itself, is the cyclic cube at
    # every dimension, and so is the group extension of that square
    for g, d in itertools.product(map(parse_group, ["Z3", "Z4", "Z2xZ2", "Z2xZ4", "Z6"]),
                                  range(2, 6)):
        square = cyclic(g, 2)
        assert square.symbols.tolist() == [list(row) for row in index_table(g).add]
        chain = iterated_hypercube([square] * (d - 1))
        assert np.array_equal(chain.symbols, _group_sums(g, d)), (g, d)
        assert cyclic(g, d) == chain
        if d > 2:
            ext = g_extension(square, g, d)
            assert ext == chain and ext.group == g and is_latin(ext)


def test_iterated_decomposition_odd_dimension_gives_transversals():
    q4a = cyclic(cyclic_group(4), 2)
    q4b = cyclic(parse_group("Z2xZ2"), 2)
    parts = iterated_decomposition([q4a, q4b])
    assert len(parts) == 16
    H = iterated_hypercube([q4a, q4b])
    for D in parts:
        assert Diagonal.from_entries(H, D.entries, transversal=True).complete
    assert len(set().union(*(D.cell_set() for D in parts))) == 64


def test_iterated_decomposition_even_dimension_gives_constants():
    q3 = cyclic(cyclic_group(3), 2)
    parts = iterated_decomposition([q3, _sub3(), q3])
    assert len(parts) == 27
    assert all(D.is_constant() for D in parts)
    H = iterated_hypercube([q3, _sub3(), q3])
    for D in parts:
        assert Diagonal.from_entries(H, D.entries).complete


def test_iterated_decomposition_builds_each_level_once(monkeypatch):
    # each level's boost is built once and split part by part
    built = []
    real = extension.quasi_extend

    def counting(H, Q):
        built.append(H.d + 1)
        return real(H, Q)

    q3 = cyclic(cyclic_group(3), 2)
    monkeypatch.setattr(extension, "quasi_extend", counting)
    assert len(iterated_decomposition([q3, _sub3(), q3])) == 27
    assert built == [3, 4]
    built.clear()
    assert len(iterated_decomposition([q3])) == 3
    assert built == []


def test_iterated_rejects_order_mismatch():
    q3 = cyclic(cyclic_group(3), 2)
    with pytest.raises(ValueError):
        iterated_hypercube([q3, cyclic(cyclic_group(4), 2)])
    for bad in ([], [Hypercube([[0, 1], [0, 1]])], [cyclic(cyclic_group(3), 3)]):
        with pytest.raises(ValueError):
            iterated_hypercube(bad)
        with pytest.raises(ValueError):
            iterated_decomposition(bad)


# -- boosted hitting sets --


def test_extension_hitting_certificate_order8():
    L = ord8_square()
    g = L.group
    pair = ord8_blocking_cells()
    cert = extension_hitting_certificate(L, 4, pair)
    assert cert.holds

    ta, tb = ord8_marked_transversals()
    assert delta_sum(L, ta) == suitable_target(g, 4)
    family = lift_family(L, [ta, tb], 4)
    assert len(family) == 128
    assert pairwise_disjoint_family(family)
    image = {c + extra for c in pair for extra in itertools.product(range(8), repeat=2)}
    for T in family:
        assert set(T.cells()) & image


def test_quasigroup_reads_from_square_file(tmp_path):
    from transversal_lab.hypercube import load, save

    path = tmp_path / "q.lhc"
    save(z6_isotope_square(), path)
    q = load(path)
    H = quasi_extend(cyclic(cyclic_group(6), 2), q)
    assert q[0, 4] == 5 and H[0, 0, 4] == 5
    with pytest.raises(ValueError):
        quasi_extend(cyclic(cyclic_group(2), 2), cyclic(cyclic_group(2), 3))


# -- golden outputs: digests recorded from the componentwise implementation of
# the boost and the lifts, which the index-table version must reproduce


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _cube_digest(H: Hypercube) -> str:
    return _digest((str(H.group), H.symbols.tolist()))


def _diagonals_digest(diagonals) -> str:
    return _digest([
        [(tuple(int(c) for c in e.coords), int(e.symbol)) for e in D.entries]
        for D in diagonals
    ])


def test_golden_g_extension():
    assert _cube_digest(g_extension(ord6m_square(1), None, 4)) == "f7f4d7e6597631b3"
    klein = parse_group("Z2xZ2")
    assert _cube_digest(g_extension(cyclic(klein, 2), klein, 3)) == "856a35a8469319cc"
    # the group argument, not the cube's own group, labels the extension
    ext = g_extension(ord8_square(), parse_group("Z2xZ4"), 3)
    assert str(ext.group) == "Z2xZ4"
    assert _cube_digest(ext) == "3d34d3662702775e"


def test_lift_over_another_labeling():
    # the lift reads the cube's own group, so a boost over another labeling
    # is lifted from the cube built with that labeling
    g = parse_group("Z2xZ4")
    L = Hypercube(ord8_square().symbols, g)
    census = count_diagonals(L, suitable_target(g, 3), keep=1)
    assert census.count == 6000 and census.exact
    (D,) = census.witnesses
    T = lift_diagonal(L, D, 3)
    ext = g_extension(ord8_square(), g, 3)
    assert Diagonal.from_entries(ext, T.entries, transversal=True).complete
    assert {e.coords[:2] for e in T.entries} == D.cell_set()


def test_lifts_build_each_extension_once(monkeypatch):
    # every lift of one cube, labeling and dimension checks its result on one
    # extension; the same arrays over another labeling get their own
    built = []
    real = extension.g_extension

    def counting(L, group=None, d_prime=3):
        built.append((group, d_prime))
        return real(L, group, d_prime)

    monkeypatch.setattr(extension, "g_extension", counting)
    extension._extension.cache_clear()
    L = ord8_square()
    relabeled = Hypercube(L.symbols, parse_group("Z2xZ4"))
    for H in (L, relabeled, L):
        witnesses = count_diagonals(H, suitable_target(H.group, 3), keep=3).witnesses
        assert len(witnesses) == 3
        for D in witnesses:
            T = lift_diagonal(H, D, 3)
            assert {e.coords[:2] for e in T.entries} == D.cell_set()
    family = lift_family(L, list(ord8_marked_transversals()), 4)
    assert len(family) == 2 * 8 ** 2 and pairwise_disjoint_family(family)
    assert built == [(L.group, 3), (relabeled.group, 3), (L.group, 4)]
    extension._extension.cache_clear()


def test_golden_lifts():
    L = ord6m_square(1)
    family = lift_family(L, ord6m_marked_transversals(), 4)
    assert _diagonals_digest(family) == "b0081b333be087c2"
    L, D = z6_isotope_square(), z6_marked_diagonal()
    ext = g_extension(L, L.group, 4)
    through = [
        transversal_through_fibre(L, D, 4, ext.entry(e.coords + tail))
        for e in D.entries
        for tail in itertools.product(range(6), repeat=2)
    ]
    assert _diagonals_digest(through) == "b483b3ce0dff0786"
    assert _diagonals_digest([lift_diagonal(L, D, 6)]) == "1fa366951e0b7c5a"
