import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transversal_lab.constructions import (
    confirmed_bachelor,
    l8_square,
    ord8_square,
    turned_cyclic,
)
from transversal_lab.groups import cyclic_group, parse_group
from transversal_lab.hypercube import (
    Diagonal,
    Entry,
    FormatError,
    Hypercube,
    apply_isotopy,
    cyclic,
    is_latin,
    parse,
    serialize,
    subcube,
)


def bachelor_pre_switch(n, d):
    """Local re-derivation of the even-shift cube before its corner swap."""
    grids = np.indices((n,) * d)
    sigma = grids.sum(axis=0)
    m = (grids % 2).sum(axis=0)
    return Hypercube(np.where(m % 2 == 1, sigma - (m - 1), sigma - m) % n, cyclic_group(n))


def test_cyclic_z2_square():
    H = cyclic(cyclic_group(2), 2)
    assert H.symbols.tolist() == [[0, 1], [1, 0]]


def test_cyclic_value_example():
    H = cyclic(cyclic_group(4), 4)
    assert H[(1, 2, 3, 0)] == 2


def test_cyclic_klein_table():
    g = parse_group("Z2xZ2")
    H = cyclic(g, 2)
    for i in range(4):
        for j in range(4):
            assert H[(i, j)] == g.index(g.add(g.element(i), g.element(j)))
    assert is_latin(H)


def test_is_latin_examples():
    assert is_latin(cyclic(cyclic_group(6), 3))
    assert not is_latin(Hypercube(np.array([[0, 0], [1, 1]])))
    assert is_latin(confirmed_bachelor(8, 4))


def _latin_axes(H):
    """The axes along which every line holds each symbol once, by a loop over
    the lines."""
    n, d = H.n, H.d
    return [a for a in range(d)
            if all(sorted(H[c[:a] + (v,) + c[a:]] for v in range(n)) == list(range(n))
                   for c in itertools.product(range(n), repeat=d - 1))]


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_is_latin_fails_on_cubes_broken_along_one_axis(axis):
    # symbol = sum of the other coordinates plus f(x_axis) mod 4 is Latin
    # along every other axis, and along ``axis`` exactly when f is a
    # permutation: constant f, and f folding 0 onto 1, break that axis alone
    n = 4
    grid = np.indices((n,) * 3)
    rest = grid.sum(axis=0) - grid[axis]
    for f in ([0] * n, [1, 1, 2, 3]):
        H = Hypercube((rest + np.array(f)[grid[axis]]) % n)
        assert _latin_axes(H) == [a for a in range(3) if a != axis]
        assert not is_latin(H) and not is_latin(H)  # the second from the cache
    H = Hypercube((rest + grid[axis]) % n)
    assert _latin_axes(H) == [0, 1, 2] and is_latin(H)


def test_line_of_exhibit_squares():
    assert l8_square().symbols[1].tolist() == [1, 4, 5, 6, 7, 0, 3, 2]
    assert ord8_square().symbols[1].tolist() == [3, 4, 2, 6, 7, 5, 1, 0]


def test_subcube_full_restriction_is_identity():
    H = cyclic(cyclic_group(3), 2)
    assert np.array_equal(subcube(H, [range(3), range(3)]), H.symbols)


def test_subcube_pre_switch_corner_is_binary_cyclic():
    for n, d in [(4, 4), (8, 4)]:
        H = bachelor_pre_switch(n, d)
        corner = subcube(H, [(0, 1)] * d)
        expected = np.indices((2,) * d).sum(axis=0) % 2
        assert np.array_equal(corner, expected)


def test_subcube_turned_corner_is_relabeled_binary_cyclic():
    H = turned_cyclic(4, 4)
    corner = subcube(H, [(0, 2)] * 4)
    parity = np.indices((2,) * 4).sum(axis=0) % 2
    assert np.array_equal(corner, np.where(parity == 0, 2, 0))


def test_subcube_rejects_bad_indices():
    H = cyclic(cyclic_group(3), 2)
    with pytest.raises(ValueError):
        subcube(H, [[], [0]])
    with pytest.raises(ValueError):
        subcube(H, [[0], [3]])


def test_apply_isotopy_identity():
    H = cyclic(cyclic_group(4), 3)
    perms = [list(range(4))] * 4
    assert apply_isotopy(H, perms) == H


def test_apply_isotopy_symbol_cycle_stays_latin():
    H = cyclic(cyclic_group(3), 2)
    out = apply_isotopy(H, [[0, 1, 2], [0, 1, 2], [1, 2, 0]])
    assert is_latin(out)
    assert out != H


def test_apply_isotopy_entry_mapping():
    H = cyclic(cyclic_group(3), 2)
    p_row, p_col, p_sym = [1, 2, 0], [0, 2, 1], [2, 0, 1]
    out = apply_isotopy(H, [p_row, p_col, p_sym])
    for r in range(3):
        for c in range(3):
            assert out[(p_row[r], p_col[c])] == p_sym[H[(r, c)]]


def test_apply_isotopy_rejects_non_bijection():
    H = cyclic(cyclic_group(3), 2)
    with pytest.raises(ValueError):
        apply_isotopy(H, [[0, 0, 1], [0, 1, 2], [0, 1, 2]])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=8), d=st.integers(min_value=2, max_value=3))
def test_apply_isotopy_preserves_latin_property(data, n, d):
    H = cyclic(cyclic_group(n), d)
    perms = [data.draw(st.permutations(range(n))) for _ in range(d + 1)]
    assert is_latin(apply_isotopy(H, perms))


def test_parse_simple():
    assert parse("lhc 2 2\n0 1\n1 0") == cyclic(cyclic_group(2), 2)
    assert parse("lhc 2 3\n0 1 2\n1 2 0\n2 0 1") == cyclic(cyclic_group(3), 2)


def test_parse_comments_and_whitespace():
    text = "# a comment\nlhc 2 2\n# another\n0 1\n\n1   0\n"
    assert parse(text) == cyclic(cyclic_group(2), 2)


def test_serialize_parse_roundtrip():
    for H in [cyclic(cyclic_group(4), 3), ord8_square(), turned_cyclic(4, 4)]:
        text = serialize(H)
        assert parse(text) == H
        assert serialize(parse(text)) == text


def test_parse_errors():
    with pytest.raises(FormatError):
        parse("latin 2 2\n0 1\n1 0")
    with pytest.raises(FormatError):
        parse("lhc 2 2\n0 1\n1")
    with pytest.raises(FormatError):
        parse("lhc 2 2\n0 1\n1 5")
    with pytest.raises(FormatError):
        parse("")
    with pytest.raises(FormatError):
        parse("lhc 2\n0 1\n1 0")
    with pytest.raises(FormatError):
        parse("lhc 2 2\n0 1\n1 x")


def test_hypercube_validation():
    with pytest.raises(ValueError):
        Hypercube(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        Hypercube(np.array([5]))
    with pytest.raises(ValueError):
        Hypercube(np.array([[0, 1], [1, 9]]))
    with pytest.raises(ValueError):
        Hypercube(np.array([[0, 1], [1, 0]]), cyclic_group(3))


def test_hypercube_symbols_readonly():
    H = cyclic(cyclic_group(3), 2)
    with pytest.raises(ValueError):
        H.symbols[0, 0] = 2


def test_diagonal_validation():
    H = cyclic(cyclic_group(3), 2)
    D = Diagonal.from_cells(H, [(0, 0), (1, 1), (2, 2)])
    assert D.complete
    assert D.symbols() == (0, 2, 1)
    with pytest.raises(ValueError):
        Diagonal.from_cells(H, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        Diagonal.from_entries(H, [Entry((0, 0), 1)])
    with pytest.raises(ValueError):
        Diagonal.from_cells(H, [(0, 0), (1, 2), (2, 1)], transversal=True)
    T = Diagonal.from_cells(H, [(0, 0), (1, 1), (2, 2)], transversal=True)
    assert T.complete and T.has_distinct_symbols()


def test_diagonal_rejects_cells_outside_the_host():
    # numpy would wrap (-1, 0) onto (2, 0), which shares row 2 with (2, 1),
    # and index 3 would raise IndexError
    H = cyclic(cyclic_group(3), 2)
    for bad in [((-1, 0), 2), ((3, 0), 0)]:
        with pytest.raises(ValueError, match="not a cell of the host"):
            Diagonal.from_entries(H, [bad, ((2, 1), 0), ((0, 2), 2)])
        with pytest.raises(ValueError, match="not a cell of the host"):
            Diagonal.from_cells(H, [bad[0], (2, 1), (0, 2)])


def test_partial_diagonal_not_complete():
    H = cyclic(cyclic_group(3), 2)
    D = Diagonal.from_cells(H, [(0, 0), (1, 1)])
    assert not D.complete
