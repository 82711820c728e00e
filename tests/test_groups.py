import itertools
import random
import re
from math import prod

import pytest
from hypothesis import given, strategies as st

from transversal_lab.groups import AbelianGroup, cyclic_group, index_table, parse_group


def all_small_groups(max_order=16):
    """Every direct product of cyclic factors (each >= 2) with order <= max_order,
    plus the trivial group."""
    out = [AbelianGroup((1,))]
    def rec(moduli, order):
        for m in range(2, max_order + 1):
            if order * m > max_order:
                break
            out.append(AbelianGroup(tuple(moduli + [m])))
            rec(moduli + [m], order * m)
    rec([], 1)
    return out


SMALL_GROUPS = all_small_groups()


def test_parse_group_literals():
    assert parse_group("Z6").moduli == (6,)
    assert parse_group("z2xz2").moduli == (2, 2)
    assert parse_group("Z4xZ3").moduli == (4, 3)
    assert str(parse_group("Z2xZ4")) == "Z2xZ4"


@pytest.mark.parametrize("bad", ["", "Z", "Z0x", "6", "Zx2", "Z2x", "Q8"])
def test_parse_group_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_add_examples():
    z6 = cyclic_group(6)
    assert z6.add((4,), (5,)) == (3,)
    klein = parse_group("Z2xZ2")
    assert klein.add((1, 0), (1, 1)) == (0, 1)


def test_add_identity_law():
    for g in SMALL_GROUPS:
        for a in g.elements():
            assert g.add(a, g.identity()) == a


def test_add_rejects_component_mismatch():
    z6 = cyclic_group(6)
    with pytest.raises(ValueError):
        z6.add((4, 0), (5,))


def test_neg_examples():
    z8 = cyclic_group(8)
    assert z8.neg((3,)) == (5,)
    assert z8.neg((0,)) == (0,)
    klein = parse_group("Z2xZ2")
    assert klein.neg((1, 1)) == (1, 1)


def test_g_plus_examples():
    assert cyclic_group(5).g_plus() == (0,)
    assert cyclic_group(8).g_plus() == (4,)
    assert parse_group("Z2xZ2").g_plus() == (0, 0)


def test_g_plus_is_involution_or_identity():
    for g in SMALL_GROUPS:
        gp = g.g_plus()
        assert g.add(gp, gp) == g.identity()
        involutions = [a for a in g.elements() if a != g.identity() and g.add(a, a) == g.identity()]
        if len(involutions) == 1:
            assert gp == involutions[0]
        else:
            assert gp == g.identity()


def test_group_laws_exhaustive_small():
    for g in SMALL_GROUPS:
        elems = list(g.elements())
        for a in elems:
            assert g.add(a, g.neg(a)) == g.identity()
        for a, b in itertools.product(elems, repeat=2):
            assert g.add(a, b) == g.add(b, a)
        limit = elems if g.order <= 8 else elems[:5]
        for a, b, c in itertools.product(limit, repeat=3):
            assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def test_element_index_roundtrip():
    for g in SMALL_GROUPS:
        for i in range(g.order):
            assert g.index(g.element(i)) == i


def test_scalar_mul_matches_repeated_addition():
    g = parse_group("Z2xZ4")
    for a in g.elements():
        acc = g.identity()
        for k in range(5):
            assert g.scalar_mul(k, a) == acc
            acc = g.add(acc, a)


@given(
    data=st.data(),
    gi=st.integers(min_value=0, max_value=len(SMALL_GROUPS) - 1),
)
def test_commutativity_and_associativity_property(data, gi):
    g = SMALL_GROUPS[gi]
    pick = st.integers(min_value=0, max_value=g.order - 1)
    a = g.element(data.draw(pick))
    b = g.element(data.draw(pick))
    c = g.element(data.draw(pick))
    assert g.add(a, b) == g.add(b, a)
    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def test_rejects_bad_moduli():
    with pytest.raises(ValueError):
        AbelianGroup(())
    with pytest.raises(ValueError):
        AbelianGroup((0,))
    with pytest.raises(ValueError):
        AbelianGroup((-2, 3))


def test_sub_and_sum_match_add_and_neg():
    g = parse_group("Z2xZ4")
    elems = list(g.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert g.sub(a, b) == g.add(a, g.neg(b))
    assert g.sum(elems) == g.g_plus() == (0, 0)
    assert g.sum([(1, 3), (1, 2)]) == (0, 1)
    assert g.sum([]) == g.identity()


@pytest.mark.parametrize("bad", [(2, 0), (0, 4), (0, -1), (0,), [0, 1], (0, 1, 0)])
def test_sub_and_sum_reject_each_bad_operand(bad):
    g = parse_group("Z2xZ4")
    with pytest.raises(ValueError):
        g.sub(bad, (0, 1))
    with pytest.raises(ValueError):
        g.sub((0, 1), bad)
    with pytest.raises(ValueError):
        g.sum([(1, 1), bad])
    with pytest.raises(ValueError):
        g.sum([bad, (1, 1)])


def test_index_table_matches_the_tuple_api():
    for g in SMALL_GROUPS:
        t = index_table(g)
        elems = list(g.elements())
        assert t.elements == tuple(elems)
        assert [t.index[a] for a in elems] == [g.index(a) for a in elems]
        assert t.elements[0] == g.identity()
        for i, a in enumerate(elems):
            assert t.sub[0][i] == g.index(g.neg(a))
            for j, b in enumerate(elems):
                assert t.add[i][j] == t.add_array[i, j] == g.index(g.add(a, b))
                assert t.sub[i][j] == t.sub_array[i, j] == g.index(g.sub(a, b))


def test_index_table_is_read_only_and_shared():
    g = parse_group("Z3xZ3")
    t = index_table(g)
    assert index_table(parse_group("Z3xZ3")) is t
    for arr in (t.add_array, t.sub_array):
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def _plain_elements(moduli):
    """The enumeration by plain mixed-radix division, last factor fastest."""
    out = []
    for i in range(prod(moduli)):
        comps = []
        for m in reversed(moduli):
            comps.append(i % m)
            i //= m
        out.append(tuple(reversed(comps)))
    return out


def _non_members(g):
    # a list, too few and too many components, and each component out of
    # range above and below
    a = g.identity()
    bad = [list(a), a + (0,), a[:-1]]
    for k, m in enumerate(g.moduli):
        bad.append(a[:k] + (m,) + a[k + 1:])
        bad.append(a[:k] + (-1,) + a[k + 1:])
    return bad


def test_tuple_api_matches_plain_component_arithmetic():
    # the element table and every checked operation against arithmetic done
    # component by component, on every small group
    rng = random.Random(23)
    for g in SMALL_GROUPS:
        mods = g.moduli
        elems = _plain_elements(mods)
        assert g.order == len(elems) == prod(mods)
        assert list(g.elements()) == elems
        for i, a in enumerate(elems):
            assert g.element(i) == a and g.index(a) == i and g.contains(a)
            assert g.neg(a) == tuple((-x) % m for x, m in zip(a, mods))
            for k in (-3, 0, 1, 2, 5):
                assert g.scalar_mul(k, a) == tuple((k * x) % m for x, m in zip(a, mods))
            for b in elems:
                assert g.add(a, b) == tuple((x + y) % m for x, y, m in zip(a, b, mods))
                assert g.sub(a, b) == tuple((x - y) % m for x, y, m in zip(a, b, mods))
        for seq in ([], elems, rng.choices(elems, k=7), rng.choices(elems, k=30)):
            want = tuple(sum(c) % m for c, m in zip(zip(*seq), mods)) if seq else g.identity()
            assert g.sum(seq) == g.sum(iter(seq)) == want


def test_tuple_api_rejects_non_members_with_one_error():
    # every operand position of every checked operation raises the same
    # ValueError for a list, a wrong arity or a component out of range
    for g in SMALL_GROUPS:
        e = g.element(g.order - 1)
        for bad in _non_members(g):
            assert not g.contains(bad)
            msg = re.escape(f"{bad!r} is not a canonical element of {g}")
            calls = [
                lambda: g.add(bad, e), lambda: g.add(e, bad),
                lambda: g.sub(bad, e), lambda: g.sub(e, bad),
                lambda: g.neg(bad), lambda: g.scalar_mul(2, bad), lambda: g.index(bad),
                lambda: g.sum([bad]), lambda: g.sum([e, bad]), lambda: g.sum(iter([e, e, bad])),
            ]
            for call in calls:
                with pytest.raises(ValueError, match=f"^{msg}$"):
                    call()
        for i in (-1, g.order, g.order + 5):
            with pytest.raises(ValueError, match=f"^index {i} out of range for group of order {g.order}$"):
                g.element(i)
