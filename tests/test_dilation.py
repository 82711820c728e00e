import itertools

import pytest

from transversal_lab import search
from transversal_lab.constructions import l8_square, ord6m_square, ord6m_starred_cells
from transversal_lab.delta import delta_sum, profile, suitable_target
from transversal_lab.dilation import (
    dilate,
    dilrect_condition,
    parity_condition,
    psi,
    psi_cell,
    transfer_hitting_set,
)
from transversal_lab.groups import cyclic_group, parse_group
from transversal_lab.hypercube import Diagonal, cyclic, is_latin
from transversal_lab.search import SearchBudget, enumerate_diagonals, hitting_set_check


def test_dilated_cyclic_is_cyclic():
    for n, lam, d in [(2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2), (3, 3, 2),
                      (4, 4, 2), (8, 2, 2), (2, 2, 3), (2, 2, 4)]:
        base = cyclic(cyclic_group(n), d)
        assert dilate(base, lam) == cyclic(cyclic_group(n * lam), d)


def test_dilate_requires_cyclic_labeling_and_factor():
    base = cyclic(parse_group("Z2xZ2"), 2)
    with pytest.raises(ValueError):
        dilate(base, 2)
    with pytest.raises(ValueError):
        dilate(cyclic(cyclic_group(3), 2), 1)


def test_dilation_delta_structure():
    for base, lam in [(ord6m_square(1), 2), (l8_square(), 2)]:
        n = base.n
        big = dilate(base, lam)
        assert is_latin(big)
        prof_base = profile(base)
        prof_big = profile(big)
        image = {psi_cell(c, lam) for c in base.cells()}
        for cell in big.cells():
            v = prof_big.value_at(cell)[0]
            if cell not in image:
                assert v == 0
        for e in base.entries():
            assert prof_big.value_at(psi_cell(e.coords, lam))[0] == (
                lam * prof_base.value_at(e.coords)[0]
            ) % (lam * n)
        assert len(prof_big.support) == len(prof_base.support)


def test_psi_entry_mapping():
    e = ord6m_square(1).entry((1, 1))
    image = psi(e, 2)
    assert image.coords == (2, 2)
    assert image.symbol == 2
    zero = psi(ord6m_square(1).entry((3, 3)), 2)
    assert zero.coords == (6, 6)


def test_dilrect_condition():
    spread = dilrect_condition(ord6m_square(2))
    assert spread.sizes == (3, 4) and spread.bound == 12 and spread.holds

    cyc = dilrect_condition(cyclic(cyclic_group(5), 2))
    assert cyc.sizes == (0, 0) and cyc.holds

    l8 = dilrect_condition(l8_square())
    assert l8.sizes == (4, 7) and l8.bound == 8 and not l8.holds


# a partial diagonal inside the support completes to one meeting the support
# exactly there when the rest of the support is forbidden


def _completion(H, cells, forbidden, budget=None):
    """A complete diagonal through ``cells`` on the cells not ``forbidden``
    (``cells`` may be), or None if none exists: the first result of the
    existence search, which fills the row with the fewest fitting cells first."""
    allowed = search._Cells.of(H, False, frozenset(search._checked_cells(H, forbidden)))
    pre = search._checked_cells(H, cells)
    found = search._dfs(allowed, search._Gauge(budget or SearchBudget()), pre=pre, constrained=True)
    return next(search._diagonals(H, found), None)


def test_extend_partial_empty_in_cyclic():
    H = cyclic(cyclic_group(4), 2)
    D = _completion(H, [], profile(H).support)
    assert D is not None and len(D.entries) == 4


def test_extend_partial_single_star():
    H = ord6m_square(1)
    star = ord6m_starred_cells(1)[0]
    X = set(profile(H).support)
    D = _completion(H, [star], X)
    assert D is not None
    assert set(D.cells()) & X == {star}


# the projection condition fails at m=1 and holds for the others
_SUPPORT_CUBES = {
    "m1": lambda: ord6m_square(1),
    "m2": lambda: ord6m_square(2),
    "m4": lambda: ord6m_square(4),
    "dilated-m2": lambda: dilate(ord6m_square(2), 2),
}


def _assert_meets_support_exactly(H, cells):
    X = set(profile(H).support)
    D = _completion(H, cells, X, SearchBudget(max_nodes=10_000))
    assert D is not None and set(D.cells()) & X == set(cells)
    assert Diagonal.from_entries(H, D.entries).complete


def test_extend_partial_every_support_singleton():
    for make in _SUPPORT_CUBES.values():
        H = make()
        for cell in sorted(profile(H).support):
            _assert_meets_support_exactly(H, [cell])


@pytest.mark.parametrize("name", sorted(_SUPPORT_CUBES))
def test_extend_partial_every_disjoint_support_pair(name):
    H = _SUPPORT_CUBES[name]()
    pairs = [list(p) for p in itertools.combinations(sorted(profile(H).support), 2)
             if all(a != b for a, b in zip(*p))]
    assert len(pairs) == 20
    for cells in pairs:
        _assert_meets_support_exactly(H, cells)


def test_extend_partial_can_fail_off_the_small_support_regime():
    # rows 3, 5, 7 have deviation zero only in column 0, so a diagonal meeting
    # the support in exactly one row-1 cell cannot exist
    H = l8_square()
    D = _completion(H, [(1, 1)], profile(H).support)
    assert D is None


def test_transfer_hitting_set_certifies_small_square():
    # at m=1 the projection bound just fails (3+4 > 6), so the certificate
    # comes from the direct check on the order-12 dilation
    H = ord6m_square(1)
    cert = transfer_hitting_set(H, ord6m_starred_cells(1), 2)
    assert cert.parity_ok and cert.base_hitting_ok
    assert not cert.spread_ok and cert.direct_ok and cert.holds

    # cross-check on the dilated square itself
    big = dilate(H, 2)
    image = [psi_cell(c, 2) for c in ord6m_starred_cells(1)]
    target = suitable_target(big.group, 2)
    assert hitting_set_check(big, target, image)


def test_transfer_hitting_set_via_projection_bound():
    # at m=2 the projection bound holds (3+4 <= 12) and the transfer applies
    H = ord6m_square(2)
    cert = transfer_hitting_set(H, ord6m_starred_cells(2), 2)
    assert cert.transferred and cert.holds and cert.direct_ok is None

    big = dilate(H, 2)
    image = [psi_cell(c, 2) for c in ord6m_starred_cells(2)]
    target = suitable_target(big.group, 2)
    assert hitting_set_check(big, target, image)


def test_transfer_hitting_set_vacuous_and_failing_cases():
    # no diagonal of the even-order cyclic square reaches the target sum
    flat = transfer_hitting_set(cyclic(cyclic_group(4), 2), [], 2)
    assert flat.base_hitting_ok and flat.holds

    # odd order: every diagonal reaches the zero target, so the empty set fails
    odd = transfer_hitting_set(cyclic(cyclic_group(5), 2), [], 3)
    assert not odd.base_hitting_ok and not odd.holds


def test_transfer_hitting_set_parity_rejection():
    assert not parity_condition(5, 2, 2)
    prof_cells = []
    cert = transfer_hitting_set(cyclic(cyclic_group(5), 2), prof_cells, 2)
    assert not cert.parity_ok and not cert.holds


def test_suitable_image_extends_in_dilation():
    # every diagonal of the base with the transversal sum maps forward to a
    # partial diagonal of the dilation that completes to one with the
    # dilation's transversal sum
    H = ord6m_square(1)
    big = dilate(H, 2)
    target_big = suitable_target(big.group, 2)
    count = 0
    for D in enumerate_diagonals(H, suitable_target(H.group, 2)):
        image_cells = [psi_cell(c, 2) for c in D.cells()]
        E = _completion(big, image_cells, [])
        assert E is not None
        assert delta_sum(big, E) == target_big
        count += 1
    assert count > 0
