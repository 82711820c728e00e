import hashlib
import itertools

import numpy as np
import pytest

from transversal_lab.oracles import (
    all_latin_squares,
    brute_diagonals,
    brute_target_diagonals,
    brute_transversals,
)


def _plain_diagonals(n, d):
    for perms in itertools.product(itertools.permutations(range(n)), repeat=d - 1):
        yield tuple((r,) + tuple(p[r] for p in perms) for r in range(n))


def _plain_transversals(arr):
    # one numpy scalar read per cell
    n = arr.shape[0]
    return [cells for cells in _plain_diagonals(n, arr.ndim)
            if len({int(arr[c]) for c in cells}) == n]


def _plain_target_diagonals(arr, target):
    n = arr.shape[0]
    return [cells for cells in _plain_diagonals(n, arr.ndim)
            if sum(int(arr[c]) - sum(c) for c in cells) % n == target]


def _random_latin(n, d, rng, klein=False):
    """An isotope of the cyclic cube of order n (of Z2 x Z2's when klein),
    with its axes and symbols permuted at random."""
    axes = np.ix_(*[rng.permutation(n) for _ in range(d)])
    table = np.bitwise_xor.reduce(np.broadcast_arrays(*axes)) if klein else sum(axes) % n
    return rng.permutation(n)[table]


def _random_cubes():
    rng = np.random.default_rng(23)
    shapes = [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 5)]
    cubes = [_random_latin(n, d, rng) for n, d in shapes for _ in range(2)]
    cubes += [_random_latin(4, d, rng, klein=True) for d in (2, 3)]
    squares = all_latin_squares(4)
    cubes += [squares[i] for i in rng.choice(len(squares), 3, replace=False)]
    return cubes


def _variants(arr):
    # other integer widths, a read-only array and one that is not C-contiguous
    frozen = arr.copy()
    frozen.setflags(write=False)
    return [arr, arr.astype(np.int32), arr.astype(np.uint8), frozen, arr.T]


@pytest.mark.parametrize("arr", _random_cubes(), ids=lambda a: f"n{a.shape[0]}d{a.ndim}")
def test_oracles_match_plain_numpy_indexing(arr):
    n = arr.shape[0]
    assert brute_diagonals(arr) == list(_plain_diagonals(n, arr.ndim))
    for a in _variants(arr):
        assert brute_transversals(a) == _plain_transversals(a)
        for t in range(n):
            assert brute_target_diagonals(a, t) == _plain_target_diagonals(a, t)


def test_brute_diagonals_returns_a_new_list_each_call():
    arr = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    first = brute_diagonals(arr)
    want = list(first)
    first.clear()
    second = brute_diagonals(arr)
    assert second == want and second is not first
    second.append(((0, 0), (1, 1), (2, 2)))
    assert brute_diagonals(arr) == want
    assert len(brute_transversals(arr)) == 3


def test_all_latin_squares_counts_and_order():
    counts = [len(all_latin_squares(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 2, 12, 576]
    squares = all_latin_squares(4)
    assert all(a.dtype == np.int64 and a.shape == (4, 4) for a in squares)
    # the order of the list as the row-by-row backtracking with one set of
    # used symbols per column produced it
    digest = hashlib.sha256(repr([a.tolist() for a in squares]).encode()).hexdigest()
    assert digest == "d95e186619509b34207189b93cefd05d99896a87004d96d1df7016ca41f163e0"
