import pytest

from transversal_lab.constructions import z6_isotope_square
from transversal_lab.hypercube import Diagonal
from transversal_lab.oracles import all_latin_squares


@pytest.fixture(scope="session")
def square_catalogue():
    """All Latin squares of order up to 4, keyed by order."""
    return {n: all_latin_squares(n) for n in range(1, 5)}


@pytest.fixture
def z6_marked_diagonal():
    """The highlighted diagonal of the relabelled order-6 square
    (``z6_isotope_square``); its deviation sum is 3, so it lifts to a
    transversal in any even-dimensional extension."""
    rows = [((0, 5), 4), ((1, 4), 4), ((2, 3), 4), ((3, 0), 3), ((4, 2), 0), ((5, 1), 0)]
    return Diagonal.from_entries(z6_isotope_square(), rows)
