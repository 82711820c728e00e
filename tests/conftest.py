import pytest

from transversal_lab.oracles import all_latin_squares


@pytest.fixture(scope="session")
def square_catalogue():
    """All Latin squares of order up to 4, keyed by order."""
    return {n: all_latin_squares(n) for n in range(1, 5)}
