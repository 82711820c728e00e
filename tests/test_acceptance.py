"""Acceptance gate: every headline criterion at its stated tolerance.

Each test drives one criterion from the built-in claim suite and prints a
single pass/fail line.  Criterion 12 runs its full sweep here (every cell of
the order-16 dilation), not the sampled quick variant."""

from transversal_lab.claims import CRITERIA, ClaimContext
from transversal_lab.search import DEFAULT_SEED

_BY_NUMBER = {c.number: c for c in CRITERIA}


def _run(number: int, quick: bool = True) -> None:
    crit = _BY_NUMBER[number]
    ctx = ClaimContext(seed=DEFAULT_SEED, quick=quick)
    try:
        detail = crit.fn(ctx)
    except AssertionError as exc:
        print(f"FAIL {crit.number:02d}-{crit.slug}: {exc}")
        raise
    print(f"PASS {crit.number:02d}-{crit.slug}: {detail}")


def test_criterion_01_cyclic_nonexistence():
    _run(1)


def test_criterion_02_confirmed_bachelor_44():
    _run(2)


def test_criterion_03_bachelor_witness_family():
    _run(3)


def test_criterion_04_third_species_44():
    _run(4)


def test_criterion_05_turned_block():
    _run(5)


def test_criterion_06_ord8_exhibit():
    _run(6)


def test_criterion_07_ord6m_exhibit():
    _run(7)


def test_criterion_08_zero_sum_pairing():
    _run(8)


def test_criterion_09_lifting():
    _run(9)


def test_criterion_10_lifted_decompositions():
    _run(10)


def test_criterion_11_boosted_witness_order6():
    _run(11)


def test_criterion_12_dilation_full_sweep():
    _run(12, quick=False)


def test_criterion_13_oracle_equivalence():
    _run(13)
