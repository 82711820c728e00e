import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_block_census_counts(capsys):
    runpy.run_path(str(SCRIPTS / "block_census.py"))["main"]()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    # (transversals, blocked cells): the cyclic cube has no transversal, so
    # every one of its 256 cells is blocked
    assert [(int(r[-3]), int(r[-2])) for r in rows] == [(0, 256), (3840, 16), (768, 32)]
