import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_block_census_counts(capsys):
    runpy.run_path(str(SCRIPTS / "block_census.py"))["main"]()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    # (transversals, blocked cells): the cyclic cube has no transversal, so
    # every one of its 256 cells is blocked
    assert [(int(r[-3]), int(r[-2])) for r in rows] == [(0, 256), (3840, 16), (768, 32)]


def test_dilation_sweep_sample(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["dilation_sweep.py", "--sample", "4"])
    runpy.run_path(str(SCRIPTS / "dilation_sweep.py"))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "base square: 0 diagonals reach the transversal deviation sum"
    assert not any(line.startswith("NO transversal") for line in lines)
    assert lines[-1].startswith("2-dilation: transversal found through each of 4 cells")


def test_dilation_sweep_every_cell(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["dilation_sweep.py"])
    runpy.run_path(str(SCRIPTS / "dilation_sweep.py"))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "base square: 0 diagonals reach the transversal deviation sum"
    assert not any(line.startswith("NO transversal") for line in lines)
    assert lines[-1].startswith("2-dilation: transversal found through each of 256 cells")


def test_restricted_planes_builds_both_families(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["restricted_planes.py"])
    runpy.run_path(str(SCRIPTS / "restricted_planes.py"))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("order 6: ") and "built 72 = 2*6^2 disjoint" in lines[0]
    assert lines[1].startswith("order 8: ") and "built 128 = 2*8^2 disjoint" in lines[1]


def test_restricted_planes_rejects_an_odd_dimension(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["restricted_planes.py", "--dprime", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "restricted_planes.py"))["main"]()
    assert exc.value.code == 2
    assert "even target dimension" in capsys.readouterr().err
