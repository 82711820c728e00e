import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import transversal_lab
from transversal_lab import cli
from transversal_lab.cli import main
from transversal_lab.constructions import ord6m_starred_cells, z6_marked_diagonal
from transversal_lab.delta import suitable_target
from transversal_lab.extension import g_extension
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import Hypercube, cyclic, is_latin, load, save
from transversal_lab.reports import (
    REPORT_SCHEMA,
    ReportError,
    SearchReport,
    diagonal_from_json,
    diagonal_to_json,
    validate_report,
)
from transversal_lab.search import Census, count_diagonals, hitting_set_check


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the reference for validate_report: the general Draft 7 validator
_REFERENCE = jsonschema.Draft7Validator(REPORT_SCHEMA)


def report_of(out):
    payload = json.loads(out)
    validate_report(payload)
    assert _REFERENCE.is_valid(payload)
    return payload


def strip_elapsed(payload):
    return {k: v for k, v in payload.items() if k != "elapsed_s"}


def test_construct_then_search_transversals(tmp_path, capsys):
    cube = tmp_path / "c.lhc"
    code, out, err = run_cli(
        ["construct", "cyclic", "--group", "Z4", "--d", "4", "--out", str(cube)], capsys
    )
    assert code == 0 and cube.exists()
    assert load(cube) == cyclic(cyclic_group(4), 4)

    code, out, err = run_cli(["search", "transversals", str(cube)], capsys)
    assert code == 0
    payload = report_of(out)
    assert payload["count"] == 0 and payload["exact"] and not payload["exhausted"]


def test_construct_bachelors_pipeline(tmp_path, capsys):
    cube = tmp_path / "b.lhc"
    code, *_ = run_cli(
        ["construct", "confirmed-bachelor", "--n", "4", "--d", "4", "--out", str(cube)],
        capsys,
    )
    assert code == 0
    code, out, err = run_cli(["search", "bachelors", str(cube)], capsys)
    assert code == 0
    payload = report_of(out)
    assert payload["count"] == 16
    assert len(payload["bachelor_cells"]) == 16
    assert all(all(v in (0, 1) for v in cell) for cell in payload["bachelor_cells"])


def _is_int(v):
    return type(v) is int  # a bool is no integer


def _is_ints(v):
    return type(v) is list and all(map(_is_int, v))


def _is_cells(v):
    return type(v) is list and all(map(_is_ints, v))


def _is_support(v):
    return type(v) is list and all(
        type(r) is dict and r.keys() == {"coords", "delta"}
        and _is_ints(r["coords"]) and _is_ints(r["delta"]) for r in v)


# the plain JSON objects that `analyze delta` and `certify-dilation` print,
# as the README lists them: every key, each with the test its value passes
_ANALYZE_DELTA_OUTPUT = {
    "instance": lambda v: type(v) is str,
    "group": lambda v: type(v) is str,
    "support": _is_support,
    "projections": _is_cells,
    "projection_sizes": _is_ints,
}
_CERTIFY_DILATION_OUTPUT = {
    "instance": lambda v: type(v) is str,
    "factor": _is_int,
    "cells": _is_cells,
    "image_cells": _is_cells,
    "parity_ok": lambda v: type(v) is bool,
    "base_hitting_ok": lambda v: type(v) is bool,
    "spread_ok": lambda v: type(v) is bool,
    "direct_ok": lambda v: v is None or type(v) is bool,
    "projection_sizes": _is_ints,
    "projection_bound": _is_int,
    "holds": lambda v: type(v) is bool,
}


def _output_of(out, contract):
    payload = json.loads(out)
    assert payload.keys() == contract.keys()
    for key, ok in contract.items():
        assert ok(payload[key]), (key, payload[key])
    return payload


def test_analyze_delta_json(tmp_path, capsys):
    cube = tmp_path / "m1.lhc"
    run_cli(["construct", "ord6m", "--m", "1", "--out", str(cube)], capsys)
    code, out, err = run_cli(["analyze", "delta", str(cube)], capsys)
    assert code == 0
    payload = _output_of(out, _ANALYZE_DELTA_OUTPUT)
    assert len(payload["support"]) == 9
    assert payload["projection_sizes"] == [3, 4]
    assert {"coords": [1, 1], "delta": [5]} in payload["support"]


def test_search_suitable_counts_match_oracle(tmp_path, capsys):
    from transversal_lab.oracles import brute_target_diagonals

    cube = tmp_path / "z6.lhc"
    run_cli(["construct", "z6-isotope", "--out", str(cube)], capsys)
    code, out, err = run_cli(
        ["search", "suitable", "--dprime", "4", str(cube), "--max-witnesses", "2"], capsys
    )
    assert code == 0
    payload = report_of(out)
    H = load(cube)
    assert payload["count"] == len(brute_target_diagonals(np.asarray(H.symbols), 3))
    assert payload["certificates"]["target_sum"] == [3]
    assert len(payload["witnesses"]) == 2
    for record in payload["witnesses"]:
        D = diagonal_from_json(record, H)
        assert D.complete


def test_search_packing_report(tmp_path, capsys):
    cube = tmp_path / "t44.lhc"
    run_cli(["construct", "turned-cyclic", "--n", "4", "--d", "4", "--out", str(cube)], capsys)
    code, out, err = run_cli(["search", "packing", str(cube)], capsys)
    assert code == 0
    payload = report_of(out)
    assert payload["count"] == 16
    assert payload["certificates"]["optimal"] is True
    assert payload["certificates"]["upper_bound"] == 16


def test_search_decompose_deterministic(tmp_path, capsys):
    cube = tmp_path / "c3.lhc"
    run_cli(["construct", "cyclic", "--group", "Z3", "--d", "2", "--out", str(cube)], capsys)
    code, out1, _ = run_cli(["search", "decompose", "--seed", "5", str(cube)], capsys)
    assert code == 0
    code, out2, _ = run_cli(["search", "decompose", "--seed", "5", str(cube)], capsys)
    assert code == 0
    assert strip_elapsed(report_of(out1)) == strip_elapsed(report_of(out2))
    payload = report_of(out1)
    assert payload["count"] == 3


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_search_packing_rejects_a_cap_below_one(tmp_path, capsys, cap):
    cube = tmp_path / "c3.lhc"
    run_cli(["construct", "cyclic", "--group", "Z3", "--d", "2", "--out", str(cube)], capsys)
    code, out, err = run_cli(["search", "packing", "--cap", cap, str(cube)], capsys)
    assert code == 2 and out == "" and "cap" in err


def test_search_decompose_proves_none(tmp_path, capsys):
    cube = tmp_path / "t44.lhc"
    run_cli(["construct", "turned-cyclic", "--n", "4", "--d", "4", "--out", str(cube)], capsys)
    code, out, _ = run_cli(["search", "decompose", str(cube)], capsys)
    assert code == 0
    payload = report_of(out)
    assert payload["count"] == 0 and payload["exact"] and not payload["exhausted"]
    assert "witnesses" not in payload
    assert payload["certificates"]["note"].startswith("exhaustive exact cover")


def test_extend_and_reread(tmp_path, capsys):
    cube = tmp_path / "z6.lhc"
    ext = tmp_path / "z6d4.lhc"
    run_cli(["construct", "z6-isotope", "--out", str(cube)], capsys)
    code, *_ = run_cli(
        ["extend", str(cube), "--group", "Z6", "--dprime", "4", "--out", str(ext)], capsys
    )
    assert code == 0
    H = load(cube)
    assert load(ext) == g_extension(H, H.group, 4)


def test_lift_command(tmp_path, capsys):
    cube = tmp_path / "z6.lhc"
    run_cli(["construct", "z6-isotope", "--out", str(cube)], capsys)
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({"entries": diagonal_to_json(z6_marked_diagonal())}))
    code, out, err = run_cli(
        ["lift", str(cube), "--dprime", "4", "--diagonal", str(diag)], capsys
    )
    assert code == 0
    payload = report_of(out)
    H = load(cube)
    ext = g_extension(H, H.group, 4)
    T = diagonal_from_json(payload["witnesses"][0], ext)
    assert T.complete and T.has_distinct_symbols()


def test_lift_text_grid_marks_the_extension(tmp_path, capsys):
    cube = tmp_path / "z6.lhc"
    run_cli(["construct", "z6-isotope", "--out", str(cube)], capsys)
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({"entries": diagonal_to_json(z6_marked_diagonal())}))
    argv = ["lift", str(cube), "--dprime", "4", "--diagonal", str(diag), "--format", "text-grid"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    # the 6^4 extension prints as 36 slices; slice headers hold "*,*", so
    # count the marked symbols, not the "*" characters
    assert sum(line.startswith("slice ") for line in lines) == 36
    grid = [line for line in lines if not line.startswith(("slice ", "#"))]
    assert sum(tok.endswith("*") for line in grid for tok in line.split()) == 6


def test_dilate_command(tmp_path, capsys):
    cube = tmp_path / "c4.lhc"
    out_path = tmp_path / "c8.lhc"
    run_cli(["construct", "cyclic", "--group", "Z4", "--d", "2", "--out", str(cube)], capsys)
    code, *_ = run_cli(["dilate", str(cube), "--lambda", "2", "--out", str(out_path)], capsys)
    assert code == 0
    assert load(out_path) == cyclic(cyclic_group(8), 2)


def test_certify_dilation_command(tmp_path, capsys):
    cube = tmp_path / "m1.lhc"
    run_cli(["construct", "ord6m", "--m", "1", "--out", str(cube)], capsys)
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps([list(c) for c in ord6m_starred_cells(1)]))
    code, out, err = run_cli(
        ["certify-dilation", str(cube), "--lambda", "2", "--hitting-set", str(cells)], capsys
    )
    assert code == 0
    payload = _output_of(out, _CERTIFY_DILATION_OUTPUT)
    assert payload["holds"] is True
    assert payload["image_cells"] == [[2, 0], [2, 2]]
    # the starred pair fails the projection bound, so the dilation is checked
    # directly; an empty set fails on the base, and nothing is checked directly
    assert (payload["spread_ok"], payload["direct_ok"]) == (False, True)
    cells.write_text("[]")
    code, out, err = run_cli(
        ["certify-dilation", str(cube), "--lambda", "2", "--hitting-set", str(cells)], capsys
    )
    assert code == 0
    payload = _output_of(out, _CERTIFY_DILATION_OUTPUT)
    assert (payload["base_hitting_ok"], payload["direct_ok"], payload["holds"]) == (False, None, False)
    # a factor below 2 is refused before anything is checked, as by dilate,
    # even where the support spread would need no dilation
    z4 = tmp_path / "z4.lhc"
    run_cli(["construct", "cyclic", "--group", "Z4", "--d", "2", "--out", str(z4)], capsys)
    cells.write_text("[[0, 0]]")
    for factor in ("0", "-3", "1"):
        for argv in (["dilate", str(z4)], ["certify-dilation", str(z4), "--hitting-set", str(cells)]):
            code, out, err = run_cli([*argv, "--lambda", factor], capsys)
            assert (code, out) == (2, "") and "dilation factor must be at least 2" in err, argv


def test_exit_code_2_on_validation_errors(tmp_path, capsys):
    code, out, err = run_cli(["construct", "cyclic", "--group", "Q8", "--d", "2"], capsys)
    assert code == 2 and "error" in err

    code, out, err = run_cli(["construct", "cyclic", "--d", "2"], capsys)
    assert code == 2

    bad = tmp_path / "bad.lhc"
    bad.write_text("lhc 2 2\n0 1\n1 7\n")
    code, out, err = run_cli(["search", "transversals", str(bad)], capsys)
    assert code == 2

    code, out, err = run_cli(["search", "transversals", str(tmp_path / "missing.lhc")], capsys)
    assert code == 2

    code, out, err = run_cli(
        ["construct", "confirmed-bachelor", "--n", "6", "--d", "4"], capsys
    )
    assert code == 2


def test_exit_code_3_on_budget_exhaustion(tmp_path, capsys):
    cube = tmp_path / "t44.lhc"
    run_cli(["construct", "turned-cyclic", "--n", "4", "--d", "4", "--out", str(cube)], capsys)
    code, out, err = run_cli(
        ["search", "bachelors", str(cube), "--max-nodes", "10"], capsys
    )
    assert code == 3
    payload = report_of(out)
    assert payload["exhausted"] and not payload["exact"]


@pytest.mark.parametrize(
    "command",
    [
        ["search", "bachelors"],
        ["search", "packing"],
        ["search", "decompose"],
        ["certify-dilation", "--lambda", "2", "--hitting-set", "{cells}"],
    ],
    ids=["bachelors", "packing", "decompose", "certify-dilation"],
)
def test_max_results_rejected_where_no_results_are_listed(tmp_path, capsys, command):
    cube = tmp_path / "m1.lhc"
    run_cli(["construct", "ord6m", "--m", "1", "--out", str(cube)], capsys)
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps([list(c) for c in ord6m_starred_cells(1)]))
    argv = [a.format(cells=cells) for a in command] + [str(cube), "--max-results", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--max-results" in err


def test_bachelor_scan_keeps_time_cap(tmp_path, capsys):
    # the gauge reads the clock every 4096 state expansions and this scan
    # expands about 32,000 states
    cube = tmp_path / "cb46.lhc"
    run_cli(["construct", "confirmed-bachelor", "--n", "4", "--d", "6", "--out", str(cube)], capsys)
    code, out, _ = run_cli(["search", "bachelors", str(cube), "--time-cap", "1e-9"], capsys)
    assert code == 3
    payload = report_of(out)
    assert payload["exhausted"] and not payload["exact"]
    assert payload["bachelor_cells"] == [] and payload["certificates"]["checked_cells"] == 0


# every required argument of each command, so that parsing reaches the flag under test
_COMMANDS = {
    "construct": ["construct", "cyclic", "--group", "Z3", "--d", "2"],
    "analyze": ["analyze", "delta", "c.lhc"],
    "extend": ["extend", "c.lhc", "--dprime", "3"],
    "lift": ["lift", "c.lhc", "--dprime", "3", "--diagonal", "d.json"],
    "dilate": ["dilate", "c.lhc", "--lambda", "2"],
    "certify-dilation": ["certify-dilation", "c.lhc", "--lambda", "2", "--hitting-set", "h.json"],
    "verify": ["verify", "paper-claims", "--only", "10"],
    "search bachelors": ["search", "bachelors", "c.lhc"],
    "search packing": ["search", "packing", "c.lhc"],
}


@pytest.mark.parametrize("flag", ["--max-nodes", "--max-results", "--time-cap"])
@pytest.mark.parametrize("command", ["construct", "analyze", "extend", "lift", "dilate", "verify"])
def test_budget_flags_rejected_where_nothing_searches(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS[command] + [flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_UNREAD_FLAGS = [
    ("construct", "--seed", "1"),
    ("analyze", "--seed", "1"),
    ("extend", "--seed", "1"),
    ("dilate", "--seed", "1"),
    ("certify-dilation", "--seed", "1"),
    ("extend", "--format", "json"),
    ("dilate", "--format", "json"),
    ("certify-dilation", "--format", "json"),
    ("verify", "--format", "json"),
    ("verify", "--out", "x.txt"),
    ("search bachelors", "--cap", "2"),
    ("search bachelors", "--dprime", "4"),
    ("search bachelors", "--max-witnesses", "3"),
    # bachelor cells and packings are not witness lists, so nothing is drawn
    ("search bachelors", "--format", "text-grid"),
    ("search packing", "--format", "text-grid"),
]


@pytest.mark.parametrize(
    "command, flag, value", _UNREAD_FLAGS,
    ids=[f"{c.replace(' ', '-')}{f}" for c, f, _ in _UNREAD_FLAGS]
)
def test_unread_flags_rejected(capsys, command, flag, value):
    # each subcommand registers only the flags its handler reads
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS[command] + [flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_search_suitable_requires_dprime(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "suitable", "c.lhc"])
    assert exc.value.code == 2 and "--dprime" in capsys.readouterr().err


def test_analyze_text_grid_draws_squares_only(tmp_path, capsys):
    cube = tmp_path / "b.lhc"
    run_cli(["construct", "confirmed-bachelor", "--n", "4", "--d", "4", "--out", str(cube)],
            capsys)
    code, out, err = run_cli(["analyze", "delta", str(cube), "--format", "text-grid"], capsys)
    assert code == 2 and out == "" and "text-grid" in err
    code, out, _ = run_cli(["analyze", "delta", str(cube)], capsys)
    assert code == 0 and json.loads(out)["support"]


def test_verify_rejects_malformed_only(capsys):
    # a criterion number that names no criterion is rejected before any runs,
    # and so is an --only that is no list of numbers or names none at all
    for only in ("1,x", "99", "0,3", "", ",", " , "):
        code, out, err = run_cli(["verify", "paper-claims", "--only", only], capsys)
        assert code == 2 and out == "", only
        if only in ("99", "0,3"):
            assert err == f"error: unknown criterion numbers: {only.split(',')[0]}\n"
        else:
            assert err == (f"error: --only {only!r} is not a comma-separated list "
                           "of criterion numbers\n")


def test_search_decompose_keeps_time_cap(tmp_path, capsys):
    # the gauge reads the clock every 4096 ticks; listing this cube's 3,325
    # transversals and reading them into the exact cover's masks takes more
    # ticks than that, so the run stops before the search
    cube = tmp_path / "z5d3.lhc"
    run_cli(["construct", "cyclic", "--group", "Z5", "--d", "3", "--out", str(cube)], capsys)
    argv = ["search", "decompose", "--seed", "2024", "--time-cap", "1e-9", str(cube)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 3
    payload = report_of(out)
    assert payload["count"] == 0 and payload["exhausted"] and not payload["exact"]


def test_text_grid_output(tmp_path, capsys):
    code, out, err = run_cli(["construct", "ord8", "--format", "text-grid"], capsys)
    assert code == 0
    first = out.splitlines()[0].split()
    assert first == ["0", "1", "3", "4", "5", "6", "7", "2"]

    cube = tmp_path / "c3.lhc"
    run_cli(["construct", "cyclic", "--group", "Z3", "--d", "2", "--out", str(cube)], capsys)
    code, out, err = run_cli(
        ["search", "transversals", str(cube), "--format", "text-grid"], capsys
    )
    assert code == 0
    assert "*" in out


def test_threads_flag_is_unknown(tmp_path, capsys):
    cube = tmp_path / "c3.lhc"
    run_cli(["construct", "cyclic", "--group", "Z3", "--d", "2", "--out", str(cube)], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["search", "transversals", str(cube), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_search_transversals_budgets(tmp_path, capsys):
    cube = tmp_path / "t44.lhc"
    run_cli(["construct", "turned-cyclic", "--n", "4", "--d", "4", "--out", str(cube)], capsys)
    code, out, _ = run_cli(["search", "transversals", str(cube), "--max-results", "5"], capsys)
    assert code == 3
    payload = report_of(out)
    assert payload["count"] == 5 and payload["exhausted"] and not payload["exact"]

    # the node cap is global to the search, so a capped run is reproducible;
    # on the stored layers a cut count is the witnesses listed before the cut
    argv = ["search", "transversals", str(cube), "--max-nodes", "500"]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 3
    code, out2, _ = run_cli(argv, capsys)
    assert code == 3
    first, second = report_of(out1), report_of(out2)
    assert strip_elapsed(first) == strip_elapsed(second)
    assert first["exhausted"] and not first["exact"]
    assert first["count"] == len(first.get("witnesses", []))

    # above the layers' bound the DFS counts what it reaches before the cut;
    # Z13 has 1,030,367 transversals
    z13 = tmp_path / "z13.lhc"
    run_cli(["construct", "cyclic", "--group", "Z13", "--d", "2", "--out", str(z13)], capsys)
    code, out, _ = run_cli(["search", "transversals", str(z13), "--max-nodes", "10000"], capsys)
    payload = report_of(out)
    assert code == 3 and payload["exhausted"] and not payload["exact"]
    assert 0 < payload["count"] < 1_030_367


def test_search_rejects_a_nan_time_cap(tmp_path, capsys):
    # NaN passes a `<= 0` check and would never expire
    cube = tmp_path / "z5.lhc"
    run_cli(["construct", "cyclic", "--group", "Z5", "--d", "2", "--out", str(cube)], capsys)
    code, out, err = run_cli(["search", "transversals", str(cube), "--time-cap", "nan"], capsys)
    assert code == 2 and out == "" and "time_cap" in err


def test_result_cap_never_sends_a_count_to_the_dfs(tmp_path, capsys):
    # cyclic Z16 has no diagonal with the suitable sum for d'=2; within the
    # bound the layers prove it in 65,535 states, where a result cap once
    # sent the count to a DFS over all 16! diagonals
    cube = tmp_path / "z16.lhc"
    run_cli(["construct", "cyclic", "--group", "Z16", "--d", "2", "--out", str(cube)], capsys)
    argv = ["search", "suitable", "--dprime", "2", "--max-results", "10", "--max-nodes", "200000"]
    code, out, _ = run_cli([*argv, str(cube)], capsys)
    payload = report_of(out)
    assert code == 0 and payload["count"] == 0
    assert payload["exact"] and not payload["exhausted"]


@pytest.mark.parametrize(
    "flag, payload",
    [
        ("--hitting-set", 5),
        ("--hitting-set", [[99, 99]]),
        ("--hitting-set", [[0, 0, 0]]),
        ("--hitting-set", [[-1, 0], [0, -1]]),
        ("--diagonal", {"entries": 5}),
        ("--diagonal", [5]),
        ("--diagonal", [{"coords": [6, 0], "symbol": 0}]),
        ("--diagonal", [{"coords": [-1, 0], "symbol": 0}]),
    ],
)
def test_exit_code_2_on_malformed_json_cells(tmp_path, capsys, flag, payload):
    cube = tmp_path / "z6.lhc"
    run_cli(["construct", "z6-isotope", "--out", str(cube)], capsys)
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps(payload))
    if flag == "--hitting-set":
        argv = ["certify-dilation", str(cube), "--lambda", "2", flag, str(cells)]
    else:
        argv = ["lift", str(cube), "--dprime", "4", flag, str(cells)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "turned-cyclic", "--n", "4", "--d", "0"],
        ["construct", "turned-cyclic", "--n", "4", "--d", "-2"],
        ["construct", "confirmed-bachelor", "--n", "0", "--d", "4"],
        ["construct", "confirmed-bachelor", "--n", "-4", "--d", "4"],
    ],
)
def test_exit_code_2_on_construction_parameters_out_of_range(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and err.startswith("error:")


def test_verify_subset(capsys):
    code, out, err = run_cli(
        ["verify", "paper-claims", "--suite", "quick", "--only", "1,8"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("[ 1/2] PASS 01-")
    assert lines[1].startswith("[ 2/2] PASS 08-")


def test_round_trip_between_commands(tmp_path, capsys):
    # any cube a command emits must be readable by every other command
    cube = tmp_path / "m2.lhc"
    run_cli(["construct", "ord6m", "--m", "2", "--out", str(cube)], capsys)
    dil = tmp_path / "m2x2.lhc"
    code, *_ = run_cli(["dilate", str(cube), "--lambda", "2", "--out", str(dil)], capsys)
    assert code == 0
    code, out, _ = run_cli(["analyze", "delta", str(dil)], capsys)
    assert code == 0
    assert len(_output_of(out, _ANALYZE_DELTA_OUTPUT)["support"]) == 9


def test_canonical_report_form_is_deterministic():
    from transversal_lab.reports import SearchReport
    from transversal_lab.search import enumerate_transversals

    H = cyclic(cyclic_group(3), 2)

    def build():
        witnesses = list(enumerate_transversals(H))
        return SearchReport(
            instance=H.content_id(),
            operation="search transversals",
            group="Z3",
            seed=2024,
            count=len(witnesses),
            witnesses=witnesses,
            elapsed_s=0.123,
        )

    a, b = build(), build()
    b.elapsed_s = 9.9
    assert a.canonical_json() == b.canonical_json()
    assert a.json() != b.json()


def test_verify_quick_suite_passes(capsys):
    import time

    t0 = time.perf_counter()
    code, out, err = run_cli(["verify", "paper-claims", "--suite", "quick"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert "13/13 criteria passed" in out
    assert elapsed < 60.0


# (construct arguments, search arguments, number of results)
_COUNTED_SEARCHES = {
    "transversals": (["cyclic", "--group", "Z5", "--d", "2"], ["search", "transversals"], 15),
    "suitable": (["z6-isotope"], ["search", "suitable", "--dprime", "4"], 56),
}


def _counted_search(tmp_path, capsys, op, *flags):
    construct, search, _ = _COUNTED_SEARCHES[op]
    cube = tmp_path / "c.lhc"
    run_cli(["construct", *construct, "--out", str(cube)], capsys)
    code, out, _ = run_cli([*search, str(cube), *flags], capsys)
    return code, report_of(out)


@pytest.mark.parametrize("op", sorted(_COUNTED_SEARCHES))
def test_search_count_without_results(tmp_path, capsys, op):
    cube = tmp_path / "z4.lhc"
    run_cli(["construct", "cyclic", "--group", "Z4", "--d", "2", "--out", str(cube)], capsys)
    search = _COUNTED_SEARCHES[op][1][:2] + (["--dprime", "2"] if op == "suitable" else [])
    code, out, _ = run_cli([*search, str(cube)], capsys)
    payload = report_of(out)
    assert code == 0 and payload["count"] == 0
    assert payload["exact"] and not payload["exhausted"] and "witnesses" not in payload


@pytest.mark.parametrize("op", sorted(_COUNTED_SEARCHES))
def test_search_count_below_max_witnesses_is_exact(tmp_path, capsys, op):
    total = _COUNTED_SEARCHES[op][2]
    code, payload = _counted_search(tmp_path, capsys, op, "--max-witnesses", str(total + 1))
    assert code == 0 and payload["count"] == total and len(payload["witnesses"]) == total
    assert payload["exact"] and not payload["exhausted"]


@pytest.mark.parametrize("op", sorted(_COUNTED_SEARCHES))
def test_search_count_without_witnesses(tmp_path, capsys, op):
    code, payload = _counted_search(tmp_path, capsys, op, "--max-witnesses", "0")
    assert code == 0 and payload["count"] == _COUNTED_SEARCHES[op][2]
    assert payload["exact"] and "witnesses" not in payload


@pytest.mark.parametrize("op", sorted(_COUNTED_SEARCHES))
def test_search_count_under_max_results(tmp_path, capsys, op):
    total = _COUNTED_SEARCHES[op][2]
    code, payload = _counted_search(tmp_path, capsys, op, "--max-results", str(total + 1))
    assert code == 0 and payload["count"] == total and payload["exact"]
    for cap in (1, 8, total):
        code, payload = _counted_search(tmp_path, capsys, op, "--max-results", str(cap))
        assert code == 3 and payload["count"] == cap
        assert payload["exhausted"] and not payload["exact"]
        assert len(payload["witnesses"]) == min(cap, 8)


def test_search_suitable_without_results_needs_no_search(tmp_path, capsys):
    # L8 has no diagonal with the suitable sum for d'=2: the layers decide it
    # in 506 states with the default 8 witnesses asked for
    cube = tmp_path / "l8.lhc"
    run_cli(["construct", "l8", "--out", str(cube)], capsys)
    argv = ["search", "suitable", str(cube), "--dprime", "2", "--max-nodes", "1000"]
    code, out, _ = run_cli(argv, capsys)
    payload = report_of(out)
    assert code == 0 and payload["count"] == 0 and payload["exact"]
    assert not payload["exhausted"] and "witnesses" not in payload


def test_search_suitable_counts_the_order_16_exhibit(tmp_path, capsys):
    # cyclic Z16 with a block of rows 4, 5, 8, 14 by columns 3, 6, 7, 8, 9,
    # 13 refilled: every diagonal with the suitable sum for d'=4 meets cell
    # (8, 6), and there are 11,496,038,400 of them, counted on the layers
    # within the default budget
    Z16 = cyclic_group(16)
    arr = (np.arange(16)[:, None] + np.arange(16)) % 16
    arr[np.ix_((4, 5, 8, 14), (3, 6, 7, 8, 9, 13))] = [[11, 10, 12, 13, 7, 1],
                                                       [8, 14, 11, 12, 13, 2],
                                                       [1, 11, 15, 0, 14, 5],
                                                       [7, 4, 5, 6, 1, 11]]
    H = Hypercube(arr, Z16)
    assert is_latin(H)
    target = suitable_target(Z16, 4)
    assert count_diagonals(H, target) == Census(11_496_038_400, (), True, 238_034)
    assert hitting_set_check(H, target, [(8, 6)])
    cube = tmp_path / "ex16.lhc"
    save(H, cube)
    code, out, _ = run_cli(["search", "suitable", "--dprime", "4", str(cube)], capsys)
    payload = report_of(out)
    assert code == 0 and payload["count"] == 11_496_038_400 and payload["exact"]
    assert len(payload["witnesses"]) == 8


def test_search_rejects_negative_max_witnesses(tmp_path, capsys):
    code, out, err = run_cli(["construct", "cyclic", "--group", "Z3", "--d", "2"], capsys)
    cube = tmp_path / "c3.lhc"
    cube.write_text(out)
    code, out, err = run_cli(["search", "transversals", str(cube), "--max-witnesses", "-1"], capsys)
    assert code == 2 and out == "" and "non-negative" in err


# The sha256 of each canonical report (sorted keys, compact separators, no
# elapsed time) without its `instance`, which holds the input path; recorded
# before the depth-first search carried the target sum.  Every one of these
# searches runs on the stored layers; those with --max-results were recorded
# when a result cap sent them to the DFS, and the layers give the same report.
_GOLDEN_REPORTS = {
    "suitable-ord8": (["ord8"], ["search", "suitable", "--dprime", "4"],
                      "e1c5f22605ea59f32485c55ac9e335356c3aceda6557c70cfa9a43a04d078196"),
    "suitable-ord8-dfs": (["ord8"], ["search", "suitable", "--dprime", "4", "--max-results", "20"],
                          "63a7245c4dd8d6faae12224910f3a3501397620a01d0e5e026ea13f13a4ba64e"),
    "transversals-z7": (["cyclic", "--group", "Z7", "--d", "2"], ["search", "transversals"],
                        "34577c7b154a050db666f184d58a76b6481a3c362dff3728a04f6b7ebab72b4f"),
    "transversals-z7-dfs": (["cyclic", "--group", "Z7", "--d", "2"],
                            ["search", "transversals", "--max-results", "50"],
                            "38ddbdc1fb8a5aefa7bc14303f79c28360165bb2e919505835092d4237631ac0"),
    "bachelors-cb44": (["confirmed-bachelor", "--n", "4", "--d", "4"], ["search", "bachelors"],
                       "d2afde6b3dbd1064ea05b90def95c4bb55238fa0d0003313170769dae9c89819"),
    "packing-ord8": (["ord8"], ["search", "packing"],
                     "c5a5fc12f39a226b94a879cc647d2c413b2a3cdead21e697ea4a11d8cb53a931"),
    "decompose-z5d3": (["cyclic", "--group", "Z5", "--d", "3"], ["search", "decompose"],
                       "30c32de2a9d821c7fbd815180f26cd1ef0905a631675d1f41a091669b349662d"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
def test_canonical_reports_are_unchanged(tmp_path, capsys, name):
    import hashlib

    construct, search, digest = _GOLDEN_REPORTS[name]
    cube = tmp_path / "c.lhc"
    run_cli(["construct", *construct, "--out", str(cube)], capsys)
    code, out, _ = run_cli([*search, str(cube)], capsys)
    assert code == (3 if "--max-results" in search else 0)
    payload = strip_elapsed(report_of(out))
    del payload["instance"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_schema_is_valid_draft_7():
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)


# (construct arguments, search arguments) of one report per search operation
_SAMPLE_SEARCHES = {
    "transversals": (["cyclic", "--group", "Z5", "--d", "2"], ["search", "transversals"]),
    "suitable": (["z6-isotope"], ["search", "suitable", "--dprime", "4"]),
    "bachelors": (["confirmed-bachelor", "--n", "4", "--d", "4"], ["search", "bachelors"]),
    "packing": (["turned-cyclic", "--n", "4", "--d", "4"], ["search", "packing"]),
    "decompose": (["cyclic", "--group", "Z3", "--d", "2"], ["search", "decompose"]),
}


@pytest.fixture(scope="module")
def sample_reports(tmp_path_factory):
    """The JSON report of each search operation, as the CLI prints it."""
    reports = {}
    for name, (construct, search) in _SAMPLE_SEARCHES.items():
        cube = tmp_path_factory.mktemp(name) / "c.lhc"
        assert main(["construct", *construct, "--out", str(cube)]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*search, str(cube)]) == 0
        reports[name] = report_of(out.getvalue())
    return reports


def _agree(report):
    """validate_report's verdict, which must be the reference's."""
    try:
        validate_report(report)
        accepted = True
    except ReportError:
        accepted = False
    assert accepted == _REFERENCE.is_valid(report), report
    return accepted


def _replaced(node, path, new):
    """A copy of ``node`` with the node at ``path`` replaced by ``new``;
    only the containers along the path are copied."""
    if not path:
        return new
    head, *rest = path
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[head] = _replaced(node[head], rest, new)
    return copy


def _nodes(node, path=()):
    """(path, node) of the node and its descendants, visiting only the first
    and last item of each array so every level is drawn often."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = [(i, node[i]) for i in sorted({0, len(node) - 1})] if node else []
    else:
        return
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _variants(node):
    """Replacements for a node: Draft 7's edge cases for its type, other
    types, and keys removed from or added to an object."""
    if isinstance(node, bool):
        return [int(node), None, str(node)]
    if isinstance(node, int):
        return [True, False, float(node), node + 0.5, np.int64(node), np.float64(node),
                -1 - node, -node, node + 1, None, str(node)]
    if isinstance(node, float):
        return [int(node), True, np.int64(node), None, str(node)]
    if isinstance(node, str):
        return [1, None, [node]]
    if isinstance(node, list):
        return [tuple(node), [], node + node[:1], {}, None]
    if isinstance(node, dict):
        removed = [{k: v for k, v in node.items() if k != key} for key in node]
        return [*removed, {**node, "extra": 0}, list(node), tuple(node.items()), None]
    return [None]


def test_sample_reports_hold_every_key_of_the_schema(sample_reports):
    keys = set().union(*sample_reports.values())
    assert keys == set(REPORT_SCHEMA["properties"])
    assert all(_agree(report) for report in sample_reports.values())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_report_check_agrees_with_draft_7_on_mutations(sample_reports, data):
    report = sample_reports[data.draw(st.sampled_from(sorted(sample_reports)))]
    path, node = data.draw(st.sampled_from(list(_nodes(report))))
    _agree(_replaced(report, path, data.draw(st.sampled_from(_variants(node)))))


# (operation, path, replacement, whether Draft 7 accepts the result)
_MUTATIONS = [
    ("transversals", ("seed",), True, False),
    ("transversals", ("seed",), 2024.0, True),
    ("transversals", ("seed",), np.int64(2024), False),
    ("transversals", ("count",), None, True),
    ("transversals", ("count",), 15.5, False),
    ("transversals", ("schema_version",), True, False),
    ("transversals", ("schema_version",), 1.0, True),
    ("transversals", ("schema_version",), 2, False),
    ("transversals", ("params",), [], False),
    ("transversals", ("witnesses", 0, 0, "symbol"), -1, False),
    ("transversals", ("witnesses", 0, 0, "symbol"), 2.0, True),
    ("transversals", ("witnesses", 0, 0, "symbol"), False, False),
    ("transversals", ("witnesses", 0, 0, "symbol"), np.int64(2), False),
    ("transversals", ("witnesses", 0, 0, "coords"), (0, 0), False),
    ("transversals", ("witnesses", 0, 0, "coords", 1), -1, False),
    ("transversals", ("witnesses", 0), (), False),
    ("bachelors", ("bachelor_cells", 0, 0), -1, False),
    ("bachelors", ("bachelor_cells", 0), (0, 0, 0, 0), False),
    ("packing", ("certificates",), None, False),
    ("packing", ("packing", 0, 0), {"coords": [0, 0, 0, 0]}, False),
    ("packing", ("packing", 0, 0), {"coords": [0, 0, 0, 0], "symbol": 0, "cell": 0}, False),
]


@pytest.mark.parametrize("operation, path, new, accepted", _MUTATIONS)
def test_report_check_verdicts_on_edge_cases(sample_reports, operation, path, new, accepted):
    assert _agree(_replaced(sample_reports[operation], path, new)) == accepted


def test_report_check_rejects_extra_and_missing_keys(sample_reports):
    report = sample_reports["decompose"]
    assert not _agree({**report, "extra": 0})
    assert not _agree({k: v for k, v in report.items() if k != "exact"})
    assert _agree({k: v for k, v in report.items() if k != "elapsed_s"})


def test_report_error_names_the_json_path(sample_reports):
    report = _replaced(sample_reports["transversals"], ("witnesses", 1, 2, "symbol"), -3)
    with pytest.raises(ReportError, match=r"\$\.witnesses\[1\]\[2\]\.symbol"):
        validate_report(report)


def test_report_error_is_a_fault_not_malformed_input(tmp_path, monkeypatch):
    # cli.run maps ValueError, KeyError and OSError to exit code 2
    assert not issubclass(ReportError, (ValueError, KeyError, OSError))
    cube = tmp_path / "z3.lhc"
    assert main(["construct", "cyclic", "--group", "Z3", "--d", "2", "--out", str(cube)]) == 0
    to_dict = SearchReport.to_dict

    def negative_symbol(self, **kwargs):
        out = to_dict(self, **kwargs)
        out["witnesses"][0][0]["symbol"] = -1
        return out

    monkeypatch.setattr(SearchReport, "to_dict", negative_symbol)
    with pytest.raises(ReportError):
        main(["search", "transversals", str(cube)])


def test_jsonschema_stays_off_the_run_time_path():
    src = Path(transversal_lab.__file__).resolve().parent.parent
    code = ("import sys, transversal_lab.cli, transversal_lab.claims; "
            "print('jsonschema' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "False"


def _outcome(call, argv, capsys):
    """Exit code, stdout (a report without its elapsed time) and stderr of one call."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    try:
        out = strip_elapsed(json.loads(captured.out))
    except ValueError:
        out = captured.out
    return code, out, captured.err


def test_reused_parser_answers_as_a_fresh_one(tmp_path, capsys):
    cube = tmp_path / "z5.lhc"
    assert main(["construct", "cyclic", "--group", "Z5", "--d", "2", "--out", str(cube)]) == 0
    assert cli._parser() is cli._parser()
    path = str(cube)
    calls = [
        ["search", "packing", path, "--cap", "2"],
        ["search", "packing", path],
        ["search", "transversals", path, "--max-witnesses", "1"],
        ["search", "transversals", path],
        ["search", "transversals", path, "--format", "text-grid"],
        ["search", "transversals", path],
        ["search", "transversals", path, "--no-such-flag"],
        ["search", "transversals", path],
        ["search", "--help"],
        ["search", "transversals", path],
    ]
    outcomes = []
    for argv in calls:
        got = _outcome(main, argv, capsys)
        fresh = _outcome(lambda a: cli.run(cli.build_parser().parse_args(a)), argv, capsys)
        assert got == fresh, argv
        outcomes.append(got)
    codes = [code for code, _, _ in outcomes]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
    assert outcomes[0][1]["params"] == {"cap": 2} and outcomes[1][1]["params"] == {}
    assert [len(outcomes[i][1]["witnesses"]) for i in (2, 3)] == [1, 8]
    assert outcomes[4][1].startswith("# search transversals") and "*" in outcomes[4][1]
    assert isinstance(outcomes[5][1], dict)
    assert "--no-such-flag" in outcomes[6][2]
    assert outcomes[8][1].startswith("usage: transversal-lab search")


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    build_parser, built = cli.build_parser, []

    def spy():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        cube = tmp_path / "z3.lhc"
        assert main(["construct", "cyclic", "--group", "Z3", "--d", "2", "--out", str(cube)]) == 0
        assert main(["analyze", "delta", str(cube)]) == 0
        assert main(["search", "transversals", str(cube)]) == 0
        assert len(built) == 1
        assert build_parser() is not build_parser()
    finally:
        cli._parser.cache_clear()


def test_importing_the_cli_builds_no_parser():
    src = Path(transversal_lab.__file__).resolve().parent.parent
    code = "import transversal_lab.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "0"
