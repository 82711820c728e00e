import json

import pytest

from transversal_lab.cli import main
from transversal_lab.constructions import ord6m_starred_cells, z6_marked_diagonal
from transversal_lab.extension import g_extension
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import cyclic, load
from transversal_lab.reports import diagonal_from_json, diagonal_to_json, validate_report


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    payload = json.loads(out)
    validate_report(payload)
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


def test_analyze_delta_json(tmp_path, capsys):
    cube = tmp_path / "m1.lhc"
    run_cli(["construct", "ord6m", "--m", "1", "--out", str(cube)], capsys)
    code, out, err = run_cli(["analyze", "delta", str(cube)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["support"]) == 9
    assert payload["projection_sizes"] == [3, 4]
    assert {"coords": [1, 1], "delta": [5]} in payload["support"]


def test_search_suitable_counts_match_oracle(tmp_path, capsys):
    import numpy as np
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
    T = diagonal_from_json(payload["witnesses"][0], ext, transversal=True)
    assert T.complete


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
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["image_cells"] == [[2, 0], [2, 2]]


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
    code, out, err = run_cli(["verify", "paper-claims", "--only", "1,x"], capsys)
    assert code == 2 and out == "" and err.startswith("error:")


def test_search_decompose_keeps_time_cap(tmp_path, capsys):
    # the climber checks its deadline every 4096 moves and has not finished by
    # the first check on this cube at seed 2024, so the run stops there
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
    assert len(json.loads(out)["support"]) == 9


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


def test_search_rejects_negative_max_witnesses(tmp_path, capsys):
    code, out, err = run_cli(["construct", "cyclic", "--group", "Z3", "--d", "2"], capsys)
    cube = tmp_path / "c3.lhc"
    cube.write_text(out)
    code, out, err = run_cli(["search", "transversals", str(cube), "--max-witnesses", "-1"], capsys)
    assert code == 2 and out == "" and "non-negative" in err
