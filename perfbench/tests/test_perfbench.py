"""Tests of the benchmark itself: answer checks, failure accounting, spans,
the host-speed gauge.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gauge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 2024


@pytest.fixture(scope="module")
def certify_ops(tmp_path_factory):
    ops = workloads.build("certify", SEED, tmp_path_factory.mktemp("inputs"))
    return {op.id: op for op in ops}


def test_correct_answers_pass(certify_ops):
    for op_id in ("bachelors-ts44", "packing-tc44", "decompose-z3d4", "dilation-ord8"):
        op = certify_ops[op_id]
        answer = workloads.run(op, SEED)
        assert workloads.check(op, answer, workloads.EXPECTED["certify"][op_id]) is None


def test_wrong_expected_value_is_a_named_failure(certify_ops):
    op = certify_ops["packing-ord8"]
    wrong = dict(workloads.EXPECTED["certify"][op.id], count=3)
    problem = workloads.check(op, workloads.run(op, SEED), wrong)
    assert problem is not None and "count" in problem

    wrong_cells = dict(workloads.EXPECTED["certify"]["bachelors-ts44"], cells=[[0, 0, 0, 0]] * 32)
    op = certify_ops["bachelors-ts44"]
    assert workloads.check(op, workloads.run(op, SEED), wrong_cells) is not None


def test_budget_exhaustion_is_a_failure(certify_ops):
    for op_id, kind in (("bachelors-ts44", "bachelors"), ("packing-tc44", "packing")):
        op = certify_ops[op_id]
        capped = workloads.Op(op.id, argv=["search", kind, "--max-nodes", "10", op.argv[-1]],
                              symbols=op.symbols, perms=op.perms)
        answer = workloads.run(capped, SEED)
        problem = workloads.check(capped, answer, workloads.EXPECTED["certify"][op_id])
        assert problem is not None, op_id


def test_forged_witness_is_rejected(certify_ops):
    op = certify_ops["packing-ord8"]
    answer = workloads.run(op, SEED)
    first = answer["report"]["packing"][0]
    first[0], first[1] = dict(first[0], symbol=first[1]["symbol"]), dict(first[1], symbol=first[0]["symbol"])
    assert workloads.check(op, answer, workloads.EXPECTED["certify"][op.id]) is not None


def test_failures_count_toward_ops_failed():
    ok = {"op": "a", "digest": "x", "failure": None}
    runs = {
        "setups": [],
        "plain": [{"ops": [ok, {"op": "b", "digest": None, "failure": "exit code 3"}]}],
        "traced": [{"ops": [dict(ok, digest="y"), {"op": "b", "digest": None, "failure": "exit code 3"}]}],
    }
    attempted, failures = run.verdict("certify", runs)
    assert attempted == 4
    assert len(failures) == 3
    assert any("certify/a" in f and "differs" in f for f in failures)
    assert all("certify/b" in f for f in failures if "differs" not in f)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.begin_op("op")
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    times = tracer.self_times()
    assert times["outer"][0] == 1 and times["inner"][0] == 1
    assert 0.015 < times["outer"][1] < 0.03
    assert times["inner"][1] >= 0.03


def test_generator_spans_exclude_the_callers_loop_body():
    tracer = spans.Tracer()
    tracer.begin_op("op")

    def produce():
        for i in range(3):
            yield i

    traced = spans._wrap_generator(produce, tracer, "gen")
    with tracer.span("caller"):
        for _ in traced():
            time.sleep(0.01)
    times = tracer.self_times()
    assert times["gen"][0] == 4  # three items and the final resume
    assert times["gen"][1] < 0.005
    assert times["caller"][1] >= 0.03
    assert tracer.counts["gen.results"] == 3


def test_gauge_scales_an_interval_by_its_own_samples():
    g = gauge.Gauge()
    g.samples = [(0.0, 0.001), (1.0, 0.003), (2.0, 0.004), (3.0, 0.002)]
    # two samples inside: their time is taken out, their mean sets the speed
    assert g.scaled(0.0, 2.0) == pytest.approx((2.0 - 0.004) * gauge.NOMINAL_S / 0.002)
    # none inside: the first sample after the interval sets the speed
    assert g.scaled(2.5, 2.9) == pytest.approx(0.4 * gauge.NOMINAL_S / 0.002)


def test_gauge_samples_while_the_worker_runs():
    g = gauge.Gauge()
    g.start()
    try:
        end = time.monotonic() + 10 * gauge.INTERVAL_S
        while time.monotonic() < end:
            sum(range(1000))
    finally:
        g.stop()
    assert len(g.samples) >= 5
    assert gauge.reference() == gauge.REFERENCE_COUNT


_TRACED_VS_PLAIN = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path
    sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
    import workloads, spans
    ids = {"bachelors-ts44", "packing-tc44", "decompose-z3d4", "dilation-ord8"}
    ops = [op for op in workloads.build("certify", 2024, Path(sys.argv[2])) if op.id in ids]
    ops += [op for op in workloads.build("claims", 2024, Path(sys.argv[2])) if op.id in {"c05", "c10"}]
    plain = [workloads.digest(workloads.run(op, 2024)) for op in ops]
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin_op("all")
    traced = [workloads.digest(workloads.run(op, 2024)) for op in ops]
    print(json.dumps({"plain": plain, "traced": traced,
                      "calls": {k: v[0] for k, v in tracer.self_times().items()}}))
    """
)


def test_traced_and_untraced_answers_match(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_VS_PLAIN, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["plain"] == out["traced"]
    for name in ("cli.main", "search.bachelors", "search.packing", "search.decompose",
                 "dilation.transfer", "search.hitting", "hypercube.load", "reports.validate"):
        assert out["calls"].get(name, 0) > 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "claims", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
