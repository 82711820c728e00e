"""The three workloads: seeded inputs, the operations run on them, and the
check of every answer against ``expected.json``.

Import this module only after ``src/`` is on ``sys.path`` (``worker.py``
arranges that), so the package under test is the checkout's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from transversal_lab import claims, cli
from transversal_lab import constructions as cons
from transversal_lab.extension import g_extension
from transversal_lab.groups import cyclic_group
from transversal_lab.hypercube import apply_isotopy, cyclic, save

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))
WORKLOADS = ("claims", "enumerate", "certify")

# How the seed may relabel an instance without changing its stored answer.
# FULL: any isotopy.  Transversal counts and packing sizes are invariant, and
# bachelor cells move with the coordinate permutations.
# SHIFT: coordinate permutations plus a cyclic symbol shift.  A complete
# diagonal meets every hyperplane once, so its deviation sum changes by n times
# the shift, which is zero; counts of diagonals with a given sum are invariant.
# FIXED: the input is used as built.  The dilation certificate depends on the
# cyclic labelling itself.  Packing and decomposition are answer-invariant but
# not work-invariant: over seeds 1-8, relabelled Z11 d=2 packings took 3.8 s
# to over 15 s, and the seeded climber took 0.4-6 s on Z5 d=3, which would
# swamp every other change in a run.  So their inputs, and the climber's
# seed, stay fixed.
FULL, SHIFT, FIXED = "full", "shift", "fixed"

BASES = {
    "z3d4": lambda: cyclic(cyclic_group(3), 4),
    "z5d3": lambda: cyclic(cyclic_group(5), 3),
    "z5d4": lambda: cyclic(cyclic_group(5), 4),
    "z9d2": lambda: cyclic(cyclic_group(9), 2),
    "z10d2": lambda: cyclic(cyclic_group(10), 2),
    "z11d2": lambda: cyclic(cyclic_group(11), 2),
    "tc44": lambda: cons.turned_cyclic(4, 4),
    "cb46": lambda: cons.confirmed_bachelor(4, 6),
    "ts44": cons.third_species_44,
    "ord8": cons.ord8_square,
    "l8": cons.l8_square,
    "z6iso": cons.z6_isotope_square,
    "ord6m1": lambda: cons.ord6m_square(1),
    "ord6m1x3": lambda: g_extension(cons.ord6m_square(1), cyclic_group(6), 3),
}

# (operation id, base instance, relabelling, command line before the input path)
CLI_OPS = {
    "enumerate": (
        ("transversals-z11d2", "z11d2", FULL, ["search", "transversals"]),
        ("transversals-z5d4", "z5d4", FULL, ["search", "transversals"]),
        ("transversals-z9d2", "z9d2", FULL, ["search", "transversals"]),
        ("transversals-z10d2", "z10d2", FULL, ["search", "transversals"]),
        ("transversals-tc44", "tc44", FULL, ["search", "transversals"]),
        ("suitable-ord8", "ord8", SHIFT, ["search", "suitable", "--dprime", "4"]),
        ("suitable-l8", "l8", SHIFT, ["search", "suitable", "--dprime", "2"]),
        ("suitable-z6iso", "z6iso", SHIFT, ["search", "suitable", "--dprime", "4"]),
        ("suitable-ord6m1", "ord6m1", SHIFT, ["search", "suitable", "--dprime", "4"]),
    ),
    "certify": (
        ("bachelors-z10d2", "z10d2", FULL, ["search", "bachelors"]),
        ("bachelors-cb46", "cb46", FULL, ["search", "bachelors"]),
        ("bachelors-ts44", "ts44", FULL, ["search", "bachelors"]),
        ("bachelors-l8", "l8", FULL, ["search", "bachelors"]),
        ("bachelors-ord6m1x3", "ord6m1x3", FULL, ["search", "bachelors"]),
        ("packing-z11d2", "z11d2", FIXED, ["search", "packing"]),
        ("packing-z5d3", "z5d3", FIXED, ["search", "packing"]),
        ("packing-z9d2", "z9d2", FIXED, ["search", "packing"]),
        ("packing-tc44", "tc44", FIXED, ["search", "packing"]),
        ("packing-ord8", "ord8", FIXED, ["search", "packing"]),
        ("decompose-z5d3", "z5d3", FIXED, ["search", "decompose", "--seed", "2024"]),
        ("decompose-z3d4", "z3d4", FIXED, ["search", "decompose", "--seed", "2024"]),
        ("dilation-ord8", "ord8", FIXED,
         ["certify-dilation", "--lambda", "3", "--hitting-set", "{hitting_set}"]),
    ),
}

_TIMING = re.compile(r"\d+\.\d+s")


@dataclass
class Op:
    """One operation: a claim criterion, or one ``cli.main`` call on a file."""

    id: str
    criterion: int | None = None
    argv: list[str] | None = None
    symbols: np.ndarray | None = None  # the input cube, for checking witnesses
    perms: list[list[int]] | None = None  # coordinate permutations applied to the base


def _relabel(base, mode: str, rng: random.Random):
    n, d = base.n, base.d
    perms = [list(range(n)) for _ in range(d + 1)]
    if mode == FIXED:
        return base, perms[:d]
    for p in perms[:d]:
        rng.shuffle(p)
    if mode == FULL:
        rng.shuffle(perms[d])
    else:
        shift = rng.randrange(n)
        perms[d] = [(s + shift) % n for s in range(n)]
    return apply_isotopy(base, perms), perms[:d]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's inputs from the seed and return its operations."""
    if workload == "claims":
        return [Op(f"c{c.number:02d}", criterion=c.number) for c in claims.CRITERIA]
    rng = random.Random(seed)
    workdir.mkdir(exist_ok=True)
    hitting_set = workdir / "ord8-blocking.json"
    hitting_set.write_text(json.dumps([list(c) for c in cons.ord8_blocking_cells()]))
    ops = []
    for op_id, base_id, mode, argv in CLI_OPS[workload]:
        H, perms = _relabel(BASES[base_id](), mode, rng)
        path = workdir / f"{op_id}.lhc"
        save(H, path)
        argv = [a.format(hitting_set=hitting_set) for a in argv] + [str(path)]
        ops.append(Op(op_id, argv=argv, symbols=np.array(H.symbols), perms=perms))
    return ops


def run(op: Op, seed: int) -> dict:
    """Run one operation and return its answer; exceptions propagate."""
    if op.criterion is not None:
        (res,) = claims.run_claims("full", seed=seed, only=[op.criterion])
        detail = _TIMING.sub("<t>", res.detail)
        return {"passed": res.passed, "detail": detail, "elapsed_s": res.elapsed_s}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op.argv)
    answer = {"exit_code": rc, "stderr": err.getvalue().strip()}
    if rc == 0:
        answer["report"] = json.loads(out.getvalue())
        answer["report"].pop("elapsed_s", None)
    return answer


def digest(answer: dict) -> str:
    """Hash of an answer without timings, to compare traced and untraced runs."""
    untimed = {k: v for k, v in answer.items() if k != "elapsed_s"}
    return hashlib.sha256(json.dumps(untimed, sort_keys=True).encode()).hexdigest()[:16]


# -- checks: each returns None when the answer is right, else the reason ------


def check(op: Op, answer: dict, expected: dict) -> str | None:
    if op.criterion is not None:
        if not answer["passed"]:
            return f"criterion failed: {answer['detail']}"
        if answer["detail"] != expected["detail"]:
            return f"detail {answer['detail']!r} != expected {expected['detail']!r}"
        return None
    if answer["exit_code"] != 0:
        return f"exit code {answer['exit_code']}: {answer['stderr'][-200:]}"
    report = answer["report"]
    if "holds" in report:
        return _check_fields(report, expected)
    if report["exhausted"] or not report["exact"]:
        return "undecided: exhausted or not exact"
    kind = op.id.split("-")[0]
    problem = _check_fields(report, {"count": expected["count"]})
    if problem is None:
        problem = _CHECKS[kind](op, report, expected)
    return problem


def _check_fields(got: dict, expected: dict) -> str | None:
    for key, value in expected.items():
        if key != "source" and got.get(key) != value:
            return f"{key} {got.get(key)!r} != expected {value!r}"
    return None


def _diagonal_problem(symbols: np.ndarray, diag: list[dict], transversal: bool) -> str | None:
    n, d = symbols.shape[0], symbols.ndim
    coords = np.array([e["coords"] for e in diag], dtype=np.int64).reshape(-1, d)
    syms = [e["symbol"] for e in diag]
    if len(diag) != n or coords.min() < 0 or coords.max() >= n:
        return "witness is not a complete diagonal"
    if symbols[tuple(coords.T)].tolist() != syms:
        return "witness symbols differ from the cube"
    if any(len(set(coords[:, a].tolist())) != n for a in range(d)):
        return "witness entries share a hyperplane"
    if transversal and len(set(syms)) != n:
        return "witness repeats a symbol"
    return None


def _first_problem(problems) -> str | None:
    return next((p for p in problems if p is not None), None)


def _check_transversals(op: Op, report: dict, expected: dict) -> str | None:
    return _first_problem(
        _diagonal_problem(op.symbols, w, True) for w in report.get("witnesses", [])
    )


def _check_suitable(op: Op, report: dict, expected: dict) -> str | None:
    target = report["certificates"]["target_sum"]
    if target != expected["target_sum"]:
        return f"target_sum {target} != expected {expected['target_sum']}"
    n = op.symbols.shape[0]
    for w in report.get("witnesses", []):
        problem = _diagonal_problem(op.symbols, w, False)
        if problem is not None:
            return problem
        total = sum(e["symbol"] - sum(e["coords"]) for e in w) % n
        if [total] != target:
            return f"witness deviation sum {total} != target {target}"
    return None


def _check_bachelors(op: Op, report: dict, expected: dict) -> str | None:
    cells = expected["cells"]
    if cells == "all":
        want = {tuple(c) for c in np.ndindex(op.symbols.shape)}
    else:
        want = {tuple(p[x] for p, x in zip(op.perms, c)) for c in cells}
    got = {tuple(c) for c in report["bachelor_cells"]}
    if got != want:
        return f"bachelor cells differ from expected in {len(got ^ want)} cells"
    return None


def _check_partition(op: Op, diagonals: list[list[dict]]) -> str | None:
    problem = _first_problem(_diagonal_problem(op.symbols, w, True) for w in diagonals)
    cells = [tuple(e["coords"]) for w in diagonals for e in w]
    if problem is None and len(set(cells)) != len(cells):
        problem = "transversals are not pairwise disjoint"
    return problem


def _check_packing(op: Op, report: dict, expected: dict) -> str | None:
    problem = _check_fields(
        report["certificates"],
        {k: expected[k] for k in ("optimal", "transversal_count")},
    )
    return problem or _check_partition(op, report["packing"])


def _check_decompose(op: Op, report: dict, expected: dict) -> str | None:
    return _check_partition(op, report["witnesses"])


_CHECKS = {
    "transversals": _check_transversals,
    "suitable": _check_suitable,
    "bachelors": _check_bachelors,
    "packing": _check_packing,
    "decompose": _check_decompose,
}
