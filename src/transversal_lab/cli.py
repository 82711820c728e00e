"""Command-line front end producing reproducible JSON reports.

Exit codes: 0 success, 2 validation error (bad parameters, malformed files),
3 budget exhaustion with partial results flagged.  All randomness flows from
one seed; reports are deterministic for a fixed seed and budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from . import constructions as cons
from .delta import profile, suitable_target, support_as_json
from .dilation import dilate, psi_cell, transfer_hitting_set
from .extension import g_extension, lift_diagonal
from .groups import parse_group
from .hypercube import (
    Coords,
    Diagonal,
    FormatError,
    Hypercube,
    is_latin,
    load,
    save,
    serialize,
)
from .reports import SearchReport, cell_from_json, diagonal_from_json
from .search import (
    DEFAULT_SEED,
    BudgetExhausted,
    SearchBudget,
    bachelor_cells,
    enumerate_diagonals,
    enumerate_transversals,
    hill_climb_decomposition,
    max_disjoint_transversals,
)


@dataclass
class RunConfig:
    command: str
    subcommand: str | None = None
    input_path: str | None = None
    out: str | None = None
    group: str | None = None
    n: int | None = None
    d: int | None = None
    m: int | None = None
    d_prime: int | None = None
    factor: int | None = None
    cap: int | None = None
    max_nodes: int | None = None
    max_results: int | None = None
    time_cap: float | None = None
    max_witnesses: int = 8
    seed: int = DEFAULT_SEED
    fmt: str = "json"
    suite: str = "quick"
    only: list[int] = field(default_factory=list)
    diagonal_path: str | None = None
    hitting_set_path: str | None = None
    construction: str | None = None

    def budget(self) -> SearchBudget:
        kw = {"rng_seed": self.seed}
        if self.max_nodes is not None:
            kw["max_nodes"] = self.max_nodes
        if self.max_results is not None:
            kw["max_results"] = self.max_results
        if self.time_cap is not None:
            kw["time_cap"] = self.time_cap
        return SearchBudget(**kw)


def _load_cube(config: RunConfig) -> Hypercube:
    if config.input_path is None:
        raise ValueError("this command needs an input .lhc file")
    group = parse_group(config.group) if config.group else None
    H = load(config.input_path, group)
    return H


def _emit(config: RunConfig, text: str, stdout) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def render_grid(H: Hypercube, highlights: dict[Coords, str] | None = None) -> str:
    """Human-readable grid; higher dimensions print as labeled square slices."""
    highlights = highlights or {}
    width = len(str(H.n - 1)) + (1 if highlights else 0)
    lines = []

    def square(prefix: Coords) -> None:
        if prefix:
            lines.append("slice " + ",".join(str(p) for p in prefix) + ",*,*:")
        for r in range(H.n):
            row = []
            for c in range(H.n):
                coords = prefix + (r, c)
                mark = highlights.get(coords, "")
                row.append(f"{H[coords]}{mark}".rjust(width))
            lines.append(" ".join(row))
        lines.append("")

    if H.d == 2:
        square(())
    else:
        import itertools as _it

        for prefix in _it.product(range(H.n), repeat=H.d - 2):
            square(prefix)
    return "\n".join(lines).rstrip() + "\n"


def _witness_marks(diagonals: Sequence[Diagonal]) -> dict[Coords, str]:
    marks = {}
    letters = "*+#@"
    for i, D in enumerate(diagonals):
        for e in D.entries:
            marks[e.coords] = letters[i % len(letters)]
    return marks


def cmd_construct(config: RunConfig, stdout) -> int:
    group = parse_group(config.group) if config.group else None
    H = cons.build(config.construction, group=group, n=config.n, d=config.d, m=config.m)
    if config.fmt == "text-grid":
        _emit(config, render_grid(H), stdout)
    else:
        _emit(config, serialize(H), stdout)
    return 0


def cmd_analyze_delta(config: RunConfig, stdout) -> int:
    H = _load_cube(config)
    prof = profile(H)
    if config.fmt == "text-grid" and H.d == 2:
        grid = Hypercube(prof.indices, H.group)
        _emit(config, render_grid(grid), stdout)
        return 0
    payload = {
        "instance": config.input_path,
        "group": str(prof.group),
        "support": support_as_json(prof),
        "projections": [sorted(p) for p in prof.projections],
        "projection_sizes": list(prof.projection_sizes()),
    }
    _emit(config, json.dumps(payload, indent=2, sort_keys=True) + "\n", stdout)
    return 0


def _finish_report(config: RunConfig, report: SearchReport, stdout, t0: float) -> int:
    report.elapsed_s = round(time.perf_counter() - t0, 6)
    if config.fmt == "text-grid" and report.witnesses:
        H = _load_cube(config)
        head = f"# {report.operation}: count={report.count} exact={report.exact}\n"
        _emit(config, head + render_grid(H, _witness_marks(report.witnesses[:4])), stdout)
    else:
        _emit(config, report.json(), stdout)
    return 3 if report.exhausted else 0


def _reject_max_results(config: RunConfig, what: str) -> None:
    if config.max_results is not None:
        raise ValueError(f"{what} yields no list of results; --max-results does not apply")


def cmd_search(config: RunConfig, stdout) -> int:
    op = config.subcommand
    if op in ("bachelors", "packing", "decompose"):
        _reject_max_results(config, f"search {op}")
    H = _load_cube(config)
    budget = config.budget()
    t0 = time.perf_counter()
    report = SearchReport(
        instance=config.input_path or H.content_id(),
        operation=f"search {op}",
        group=str(H.group),
        seed=config.seed,
        params={
            k: v
            for k, v in {
                "d_prime": config.d_prime,
                "cap": config.cap,
                "max_nodes": config.max_nodes,
                "max_results": config.max_results,
            }.items()
            if v is not None
        },
    )

    if op in ("transversals", "suitable"):
        if op == "suitable":
            if config.d_prime is None:
                raise ValueError("search suitable requires --dprime")
            target = suitable_target(H.group, config.d_prime)
            gen = enumerate_diagonals(H, H.group, target, budget)
            report.certificates["target_sum"] = list(target)
        else:
            gen = enumerate_transversals(H, budget)
        count = 0
        witnesses = []
        try:
            for D in gen:
                if count < config.max_witnesses:
                    witnesses.append(D)
                count += 1
        except BudgetExhausted:
            report.exhausted = True
            report.exact = False
        report.count = count
        report.witnesses = witnesses
        return _finish_report(config, report, stdout, t0)

    if op == "bachelors":
        scan = bachelor_cells(H, budget)
        report.count = len(scan.bachelor_cells)
        report.exact = scan.exhaustive
        report.exhausted = not scan.exhaustive
        report.bachelor_cells = list(scan.bachelor_cells)
        report.certificates["checked_cells"] = scan.checked_cells
        return _finish_report(config, report, stdout, t0)

    if op == "packing":
        result = max_disjoint_transversals(H, config.cap, budget)
        report.count = len(result.packing)
        report.exact = result.optimal
        report.exhausted = result.exhausted
        report.packing = list(result.packing)
        report.certificates.update(
            {
                "optimal": result.optimal,
                "upper_bound": result.upper_bound,
                "certificate": result.certificate,
                "transversal_count": result.transversal_count,
            }
        )
        return _finish_report(config, report, stdout, t0)

    if op == "decompose":
        if config.max_nodes is None:
            # the climber cannot prove nonexistence, so give it a finite
            # default move budget instead of the enumeration default
            budget = replace(budget, max_nodes=1_000_000)
        decomposition = hill_climb_decomposition(H, budget)
        if decomposition is None:
            report.count = 0
            report.exact = False
            report.exhausted = True
            report.certificates["note"] = "no decomposition found within budget"
            return _finish_report(config, report, stdout, t0)
        report.count = len(decomposition)
        report.witnesses = list(decomposition)
        return _finish_report(config, report, stdout, t0)

    raise ValueError(f"unknown search operation {op!r}")


def cmd_extend(config: RunConfig, stdout) -> int:
    H = _load_cube(config)
    if config.d_prime is None:
        raise ValueError("extend requires --dprime")
    out = g_extension(H, H.group, config.d_prime)
    _emit(config, serialize(out), stdout)
    return 0


def cmd_lift(config: RunConfig, stdout) -> int:
    H = _load_cube(config)
    if config.d_prime is None:
        raise ValueError("lift requires --dprime")
    if config.diagonal_path is None:
        raise ValueError("lift requires --diagonal")
    with open(config.diagonal_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    records = payload["entries"] if isinstance(payload, dict) else payload
    D = diagonal_from_json(records, H)
    t0 = time.perf_counter()
    T = lift_diagonal(H, D, H.group, config.d_prime)
    report = SearchReport(
        instance=config.input_path,
        operation="lift",
        group=str(H.group),
        seed=config.seed,
        params={"d_prime": config.d_prime},
        count=1,
        witnesses=[T],
    )
    return _finish_report(config, report, stdout, t0)


def cmd_dilate(config: RunConfig, stdout) -> int:
    H = _load_cube(config)
    if config.factor is None:
        raise ValueError("dilate requires --lambda")
    out = dilate(H, config.factor)
    _emit(config, serialize(out), stdout)
    return 0


def cmd_certify_dilation(config: RunConfig, stdout) -> int:
    H = _load_cube(config)
    if config.factor is None:
        raise ValueError("certify-dilation requires --lambda")
    if config.hitting_set_path is None:
        raise ValueError("certify-dilation requires --hitting-set")
    _reject_max_results(config, "certify-dilation")
    with open(config.hitting_set_path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"hitting set {records!r} is not a list of cells")
    cells = [cell_from_json(c, H) for c in records]
    cert = transfer_hitting_set(H, cells, config.factor, config.budget())
    payload = {
        "instance": config.input_path,
        "factor": cert.factor,
        "cells": [list(c) for c in cert.cells],
        "image_cells": [list(psi_cell(c, cert.factor)) for c in cert.cells],
        "parity_ok": cert.parity_ok,
        "base_hitting_ok": cert.base_hitting_ok,
        "spread_ok": cert.spread_ok,
        "direct_ok": cert.direct_ok,
        "projection_sizes": list(cert.spread.sizes),
        "projection_bound": cert.spread.bound,
        "holds": cert.holds,
    }
    _emit(config, json.dumps(payload, indent=2, sort_keys=True) + "\n", stdout)
    return 0


def cmd_verify(config: RunConfig, stdout) -> int:
    from .claims import run_claims

    if config.subcommand != "paper-claims":
        raise ValueError(f"unknown verify target {config.subcommand!r}")
    only = config.only or None
    results = run_claims(config.suite, seed=config.seed, only=only)
    total = len(results)
    for i, res in enumerate(results, start=1):
        status = "PASS" if res.passed else "FAIL"
        stdout.write(
            f"[{i:2d}/{total}] {status} {res.number:02d}-{res.slug} "
            f"({res.elapsed_s:.2f}s) {res.detail}\n"
        )
    failed = [r for r in results if not r.passed]
    stdout.write(
        f"{total - len(failed)}/{total} criteria passed "
        f"({sum(r.elapsed_s for r in results):.1f}s total)\n"
    )
    return 1 if failed else 0


_DISPATCH = {
    "construct": cmd_construct,
    "analyze": cmd_analyze_delta,
    "search": cmd_search,
    "extend": cmd_extend,
    "lift": cmd_lift,
    "dilate": cmd_dilate,
    "certify-dilation": cmd_certify_dilation,
    "verify": cmd_verify,
}


def run(config: RunConfig, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        return _DISPATCH[config.command](config, stdout)
    except BudgetExhausted as exc:
        stderr.write(f"budget exhausted: {exc}\n")
        return 3
    except (ValueError, FormatError, cons.ConstructionError, OSError, KeyError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", dest="fmt", choices=("json", "text-grid"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--time-cap", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transversal-lab",
        description="Latin hypercube constructions, deviation analysis and exact transversal search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument("construction", choices=cons.CONSTRUCTION_IDS)
    p.add_argument("--group", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("analyze", help="analyze a cube")
    p.add_argument("subcommand", choices=("delta",))
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    _add_common(p)

    p = sub.add_parser("search", help="exact searches")
    p.add_argument(
        "subcommand",
        choices=("transversals", "suitable", "bachelors", "packing", "decompose"),
    )
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--dprime", dest="d_prime", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--max-witnesses", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("extend", help="boost dimension over the index group")
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--dprime", dest="d_prime", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("lift", help="lift a diagonal to a transversal of the extension")
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--dprime", dest="d_prime", type=int, required=True)
    p.add_argument("--diagonal", dest="diagonal_path", required=True)
    _add_common(p)

    p = sub.add_parser("dilate", help="boost order by dilation")
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--lambda", dest="factor", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("certify-dilation", help="transfer a hitting-set restriction")
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--lambda", dest="factor", type=int, required=True)
    p.add_argument("--hitting-set", dest="hitting_set_path", required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run the built-in claim suite")
    p.add_argument("subcommand", choices=("paper-claims",))
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    _add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    only = []
    if getattr(args, "only", None):
        only = [int(x) for x in str(args.only).split(",") if x.strip()]
    return RunConfig(
        command=args.command,
        subcommand=getattr(args, "subcommand", None),
        input_path=getattr(args, "input_path", None),
        out=args.out,
        group=getattr(args, "group", None),
        n=getattr(args, "n", None),
        d=getattr(args, "d", None),
        m=getattr(args, "m", None),
        d_prime=getattr(args, "d_prime", None),
        factor=getattr(args, "factor", None),
        cap=getattr(args, "cap", None),
        max_nodes=args.max_nodes,
        max_results=args.max_results,
        time_cap=args.time_cap,
        max_witnesses=getattr(args, "max_witnesses", 8),
        seed=args.seed,
        fmt=args.fmt,
        suite=getattr(args, "suite", "quick"),
        only=only,
        diagonal_path=getattr(args, "diagonal_path", None),
        hitting_set_path=getattr(args, "hitting_set_path", None),
        construction=getattr(args, "construction", None),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
