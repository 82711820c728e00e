"""Command-line front end producing reproducible JSON reports.

Exit codes: 0 success, 1 a ``verify`` criterion failed, 2 validation error
(bad parameters, malformed files), 3 budget exhaustion: a ``search`` report
still prints, its partial results flagged, but ``certify-dilation`` prints
only the stderr line.  Reports are deterministic for a fixed seed and
budget.  Each subcommand registers only the flags its handler reads; the
handler takes the parsed namespace.

``main`` builds one parser per process, on its first call, and reuses it for
every later call; ``build_parser()`` returns a new parser on each call, which
a caller may extend.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from typing import Sequence

from . import constructions as cons
from .delta import profile, suitable_target, support_as_json
from .dilation import dilate, psi_cell, transfer_hitting_set
from .extension import g_extension, lift_diagonal
from .groups import parse_group
from .hypercube import Coords, Diagonal, Hypercube, load, serialize
from .reports import SearchReport, cell_from_json, diagonal_from_json
from .search import (
    DEFAULT_SEED,
    BudgetExhausted,
    SearchBudget,
    bachelor_cells,
    count_diagonals,
    count_transversals,
    hill_climb_decomposition,
    max_disjoint_transversals,
)


def _group(args: argparse.Namespace):
    return parse_group(args.group) if args.group else None


def _load_cube(args: argparse.Namespace) -> Hypercube:
    return load(args.input_path, _group(args))


def _budget(args: argparse.Namespace) -> SearchBudget:
    """The budget from ``--max-nodes``, ``--max-results`` and ``--time-cap``,
    those of them that the subcommand takes."""
    caps = {k: getattr(args, k, None) for k in ("max_nodes", "max_results", "time_cap")}
    return SearchBudget(**{k: v for k, v in caps.items() if v is not None})


def _emit(args: argparse.Namespace, text: str, stdout) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def render_grid(H: Hypercube, highlights: dict[Coords, str] | None = None) -> str:
    """Human-readable grid; higher dimensions print as labeled square slices."""
    highlights = highlights or {}
    width = len(str(H.n - 1)) + (1 if highlights else 0)
    lines = []
    # a square's one prefix is (), so it prints without a slice label
    for prefix in itertools.product(range(H.n), repeat=H.d - 2):
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
    return "\n".join(lines).rstrip() + "\n"


def _witness_marks(diagonals: Sequence[Diagonal]) -> dict[Coords, str]:
    marks = {}
    letters = "*+#@"
    for i, D in enumerate(diagonals):
        for e in D.entries:
            marks[e.coords] = letters[i % len(letters)]
    return marks


def cmd_construct(args: argparse.Namespace, stdout) -> int:
    H = cons.build(args.construction, group=_group(args), n=args.n, d=args.d, m=args.m)
    _emit(args, render_grid(H) if args.fmt == "text-grid" else serialize(H), stdout)
    return 0


def cmd_analyze_delta(args: argparse.Namespace, stdout) -> int:
    H = _load_cube(args)
    if args.fmt == "text-grid" and H.d != 2:
        raise ValueError(f"--format text-grid draws squares only; this cube has d={H.d}")
    prof = profile(H)
    if args.fmt == "text-grid":
        grid = Hypercube(prof.indices, H.group)
        _emit(args, render_grid(grid), stdout)
        return 0
    payload = {
        "instance": args.input_path,
        "group": str(prof.group),
        "support": support_as_json(prof),
        "projections": [sorted(p) for p in prof.projections],
        "projection_sizes": list(prof.projection_sizes()),
    }
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n", stdout)
    return 0


def _finish_report(
    args: argparse.Namespace, report: SearchReport, H: Hypercube | None, stdout, t0: float
) -> int:
    """Emit the report, or with ``--format text-grid`` its witnesses marked on H."""
    report.elapsed_s = round(time.perf_counter() - t0, 6)
    if getattr(args, "fmt", "json") == "text-grid" and report.witnesses:
        head = f"# {report.operation}: count={report.count} exact={report.exact}\n"
        _emit(args, head + render_grid(H, _witness_marks(report.witnesses[:4])), stdout)
    else:
        _emit(args, report.json(), stdout)
    return 3 if report.exhausted else 0


def cmd_search(args: argparse.Namespace, stdout) -> int:
    op = args.subcommand
    H = _load_cube(args)
    budget = _budget(args)
    t0 = time.perf_counter()
    params = {k: getattr(args, k, None) for k in ("d_prime", "cap", "max_nodes", "max_results")}
    report = SearchReport(
        instance=args.input_path,
        operation=f"search {op}",
        group=str(H.group),
        seed=args.seed,
        params={k: v for k, v in params.items() if v is not None},
    )

    if op in ("transversals", "suitable"):
        if op == "suitable":
            target = suitable_target(H.group, args.d_prime)
            census = count_diagonals(H, target, budget, keep=args.max_witnesses)
            report.certificates["target_sum"] = list(target)
        else:
            census = count_transversals(H, budget, keep=args.max_witnesses)
        report.count = census.count
        report.witnesses = list(census.witnesses)
        report.exact = census.exact
        report.exhausted = not census.exact
    elif op == "bachelors":
        scan = bachelor_cells(H, budget)
        report.count = len(scan.bachelor_cells)
        report.exact = scan.exhaustive
        report.exhausted = not scan.exhaustive
        report.bachelor_cells = list(scan.bachelor_cells)
        report.certificates["checked_cells"] = scan.checked_cells
    elif op == "packing":
        result = max_disjoint_transversals(H, args.cap, budget)
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
    else:  # decompose
        try:
            decomposition = hill_climb_decomposition(H, budget)
        except BudgetExhausted:
            report.count = 0
            report.exact = False
            report.exhausted = True
            report.certificates["note"] = "budget exhausted before the exact cover finished"
        else:
            if decomposition is None:
                report.count = 0
                report.certificates["note"] = "exhaustive exact cover: no decomposition exists"
            else:
                report.count = len(decomposition)
                report.witnesses = list(decomposition)
    return _finish_report(args, report, H, stdout, t0)


def cmd_extend(args: argparse.Namespace, stdout) -> int:
    H = _load_cube(args)
    _emit(args, serialize(g_extension(H, d_prime=args.d_prime)), stdout)
    return 0


def cmd_lift(args: argparse.Namespace, stdout) -> int:
    H = _load_cube(args)
    with open(args.diagonal_path, "r", encoding="utf-8") as fh:
        D = diagonal_from_json(json.load(fh), H)
    t0 = time.perf_counter()
    # no RNG: the middle dimensions are padded with the natural enumeration
    T = lift_diagonal(H, D, args.d_prime)
    report = SearchReport(
        instance=args.input_path,
        operation="lift",
        group=str(H.group),
        seed=args.seed,
        params={"d_prime": args.d_prime},
        count=1,
        witnesses=[T],
    )
    # the witness is a transversal of the extension, so the grid shows that
    extension = g_extension(H, d_prime=args.d_prime) if args.fmt == "text-grid" else None
    return _finish_report(args, report, extension, stdout, t0)


def cmd_dilate(args: argparse.Namespace, stdout) -> int:
    _emit(args, serialize(dilate(_load_cube(args), args.factor)), stdout)
    return 0


def cmd_certify_dilation(args: argparse.Namespace, stdout) -> int:
    H = _load_cube(args)
    with open(args.hitting_set_path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"hitting set {records!r} is not a list of cells")
    cells = [cell_from_json(c, H) for c in records]
    cert = transfer_hitting_set(H, cells, args.factor, _budget(args))
    payload = {
        "instance": args.input_path,
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
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n", stdout)
    return 0


def cmd_verify(args: argparse.Namespace, stdout) -> int:
    from .claims import run_claims

    only = None
    if args.only is not None:
        # each item a string of ASCII digits, as the .lhc format's integers are
        items = [x.strip() for x in args.only.split(",") if x.strip()]
        if not items or not all(x.isascii() and x.isdigit() for x in items):
            raise ValueError(
                f"--only {args.only!r} is not a comma-separated list of criterion numbers"
            )
        only = [int(x) for x in items]
    results = run_claims(args.suite, seed=args.seed, only=only)
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


def run(args: argparse.Namespace, stdout=None, stderr=None) -> int:
    """Run the handler the parsed subcommand names; map errors to exit codes."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        return args.handler(args, stdout)
    except BudgetExhausted as exc:
        stderr.write(f"budget exhausted: {exc}\n")
        return 3
    except (ValueError, OSError, KeyError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named flags among seed, format and out."""
    if "seed" in flags:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if "format" in flags:
        p.add_argument("--format", dest="fmt", choices=("json", "text-grid"), default="json")
    if "out" in flags:
        p.add_argument("--out", default=None)


def _add_budget(p: argparse.ArgumentParser, *, results: bool) -> None:
    """Register ``--max-nodes`` and ``--time-cap``, and ``--max-results`` where
    results are listed."""
    p.add_argument("--max-nodes", type=int, default=None)
    if results:
        p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--time-cap", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line."""
    parser = argparse.ArgumentParser(
        prog="transversal-lab",
        description="Latin hypercube constructions, deviation analysis and exact transversal search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named construction")
    p.set_defaults(handler=cmd_construct)
    p.add_argument("construction", choices=cons.CONSTRUCTION_IDS)
    p.add_argument("--group", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    _add_shared(p, "format", "out")

    p = sub.add_parser("analyze", help="analyze a cube")
    p.set_defaults(handler=cmd_analyze_delta)
    p.add_argument("subcommand", choices=("delta",))
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    _add_shared(p, "format", "out")

    ops = sub.add_parser("search", help="exact searches").add_subparsers(
        dest="subcommand", required=True
    )
    for op in ("transversals", "suitable", "bachelors", "packing", "decompose"):
        p = ops.add_parser(op)
        p.set_defaults(handler=cmd_search)
        p.add_argument("input_path")
        p.add_argument("--group", default=None)
        listing = op in ("transversals", "suitable")
        if op == "suitable":
            p.add_argument("--dprime", dest="d_prime", type=int, required=True)
        if op == "packing":
            p.add_argument("--cap", type=int, default=None)
        if listing:
            p.add_argument("--max-witnesses", type=int, default=8)
        # bachelor cells and packings are reported as JSON only
        _add_shared(p, "seed", "out", *(() if op in ("bachelors", "packing") else ("format",)))
        _add_budget(p, results=listing)

    p = sub.add_parser("extend", help="boost dimension over the index group")
    p.set_defaults(handler=cmd_extend)
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--dprime", dest="d_prime", type=int, required=True)
    _add_shared(p, "out")

    p = sub.add_parser("lift", help="lift a diagonal to a transversal of the extension")
    p.set_defaults(handler=cmd_lift)
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--dprime", dest="d_prime", type=int, required=True)
    p.add_argument("--diagonal", dest="diagonal_path", required=True)
    _add_shared(p, "seed", "format", "out")

    p = sub.add_parser("dilate", help="boost order by dilation")
    p.set_defaults(handler=cmd_dilate)
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--lambda", dest="factor", type=int, required=True)
    _add_shared(p, "out")

    p = sub.add_parser("certify-dilation", help="transfer a hitting-set restriction")
    p.set_defaults(handler=cmd_certify_dilation)
    p.add_argument("input_path")
    p.add_argument("--group", default=None)
    p.add_argument("--lambda", dest="factor", type=int, required=True)
    p.add_argument("--hitting-set", dest="hitting_set_path", required=True)
    _add_shared(p, "out")
    _add_budget(p, results=False)

    p = sub.add_parser("verify", help="run the built-in claim suite")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("subcommand", choices=("paper-claims",))
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    _add_shared(p, "seed")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser, built on the first ``main`` call.  Parsing
    leaves it unchanged: every default is immutable and each call parses
    into a fresh namespace."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
