"""One pass of one workload in a fresh process.

Run by ``run.py``; prints one JSON object on its last line of output.  The
pass sets up (imports, input generation), then runs every operation once,
one after another, and checks each answer.  ``--setup-only`` stops after
set-up.  With ``--trace 1`` the package's public functions are wrapped in
spans (see ``spans.py``) before set-up starts.  Times are reported both as
measured (``raw_*``) and scaled to the reference host speed (see
``gauge.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import from it only."""
    if not (SRC / "transversal_lab" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import transversal_lab

    if Path(transversal_lab.__file__).resolve().parent != SRC / "transversal_lab":
        raise SystemExit(f"imported transversal_lab from {transversal_lab.__file__}")


def _layer_metrics(tracer, results: list[dict]) -> dict[str, float]:
    times = tracer.self_times()
    counts = tracer.counts

    def calls(name: str) -> int:
        return times.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return times.get(name, (0, 0.0))[1]

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m = {}
    for name in (
        "search.enumerate", "search.bachelors", "search.through", "search.packing",
        "search.hitting", "search.decompose", "extension.hall_pair", "extension.lift",
        "extension.g_extension", "dilation.dilate", "dilation.transfer", "hypercube.load",
        "hypercube.is_latin", "hypercube.from_entries", "hypercube.serialize",
        "delta.profile", "constructions", "reports.validate", "cli.main",
    ):
        m[f"{name}.self_s"] = self_s(name)
    for name in (
        "search.through", "search.hitting", "extension.hall_pair", "dilation.dilate",
        "hypercube.from_entries", "delta.profile", "reports.validate", "cli.main",
    ):
        m[f"{name}.calls"] = calls(name)
    m["search.enumerate.results"] = counts["search.enumerate.results"]
    m["search.enumerate.results_per_s"] = rate(
        counts["search.enumerate.results"], self_s("search.enumerate"))
    m["search.bachelors.nodes"] = counts["search.bachelors.nodes"]
    m["search.bachelors.nodes_per_s"] = rate(
        counts["search.bachelors.nodes"], self_s("search.bachelors"))
    m["search.bachelors.cells_checked"] = counts["search.bachelors.cells_checked"]
    m["search.packing.transversals_held"] = counts["search.packing.transversals_held"]
    m["search.packing.optimal_frac"] = rate(
        counts["search.packing.optimal"], calls("search.packing"))
    claim_s = {r["op"]: r["claim_s"] for r in results if "claim_s" in r}
    for number in range(1, 14):
        m[f"claims.c{number:02d}_s"] = claim_s.get(f"c{number:02d}", 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    host = gauge.Gauge()
    host.start()
    _import_package()
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.begin_op("setup")

    def span(name: str):
        return contextlib.nullcontext() if tracer is None else tracer.span(name)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    with span("setup"):
        ops = workloads.build(args.workload, args.seed, OUT / f"inputs-{args.workload}")
    first = time.monotonic()
    host.sample()
    out = {"setup_s": host.scaled(args.spawned_at, first), "raw_setup_s": first - args.spawned_at}
    if args.setup_only:
        host.stop()
        print(json.dumps(out))
        return 0

    expected = workloads.EXPECTED[args.workload]
    results = []
    cpu0 = time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.id)
        try:
            with span("op"):
                answer = workloads.run(op, args.seed)
            failure = workloads.check(op, answer, expected[op.id])
            result = {"op": op.id, "digest": workloads.digest(answer)}
            if "elapsed_s" in answer:
                result["claim_s"] = answer["elapsed_s"]
        except Exception:  # an operation that raises is a failed operation
            failure = "raised " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")
            result = {"op": op.id, "digest": None}
        result["failure"] = failure
        results.append(result)
    last = time.monotonic()
    out["cpu_s"] = time.process_time() - cpu0
    host.sample()
    host.stop()
    out["wall_s"] = host.scaled(first, last)
    out["raw_wall_s"] = last - first
    out["ref_ms"] = host.mean_sample_s() * 1000
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = results
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, results)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
