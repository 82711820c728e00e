"""Benchmark of transversal-lab: three closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload {claims,enumerate,certify,all}
                             --seed N --seconds S --trace {0,1}

Each pass of a workload runs in a fresh single-threaded process
(``worker.py``): set-up, then every operation once, one after another, each
answer checked against ``expected.json``.  Passes repeat while another one
fits in ``--seconds``.  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are medians over the passes; ``setup_s`` also counts
set-up-only processes.  Times are scaled to the reference host speed (see
``gauge.py``); the times as measured are printed beside them.  With
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
come from the traced ones.  The last line of output is one JSON object with
the answers' verdict and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("claims", "enumerate", "certify")
SETUP_ONLY_PROCESSES = 4
# a run must end within 180 s: every pass is killed at this point of the run
DEADLINE_S = 165.0


class BenchmarkError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, traced: bool, setup_only: bool, timeout: float) -> dict:
    env = dict(os.environ)
    # one thread: under the GIL the package's worker threads are slower, and
    # they change what a node budget means
    env.pop("TRANSVERSAL_LAB_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{workload} worker exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of one workload for about ``seconds`` and collect them."""
    start = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_PROCESSES):
            setups.append(_spawn(workload, seed, False, True, remaining()))
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    rounds: list[float] = []
    while True:
        t0 = time.monotonic()
        for traced in kinds:
            passes[traced].append(_spawn(workload, seed, traced, False, remaining()))
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        next_round = max(rounds)
        if elapsed + next_round > min(seconds, DEADLINE_S):
            break
    return {"setups": setups, "plain": passes[False], "traced": passes[True]}


def verdict(workload: str, runs: dict) -> tuple[int, list[str]]:
    """Operations attempted and failures, by name, over all passes.

    Every pass uses the same inputs, so an answer that differs from the first
    pass's (for example between a traced and an untraced pass) is a failure too."""
    all_passes = runs["plain"] + runs["traced"]
    first = {r["op"]: r["digest"] for r in all_passes[0]["ops"]}
    attempted, failures = 0, []
    for i, p in enumerate(all_passes):
        for r in p["ops"]:
            attempted += 1
            if r["failure"] is not None:
                failures.append(f"{workload}/{r['op']} (pass {i + 1}): {r['failure']}")
            elif r["digest"] != first[r["op"]]:
                failures.append(f"{workload}/{r['op']} (pass {i + 1}): answer differs from pass 1")
    return attempted, failures


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(runs: dict) -> dict[str, float]:
    plain, setups = runs["plain"], runs["setups"] + runs["plain"]
    return {
        "wall_s": _median(plain, "wall_s"),
        "setup_s": _median(setups, "setup_s"),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        # as measured, printed only: they carry the host's speed
        "raw_wall_s": _median(plain, "raw_wall_s"),
        "raw_setup_s": _median(setups, "raw_setup_s"),
    }


def per_layer(runs: dict) -> dict[str, float]:
    traced, plain = runs["traced"], runs["plain"]
    out = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    out["run.wall_s"] = _median(plain, "raw_wall_s")
    out["run.cpu_s"] = _median(plain, "cpu_s")
    out["run.ref_ms"] = _median(plain, "ref_ms")
    out["trace.overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "transversal_lab" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failures, metrics = 0, [], {}
    try:
        for workload in names:
            runs = measure(workload, args.seed, args.seconds, bool(args.trace))
            n, bad = verdict(workload, runs)
            attempted += n
            failures += bad
            values = per_layer(runs) if args.trace else end_to_end(runs)
            prefix = "" if len(names) == 1 else workload + "."
            print(f"{workload}: seed {args.seed}, {len(runs['plain'])} plain and "
                  f"{len(runs['traced'])} traced passes, {len(runs['setups'])} set-up-only processes")
            for m in wanted:
                value = values[m["name"]]
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"  {m['name']:<36} {value:14.6g} {m['unit']}")
            if not args.trace:
                print(f"  as measured: wall {values['raw_wall_s']:.6g} s, "
                      f"set-up {values['raw_setup_s']:.6g} s")
            print(f"  {'ops_failed_frac':<36} {len(bad) / n:14.6g} ({len(bad)} of {n} operations)")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in failures:
        print("FAILED " + line)
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
