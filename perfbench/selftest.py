#!/usr/bin/env python3
"""Steadiness self-test: run every workload several times and compare the
runs with the bounds in ``BENCHMARK.json``.

    python3 perfbench/selftest.py                 # each workload twice
    python3 perfbench/selftest.py --runs 10       # the acceptance check
    python3 perfbench/selftest.py --runs 5 --workloads corpus

Each run is a fresh ``run.py`` process with its own seed; workloads are
interleaved so that a slow spell on the machine is shared among them.
Every run prints every metric with its unit.  Then, per workload and
end-to-end metric:

* with two runs, the relative difference of the two values must be within
  the metric's bound;
* with four or more, the spread (distance between the first and third
  quartile over the median) must be within a third of the bound, and the
  medians of the first and second half of the runs must not differ by
  more than the bound, in either direction.

Every metric, ``setup_s`` too, is held to these rules.  Runs last
``run_seconds`` from ``BENCHMARK.json`` and use the seeds 1, 2, ...

Exits with 1 when a run is incorrect or a rule is broken.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  wall {wall:.1f} s")
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``;
    negative when it is better."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--workloads", help="comma-separated subset")
    args = p.parse_args(argv)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    ok = True
    for i in range(args.runs):
        for w in names:
            result = run_once(spec, w, i + 1)
            if not result["correct"] or result["failed"]:
                print(f"INCORRECT: {w} run {i + 1}: {result['failed']} failed")
                ok = False
            for m in spec["end_to_end"]:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])

    print(f"\n{'workload':14s} {'metric':12s} {'median':>12s} {'spread':>8s} "
          f"{'halves':>8s} {'bound':>6s}  verdict")
    for w in names:
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            bound = m["bound"]
            half = len(vals) // 2
            shift = worse(statistics.median(vals[:half]), statistics.median(vals[half:]),
                          m["better"]) if half else 0.0
            sp = spread(vals) if len(vals) >= 4 else abs(shift)
            limit = bound / 3 if len(vals) >= 4 else bound
            good = abs(shift) <= bound and sp <= limit
            ok &= good
            print(f"{w:14s} {m['name']:12s} {statistics.median(vals):12.6g} {sp:8.3f} "
                  f"{shift:8.3f} {bound:6.2f}  {'ok' if good else 'OUT OF BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
