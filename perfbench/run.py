#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload synth_lamps4 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the same run in the names a reader of the workload
would use (``synth_s``, ``plant_p99_ms``, ``step_p99_us``, ...).

A traced run alternates untraced and traced rounds: the traced ones give
the per-layer self times, the difference between the two is the tracing
overhead, and the spans are written to ``.perfbench/`` when the run ends.
See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("synth_lamps4", "check_lamps6", "corpus", "lamps3_online")
SETUP_REPEATS = 11
SETUP_MIN_S = 3.0
MIN_ROUNDS = {0: 3, 1: 2}
IMPORT_RUNS = 5
BENCH_MODULES = ("workloads", "flows", "lamps", "plantgen", "tracing", "calibrate")

# per-layer metric -> the span whose self time it reports
STAGE_SPANS = {
    "synthesis.build_bts_s": "synthesis.build_bts",
    "synthesis.find_deadlocks_s": "synthesis.find_deadlocks",
    "synthesis.prune_live_s": "synthesis.prune_live",
    "synthesis.good_fixpoint_s": "synthesis.good_fixpoint",
    "synthesis.extract_supervisor_s": "synthesis.extract_supervisor",
    "diagnosis.build_labeled_plant_s": "diagnosis.build_labeled_plant",
    "diagnosis.check_diagnosability_s": "diagnosis.check_diagnosability",
    "diagnosis.build_diagnoser_s": "diagnosis.build_diagnoser",
    "diagnosis.check_isolatability_s": "diagnosis.check_isolatability",
    "automata.check_assumptions_s": "automata.check_assumptions",
    "modelio.parse_model_s": "modelio.parse_model",
    "modelio.supervisor_io_s": "modelio.supervisor_io",
    "runtime.build_closed_loop_s": "runtime.build_closed_loop",
    "runtime.verify_closed_loop_s": "runtime.verify_closed_loop",
    "runtime.simulate_s": "runtime.simulate",
    "runtime.engine_step_s": "runtime.engine_step",
}
COUNTS = ("synthesis.y_states", "synthesis.z_states", "synthesis.zy_edges",
          "synthesis.deadlocks", "synthesis.live_z_states", "synthesis.good_y",
          "synthesis.max_round", "diagnosis.labeled_states", "diagnosis.diagnoser_states",
          "diagnosis.diagnoser_transitions", "runtime.closed_loop_states",
          "runtime.trace_obs")
LAYERS = ("automata", "diagnosis", "synthesis", "modelio", "runtime", "cli")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def set_up(name: str, seed: int, work: Path):
    """Import the package afresh and build the workload's inputs."""
    for mod in [m for m in sys.modules
                if m == "faultiso" or m.startswith("faultiso.") or m in BENCH_MODULES]:
        del sys.modules[mod]
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](ROOT, work, seed, workloads.load_answers())
    return time.perf_counter() - start, workloads, wl


def tail(values) -> float:
    """The highest percentile, up to p99, with at least ten samples beyond
    it; the median when there are too few samples for any."""
    pct = min(99, int(100 * (1 - 10 / len(values))))
    if pct <= 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_time() -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import faultiso.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "faultiso" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'faultiso'}; run from a checkout")
    if not (ROOT / "models" / "three_lamps.des").is_file():
        fail("models/three_lamps.des is missing; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up_repeatedly(name: str, seed: int, work: Path, calibrator):
    """Set up at least ``SETUP_REPEATS`` times and for ``SETUP_MIN_S``, each
    time after a garbage collection and between two kernel samples.

    Set-up is too short for the whole run's speed factor to fit it, so each
    set-up is scaled by the two samples around it.  Returns the scaled
    set-up times, the raw ones, and the last set-up's workload module and
    workload.
    """
    scaled, raw = [], []
    start = time.perf_counter()
    while len(raw) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        gc.collect()
        (seconds, workloads, wl), factor = calibrator.around(set_up, name, seed, work)
        raw.append(seconds)
        scaled.append(seconds * factor)
    return scaled, raw, workloads, wl


def measure(args, work: Path) -> int:
    from calibrate import Calibrator

    calibrator = Calibrator()
    setups, raw_setups, workloads, wl = set_up_repeatedly(args.workload, args.seed, work,
                                                          calibrator)
    import faultiso
    if Path(faultiso.__file__).resolve().parent != ROOT / "src" / "faultiso":
        fail(f"imported faultiso from {faultiso.__file__}, not from this checkout")
    from lamps import THREE_LAMPS_META, lamps_text
    from tracing import Tracer

    stats = workloads.Stats(calibrator)
    tracer = Tracer(False)
    stats.attempted += 1
    three = (ROOT / "models" / "three_lamps.des").read_text(encoding="utf-8")
    if lamps_text(3, *THREE_LAMPS_META) != three:
        stats.fail("lamps(3) differs from models/three_lamps.des")

    traced_ops, plain_ops, gc_counts = [], [], []
    run_start = time.perf_counter()
    durations = []
    while True:
        traced = bool(args.trace) and len(durations) % 2 == 1
        tracer.enabled = traced
        n_before = len(stats.latencies)
        gc_before = sum(s["collections"] for s in gc.get_stats())
        start = time.perf_counter()
        with tracer.span("round", op=f"round{len(durations)}"):
            wl.run_round(tracer, stats)
        durations.append(time.perf_counter() - start)
        op_time = sum(stats.latencies[n_before:])
        if traced:
            traced_ops.append(op_time)
            del stats.latencies[n_before:]  # end-to-end numbers stay untraced
        else:
            plain_ops.append(op_time)
            gc_counts.append(sum(s["collections"] for s in gc.get_stats()) - gc_before)
        elapsed = time.perf_counter() - run_start
        if len(durations) >= MIN_ROUNDS[args.trace] and \
                elapsed + statistics.median(durations) > args.seconds:
            break
    tracer.enabled = False

    lat = stats.latencies
    if not lat:
        print("perfbench: no operation completed; " + "; ".join(stats.notes), file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = calibrator.factor
    raw = {
        "setup_s": (statistics.median(raw_setups), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p99_ms": (tail(lat) * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "cli_s": (statistics.median(stats.cli_raw), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    e2e = {k: (v / speed if u == "1/s" else v if u == "MB" else v * speed, u)
           for k, (v, u) in raw.items()}
    e2e["setup_s"] = (statistics.median(setups), "s")
    e2e["cli_s"] = (statistics.median(stats.cli_s), "s")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(durations)} rounds, {len(lat)} operations, "
          f"{len(stats.cli_s)} cli runs, {time.perf_counter() - run_start:.1f} s; "
          f"speed factor {speed:.4f} from {len(calibrator.samples)} kernel samples")
    print("  raw: " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in raw.items()))
    for line in describe(workloads, args.workload, e2e, stats, len(setups)):
        print("  " + line)
    for note in stats.notes:
        print(f"  FAILED: {note}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, len(traced_ops), traced_ops, plain_ops, gc_counts)
        metrics["process.speed_factor"] = (speed, "ratio")
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:14.6g} {unit}")
        print(f"  spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        metrics = e2e
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def describe(workloads, workload: str, e2e: dict, stats, n_setups: int) -> list[str]:
    """The run in the workload's own names, with units and sample counts."""
    lat = stats.latencies
    p50, p99 = e2e["op_p50_ms"][0], e2e["op_p99_ms"][0]
    rows = [("setup_s", e2e["setup_s"][0], "s", f"median of {n_setups} set-ups")]
    n = f"n={len(lat)}"
    if workload == "synth_lamps4":
        rows.append(("synth_s", p50 / 1e3, "s", f"median, {n} pipelines"))
    elif workload == "check_lamps6":
        rows.append(("check_s", p50 / 1e3, "s", f"median, {n} checks"))
    elif workload == "corpus":
        rows += [("plants_per_s", e2e["ops_per_s"][0], "1/s", n),
                 ("plant_p50_ms", p50, "ms", n),
                 ("plant_p99_ms", p99, "ms", f"{n}, {len(lat) / 100:.0f} beyond")]
    else:
        per_replay = f"replays of {workloads.TRACE_OBS} observations"
        rows += [("step_p50_us", p50 * 1e3, "us", f"{n}, {per_replay}"),
                 ("step_p99_us", p99 * 1e3, "us",
                  f"{n}, {len(lat) / 100:.0f} beyond, {per_replay}"),
                 ("replay_obs_per_s", e2e["ops_per_s"][0], "1/s", n)]
    name = {"check_lamps6": "cli_diagnoser_s", "lamps3_online": "cli_synth_s"}.get(
        workload, "cli_check_s")
    rows += [(name, e2e["cli_s"][0], "s", f"median of {len(stats.cli_s)} processes"),
             ("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", "ru_maxrss of this process"),
             ("failed_ratio", stats.failed / stats.attempted, "1",
              f"{stats.failed}/{stats.attempted}")]
    lines = [f"{k:18s} {v:14.6g} {u:4s} {note}" for k, v, u, note in rows]
    lines.append("gated: " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in e2e.items()))
    return lines


def layer_metrics(tracer, rounds: int, traced_ops, plain_ops, gc_counts) -> dict:
    """Per traced round: self time per stage and per layer, sizes, ratios."""
    self_times = tracer.self_times()
    out = {}
    for metric, span in STAGE_SPANS.items():
        out[metric] = (self_times.get(span, 0.0) / rounds, "s")
    for layer in LAYERS:
        total = sum(t for span, t in self_times.items() if span.startswith(layer + "."))
        out[f"{layer}.self_s"] = (total / rounds, "s")
    bench = sum(t for span, t in self_times.items() if span.split(".")[0] not in LAYERS)
    out["bench.self_s"] = (bench / rounds, "s")
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0.0) / rounds, "count")
    z = tracer.counts.get("synthesis.z_states", 0.0)
    live = tracer.counts.get("synthesis.live_z_states", 0.0)
    out["synthesis.live_ratio"] = (live / z if z else 0.0, "ratio")
    out["synthesis.good_z_ratio"] = (
        tracer.counts.get("synthesis.good_z", 0.0) / live if live else 0.0, "ratio")
    out["cli.import_s"] = (import_time(), "s")
    out["process.gc_collections"] = (statistics.mean(gc_counts), "count")
    plain, traced = statistics.median(plain_ops), statistics.median(traced_ops)
    out["trace.overhead_s"] = (traced - plain, "s")
    out["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio")
    return out


if __name__ == "__main__":
    raise SystemExit(main())
