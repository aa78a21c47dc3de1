"""The repository benchmark: cold Gadget-Planner runs, emulator verdicts and
warm re-extraction, timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload plan_obf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload, one process

README.md describes the workloads, one run, the output checks and every
metric.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
is a JSON report with provenance, pass and set-up times, machine-speed
samples and per-cell digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up runs at least this many times, and for at least this long.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: Untraced passes run at least this many times, and for at least --seconds.
MIN_PASSES = 2

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok", "ratio"),
)

#: (name, unit) of every per-layer metric, printed with ``--trace 1``.
#: A layer a workload does not exercise reports 0.
PER_LAYER = (
    ("build.s", "s"),
    ("build.text_bytes", "bytes"),
    ("decode_graph.s", "s"),
    ("extract.scan.s", "s"),
    ("extract.candidates", "count"),
    ("extract.prefilter.s", "s"),
    ("extract.prefilter.culled", "count"),
    ("extract.symex.s", "s"),
    ("extract.symex.calls", "count"),
    ("extract.records", "count"),
    ("extract.records_per_call", "ratio"),
    ("winnow.s", "s"),
    ("winnow.buckets", "count"),
    ("winnow.bucket_max", "count"),
    ("winnow.survivors", "count"),
    ("solver.checks", "count"),
    ("solver.check_s.p50", "s"),
    ("solver.check_s.p99", "s"),
    ("solver.sat_calls", "count"),
    ("solver.sat_conflicts", "count"),
    ("solver.unknowns", "count"),
    ("solver.memo_hit_rate", "ratio"),
    ("search.s", "s"),
    ("search.nodes", "count"),
    ("search.dead_ends", "count"),
    ("search.plans", "count"),
    ("search.budget_exhausted", "count"),
    ("assemble.s", "s"),
    ("assemble.errors", "count"),
    ("validate.s", "s"),
    ("validate.calls", "count"),
    ("validate.insns", "count"),
    ("emulate.s", "s"),
    ("emulate.insns", "count"),
    ("emulate.insn_per_s", "insn/s"),
    ("cache.load.s", "s"),
    ("cache.bytes_read", "bytes"),
    ("cache.hit_rate", "ratio"),
    ("payloads_validated", "count"),
    ("goals_achieved", "count"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traced_pass(bench, untraced_wall: float):
    """One pass under a :class:`LayerProbe`: the pass and its per-layer metrics."""
    from probe import LayerProbe
    from workloads import BENCH_PLANNER

    probe = LayerProbe()
    stats = bench.cache.stats if bench.cache is not None else None
    before = (stats.hits, stats.misses) if stats else (0, 0)
    traced = bench.run_pass(probe)
    hits = stats.hits - before[0] if stats else 0
    misses = stats.misses - before[1] if stats else 0

    s, c = probe.seconds, probe.counts
    goals = [g for cell in traced.cells.values() for g in cell.get("goals", {}).values()]
    metrics = {
        "build.s": statistics.median(bench.build_seconds),
        "build.text_bytes": sum(len(image.text.data) for image in bench.images.values()),
        "decode_graph.s": s["decode_graph"],
        "extract.scan.s": s["extract.scan"],
        "extract.candidates": c["extract.candidates"],
        "extract.prefilter.s": s["extract.prefilter"],
        "extract.prefilter.culled": c["extract.prefilter.culled"],
        "extract.symex.s": s["extract.symex"],
        "extract.symex.calls": c["extract.symex.calls"],
        "extract.records": c["extract.records"],
        "extract.records_per_call": _ratio(c["extract.records"], c["extract.symex.calls"]),
        "winnow.s": s["winnow"],
        "winnow.buckets": c["winnow.buckets"],
        "winnow.bucket_max": c["winnow.bucket_max"],
        "winnow.survivors": c["winnow.survivors"],
        "solver.checks": len(probe.check_seconds),
        "solver.check_s.p50": _quantile(probe.check_seconds, 0.50),
        "solver.check_s.p99": _quantile(probe.check_seconds, 0.99),
        "solver.sat_calls": c["solver.sat_calls"],
        "solver.sat_conflicts": c["solver.sat_conflicts"],
        "solver.unknowns": c["solver.unknowns"],
        "solver.memo_hit_rate": _ratio(c["solver.memo_hits"], c["solver.queries"]),
        "search.s": s["search"],
        "search.nodes": sum(g["nodes"] for g in goals),
        "search.dead_ends": sum(g["dead_ends"] for g in goals),
        "search.plans": sum(g["plans"] for g in goals),
        "search.budget_exhausted": sum(g["nodes"] >= BENCH_PLANNER.max_nodes for g in goals),
        "assemble.s": s["assemble"],
        "assemble.errors": c["assemble.errors"],
        "validate.s": s["validate"],
        "validate.calls": c["validate.calls"],
        "validate.insns": c["validate.insns"],
        "emulate.s": s["emulate"],
        "emulate.insns": c["emulate.insns"],
        "emulate.insn_per_s": _ratio(c["emulate.insns"], s["emulate"]),
        "cache.load.s": s["cache.load"],
        "cache.bytes_read": c["cache.bytes_read"],
        "cache.hit_rate": _ratio(hits, hits + misses),
        "payloads_validated": sum(g["payloads"] for g in goals),
        "goals_achieved": sum(g["payloads"] > 0 for g in goals),
        "trace.overhead_s": traced.wall - untraced_wall,
    }
    return traced, metrics


def _reset_peak_rss() -> None:
    """Start this process's peak RSS (Linux ``VmHWM``) afresh from its RSS now."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def _peak_rss_kib() -> int:
    """This process's peak RSS since :func:`_reset_peak_rss` (``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_workload(name: str, seed: int, build_seed: int, seconds: float, trace: bool,
                 scratch: Path) -> dict:
    from speed import SpeedMeter
    from workloads import WORKLOADS, Bench

    bench = Bench(WORKLOADS[name], build_seed, seed, scratch)
    bench.meter = SpeedMeter()
    setup_times = bench.setup(SETUP_REPEATS, SETUP_MIN_S)
    errors = {f"setup#{i}": e for i, e in enumerate(bench.setup_errors)}
    attempted = 0
    passes = []
    gc.collect()
    _reset_peak_rss()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(bench.run_pass())
    peak_rss_mb = _peak_rss_kib() / 1024
    meter, bench.meter = bench.meter, None
    walls = [p.wall for p in passes]
    ref_walls = [p.ref_wall for p in passes]
    checked = list(passes)

    if trace:
        traced, metrics = traced_pass(bench, statistics.median(walls))
        checked.append(traced)
        cells = traced.cells
    else:
        cells = passes[0].cells

    for index, result in enumerate(checked):
        attempted += len(result.digests)
        for op, why in result.errors.items():
            errors[f"pass{index}:{op}"] = why
    failed = sum(not key.startswith("setup#") for key in errors)
    if not trace:
        metrics = {
            "wall_ref_s": statistics.median(ref_walls),
            "setup_s": statistics.median(bench.ref_setup_seconds),
            "peak_rss_mb": peak_rss_mb,
            "ops_ok": _ratio(attempted - failed, attempted),
        }
    report = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "pass_walls_s": walls,
        "pass_ref_walls_s": ref_walls,
        "speed_rep_s": {"median": statistics.median(meter.samples), "min": min(meter.samples),
                        "max": max(meter.samples), "samples": len(meter.samples)},
        "setup_walls_s": setup_times,
        "setup_ref_s": bench.ref_setup_seconds,
        "cells": cells,
        "errors": errors,
    }
    return {"report": report, "metrics": metrics, "attempted": attempted,
            "failed": failed, "correct": not errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="plan_obf, verify_semantics, replan_warm or all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (cell order)")
    parser.add_argument("--build-seed", type=int, default=None,
                        help="seed the cells are built with (default: the harness's)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the untraced passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS, provenance

    if args.build_seed is None:
        args.build_seed = DEFAULT_SEED
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runs = {n: run_workload(n, args.seed, args.build_seed, args.seconds,
                                bool(args.trace), scratch) for n in names}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    metrics = {}
    for n, run in runs.items():
        prefix = "" if len(runs) == 1 else f"{n}."
        for key, unit in PER_LAYER if args.trace else END_TO_END:
            value = run["metrics"][key]
            metrics[prefix + key] = {"value": value, "unit": unit}
            print(f"{prefix + key:<36} {value:>16.6g} {unit}")
    print(json.dumps({"provenance": provenance(args.build_seed),
                      "runs": [run["report"] for run in runs.values()]}, sort_keys=True))
    print(json.dumps({
        "correct": all(run["correct"] for run in runs.values()),
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
