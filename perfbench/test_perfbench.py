"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that the traced pass reproduces the untraced one, that the
deterministic per-layer counters repeat exactly across two traced runs,
that the metric tables agree with ``BENCHMARK.json``, that peak RSS and
the speed scaling measure what they say, and that the benchmark refuses to
run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Bench, Cell, Workload  # noqa: E402

#: Per-layer counters that must repeat exactly between two traced runs.
DETERMINISTIC = (
    "extract.candidates",
    "extract.symex.calls",
    "extract.records",
    "winnow.survivors",
    "solver.checks",
    "search.nodes",
    "validate.insns",
    "emulate.insns",
)


def traced_runs(workload: Workload, tmp_path: Path, runs: int = 2):
    """``runs`` fresh benches, each one untraced pass then one traced pass."""
    results = []
    for index in range(runs):
        bench = Bench(workload, workload_seed=index, scratch=tmp_path / str(index))
        bench.setup(1)
        untraced = bench.run_pass()
        traced, metrics = run.traced_pass(bench, untraced.wall)
        assert bench.setup_errors == []
        assert untraced.errors == {} and traced.errors == {}
        # run_pass checks every op's digest against the untraced pass; the
        # per-cell detail must agree too (pool and payload digests).
        for name, cell in untraced.cells.items():
            for goal, entry in cell.get("goals", {}).items():
                assert entry["payload_digest"] == traced.cells[name]["goals"][goal][
                    "payload_digest"]
            assert cell.get("pool_digest") == traced.cells[name].get("pool_digest")
        results.append((traced, metrics))
    return results


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_plan_counters_repeat_and_traced_pass_matches(tmp_path):
    # The unobfuscated builds: quicker than plan_obf, and they yield payloads.
    plain = Workload("plan_plain", "plan", (Cell("netperf", "none"), Cell("456.hmmer", "none")))
    (_, first), (_, second) = traced_runs(plain, tmp_path)
    assert set(first) == {name for name, _ in run.PER_LAYER}
    for key in DETERMINISTIC:
        assert first[key] == second[key], key
    assert first["extract.candidates"] > 0 and first["solver.checks"] > 0
    assert first["search.nodes"] > 0 and first["validate.insns"] > 0
    assert first["payloads_validated"] > 0


def test_emulator_counters_repeat(tmp_path):
    (_, first), (_, second) = traced_runs(WORKLOADS["verify_semantics"], tmp_path)
    assert first["emulate.insns"] == second["emulate.insns"] > 0


def test_warm_cells_hit_the_cache(tmp_path):
    ((traced, metrics),) = traced_runs(WORKLOADS["replan_warm"], tmp_path, runs=1)
    assert metrics["cache.hit_rate"] == 1.0
    assert metrics["cache.bytes_read"] > 0
    assert metrics["extract.symex.calls"] == 0 and metrics["solver.checks"] == 0


def test_exhausted_budget_is_named(tmp_path):
    crc32 = Workload("crc32_tigress", "plan", (Cell("crc32", "tigress"),))
    ((traced, metrics),) = traced_runs(crc32, tmp_path, runs=1)
    goals = traced.cells["crc32/tigress"]["goals"]
    assert {g["no_payload_reason"] for g in goals.values()} == {"budget_exhausted"}
    assert metrics["search.budget_exhausted"] == len(goals)


@pytest.mark.parametrize("kind", ["plan", "warm"])
def test_changed_output_is_a_failed_op(tmp_path, kind):
    workload = {"plan": Workload("crc32_none", "plan", (Cell("crc32", "none"),)),
                "warm": WORKLOADS["replan_warm"]}[kind]
    bench = Bench(workload, scratch=tmp_path)
    bench.setup(1)
    if kind == "plan":
        bench.run_pass()
    op = next(iter(bench.reference))
    bench.reference[op] = "0" * 32
    assert bench.run_pass().errors[op] == "output differs from its reference"


def test_peak_rss_starts_afresh():
    # Memory resident before the reset must not count toward the peak.
    ballast = bytearray(b"\x01" * (96 << 20))  # touched, so resident
    before = run._peak_rss_kib()
    del ballast
    run._reset_peak_rss()
    assert run._peak_rss_kib() < before - (64 << 10)


def test_speed_meter_scales_by_the_reference_rep():
    meter = speed.SpeedMeter()
    meter.rep_s = speed.REFERENCE_REP_S
    scaled = meter.scale(0.1)
    expected = 0.1 * speed.REFERENCE_REP_S / ((speed.REFERENCE_REP_S + meter.rep_s) / 2)
    assert scaled == pytest.approx(expected)
    assert len(meter.samples) == 2 and all(s > 0 for s in meter.samples)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_obf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
