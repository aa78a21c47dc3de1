"""Ablations of Gadget-Planner's design choices (DESIGN.md).

Four knobs, each tested on the same obfuscated build:

* subsumption testing on/off → pool size (the paper: ~3× reduction);
* conditional-jump gadgets on/off → payload availability;
* direct-jump merging on/off → gadget richness;
* the paper's two-key heuristic vs naive FIFO → search efficiency.
"""

import pytest

from repro.bench import BENCH_EXTRACTION, BENCH_PLANNER, build
from repro.gadgets import ExtractionConfig
from repro.gadgets.subsumption import SubsumptionStats
from repro.pipeline import extract_pool, winnow_pool
from repro.planner import GadgetPlanner, PlannerConfig

PROGRAM, CONFIG = "hash_table", "llvm_obf"


@pytest.fixture(scope="module")
def image():
    return build(PROGRAM, CONFIG).image


def _extraction(**overrides):
    base = dict(
        max_insns=BENCH_EXTRACTION.max_insns,
        max_paths=BENCH_EXTRACTION.max_paths,
        max_candidates=BENCH_EXTRACTION.max_candidates,
    )
    base.update(overrides)
    return ExtractionConfig(**base)


def test_ablation_subsumption(benchmark, record_table, image):
    def run():
        records = extract_pool(image, _extraction())
        stats = SubsumptionStats()
        deduped = winnow_pool(records, stats)
        return records, deduped, stats

    records, deduped, stats = benchmark.pedantic(run, iterations=1, rounds=1)
    text = (
        f"pool before subsumption: {len(records)}\n"
        f"pool after subsumption:  {len(deduped)}\n"
        f"reduction factor:        {stats.reduction_factor:.2f}x "
        f"(paper reports an average of 2.97x)\n"
        f"fingerprint buckets:     {stats.buckets}\n"
        f"solver checks:           {stats.solver_checks}"
    )
    record_table("ablation_subsumption", "Ablation: subsumption testing", text)
    assert len(deduped) < len(records)
    assert stats.reduction_factor > 1.5


def test_ablation_conditional_gadgets(benchmark, record_table, image):
    def run():
        with_cond = GadgetPlanner(
            image, extraction=_extraction(include_conditional=True), planner=BENCH_PLANNER
        ).run()
        without = GadgetPlanner(
            image, extraction=_extraction(include_conditional=False, max_paths=1), planner=BENCH_PLANNER
        ).run()
        return with_cond, without

    with_cond, without = benchmark.pedantic(run, iterations=1, rounds=1)
    text = (
        f"payloads with conditional gadgets:    {with_cond.total_payloads}\n"
        f"payloads without conditional gadgets: {without.total_payloads}\n"
        f"gadget pool with/without:             "
        f"{with_cond.gadgets_total}/{without.gadgets_total}"
    )
    record_table("ablation_conditional", "Ablation: conditional-jump gadgets", text)
    assert with_cond.gadgets_total >= without.gadgets_total
    assert with_cond.total_payloads >= without.total_payloads


def test_ablation_direct_jump_merging(benchmark, record_table, image):
    def run():
        merged = extract_pool(image, _extraction(merge_direct_jumps=True))
        unmerged = extract_pool(image, _extraction(merge_direct_jumps=False))
        return merged, unmerged

    merged, unmerged = benchmark.pedantic(run, iterations=1, rounds=1)
    merged_count = sum(1 for g in merged if g.merged_direct_jumps > 0)
    text = (
        f"gadgets with merging:    {len(merged)} ({merged_count} used a direct jump)\n"
        f"gadgets without merging: {len(unmerged)}"
    )
    record_table("ablation_merge", "Ablation: direct-jump merging", text)
    assert merged_count > 0, "obfuscated code should offer merged gadgets"
    assert len(merged) >= len(unmerged)


def test_ablation_heuristic_vs_fifo(benchmark, record_table):
    """Replace the paper's priority key with arrival order and compare
    how many plans a fixed node budget yields.  Uses a build where the
    full budget finds many plans, so the budgeted comparison has signal."""
    from repro.planner.plan import PartialPlan

    rich_image = build("string_ops", "llvm_obf").image
    results = {}

    def run():
        original_key = PartialPlan.priority_key
        config = PlannerConfig(max_nodes=1200, max_plans=10, max_steps=8, providers_per_cond=4)
        results["heuristic"] = GadgetPlanner(
            rich_image, extraction=_extraction(), planner=config
        ).run().total_payloads
        try:
            PartialPlan.priority_key = lambda self: (0, 0, 0)  # pure FIFO
            results["fifo"] = GadgetPlanner(
                rich_image, extraction=_extraction(), planner=config
            ).run().total_payloads
        finally:
            PartialPlan.priority_key = original_key
        return results

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    text = (
        f"payloads with paper heuristic (1200-node budget): {results['heuristic']}\n"
        f"payloads with FIFO ordering   (1200-node budget): {results['fifo']}"
    )
    record_table("ablation_heuristics", "Ablation: search heuristics", text)
    assert results["heuristic"] >= results["fifo"]
    assert results["heuristic"] > 0, "budgeted search should still find plans"
