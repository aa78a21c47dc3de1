"""Differential soundness of the semantic gadget prefilter.

The prefilter's contract: culling a candidate never changes the gadget
pool, because a culled window provably yields zero usable symbolic
paths.  This test runs extraction twice — prefilter on and off — over
every benchmark program under representative obfuscation configs and
requires the two record sets to be identical, field for field.
"""

import pytest

from repro.bench import BENCHMARK_SUITE, build
from repro.gadgets import ExtractionConfig, ExtractionStats
from repro.pipeline import extract_pool

#: Small budgets keep the 12 x 3 matrix fast while still exercising
#: forks, merged direct jumps, and the candidate cap's sampling.
_BASE = dict(max_insns=6, max_paths=2, max_candidates=250)

CONFIG_NAMES = ("none", "flattening", "virtualization")


def _record_key(record):
    return (
        record.gadget_id,
        record.location,
        record.length,
        record.jmp_type,
        record.end,
        str(record.jump_target),
        tuple(str(c) for c in record.pre_cond),
        tuple(sorted((str(k), str(v)) for k, v in record.post_regs.items())),
        record.stack_delta,
        record.stack_smashed,
        tuple(sorted(record.clob_regs, key=int)),
        tuple(sorted(record.ctrl_regs, key=int)),
    )


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("program", sorted(BENCHMARK_SUITE))
def test_prefilter_preserves_gadget_pool(program, config_name):
    image = build(program, config_name).image
    with_stats = ExtractionStats()
    without_stats = ExtractionStats()
    with_filter = extract_pool(
        image, ExtractionConfig(semantic_prefilter=True, **_BASE), with_stats
    )
    without_filter = extract_pool(
        image, ExtractionConfig(semantic_prefilter=False, **_BASE), without_stats
    )
    assert [_record_key(r) for r in with_filter] == [
        _record_key(r) for r in without_filter
    ]
    # Same candidates considered either way; culling only skips symex.
    assert with_stats.candidates == without_stats.candidates
    assert without_stats.semantically_culled == 0
    assert (
        with_stats.symex_invocations
        == with_stats.candidates - with_stats.semantically_culled
    )
