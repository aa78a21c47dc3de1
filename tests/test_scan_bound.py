"""The syntactic scan's distance bound is exact.

``syntactic_scan`` with a shared :class:`DecodeGraph` rejects, without
walking, every offset whose shortest walk to an indirect transfer is
longer than ``max_scan_steps``.  These tests pin that the bound never
changes the candidate list: against the graph-less DFS on benchmark
programs under every build configuration, at the exact step-cap
boundary, and for the distance tables themselves against a per-offset
forward BFS.
"""

import dataclasses
import functools
import random
from collections import deque

import pytest

import repro.isa.encoding as encoding
from repro.bench.harness import BENCH_EXTRACTION, build
from repro.binfmt import make_image
from repro.fuzz import gen_bytes
from repro.gadgets.extract import ExtractionConfig, candidate_offsets, syntactic_scan
from repro.isa import assemble
from repro.isa.instructions import Op
from repro.staticanalysis import DecodeGraph
from repro.staticanalysis.decode_graph import INDIRECT_ENDS, UNREACHABLE

PROGRAMS = ("crc32", "bubble_sort", "matrix_multiply")
CONFIGS = ("none", "llvm_obf", "tigress")
SCAN_CONFIGS = {
    "bench": BENCH_EXTRACTION,
    "no_merge": dataclasses.replace(BENCH_EXTRACTION, merge_direct_jumps=False),
    "no_conditional": dataclasses.replace(BENCH_EXTRACTION, include_conditional=False),
}


@pytest.fixture
def memoized_decode(monkeypatch):
    """Memoize ``decode`` for the graph-less scan, which re-decodes every
    offset it visits.  ``decode`` is pure, so the scan's result is the
    same; only its cost (about 4x here) changes."""
    decode = encoding.decode

    @functools.lru_cache(maxsize=None)
    def cached(data, offset, addr):
        try:
            return decode(data, offset, addr)
        except encoding.DecodeError:
            return None

    def memoized(data, offset=0, addr=None):
        insn = cached(data, offset, addr)
        if insn is None:
            raise encoding.DecodeError(f"no instruction at {offset:#x}")
        return insn

    monkeypatch.setattr(encoding, "decode", memoized)


@pytest.mark.parametrize("scan", sorted(SCAN_CONFIGS))
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_bounded_scan_matches_graphless_dfs(program, config, scan, memoized_decode):
    image = build(program, config).image
    cfg = SCAN_CONFIGS[scan]
    graph = DecodeGraph(image.text.data, image.text.addr)
    assert candidate_offsets(image, cfg, graph) == candidate_offsets(image, cfg, None)


@pytest.mark.parametrize("steps", [1, 2, 7, 48])
def test_sled_accepted_at_step_cap_and_rejected_past_it(steps):
    base = 0x400000
    for nops, accepted in ((steps - 1, True), (steps, False)):
        code = assemble("nop\n" * nops + "ret", base_addr=base)
        graph = DecodeGraph(code, base)
        assert graph.dist_to_transfer[0] == nops + 1
        cfg = ExtractionConfig(max_scan_steps=steps)
        assert syntactic_scan(code, base, 0, cfg, graph) is accepted
        assert syntactic_scan(code, base, 0, cfg, None) is accepted


def _forward_distance(graph: DecodeGraph, start: int, merge: bool, conditional: bool) -> int:
    """Shortest walk from ``start`` to a transfer, by forward BFS."""
    n = len(graph.insns)
    depth = {start: 1}
    queue = deque([start])
    while queue:
        offset = queue.popleft()
        insn = graph.insns[offset]
        if insn is None or insn.op == Op.HLT:
            continue
        if insn.op in INDIRECT_ENDS:
            return depth[offset]
        succs = [insn.end - graph.base_addr]
        if insn.op in (Op.JMP_REL, Op.CALL_REL):
            succs = [insn.target - graph.base_addr] if merge else []
        elif insn.is_cond_jump() and conditional:
            succs.append(insn.target - graph.base_addr)
        for succ in succs:
            if 0 <= succ < n and succ not in depth:
                depth[succ] = depth[offset] + 1
                queue.append(succ)
    return UNREACHABLE


@pytest.mark.parametrize("seed", range(4))
def test_distance_tables_match_forward_bfs(seed):
    image = make_image(gen_bytes(random.Random(seed), 160))
    graph = DecodeGraph(image.text.data, image.text.addr)
    for merge in (False, True):
        for conditional in (False, True):
            table = graph.transfer_distances(
                merge_direct_jumps=merge, include_conditional=conditional
            )
            expected = [
                _forward_distance(graph, o, merge, conditional) for o in range(len(table))
            ]
            assert table == expected, (merge, conditional)


@pytest.mark.parametrize("config", CONFIGS)
def test_executor_distances_are_the_scan_table_with_both_edges(config):
    image = build("crc32", config).image
    graph = DecodeGraph(image.text.data, image.text.addr)
    both = graph.transfer_distances(merge_direct_jumps=True, include_conditional=True)
    assert graph.dist_to_transfer == both
    ref = DecodeGraph(image.text.data, image.text.addr)
    assert [_forward_distance(ref, o, True, True) for o in range(0, len(both), 7)] == both[::7]
