"""Gadget extraction — stage 1 of Gadget-Planner's workflow.

Candidate start addresses come from two sources, matching Sec. IV-B:

* every instruction boundary inside every recovered basic block
  ("decode from the valid starting position of each basic block ...
  ignore the first N instructions and search from an arbitrary position
  in the middle of a basic block"), and
* every *unaligned* byte offset in the text section that syntactically
  decodes to an indirect-transfer-terminated window (the strategy that
  "can detect unaligned instructions").

Three stages of filtering feed the symbolic executor:

1. a cheap syntactic prefilter (``syntactic_scan``) culls offsets that
   cannot reach an indirect transfer within ``max_scan_steps`` under the
   configured walk rules;
2. a *semantic* prefilter (``staticanalysis.WindowAnalyzer``) culls
   survivors whose decode-graph distance to any indirect transfer
   exceeds the window budget — a sound proof that symbolic execution
   would yield only DEAD paths, so the gadget pool is unchanged;
3. survivors get full symbolic execution, and each usable path becomes
   one Table II record (so a window with a conditional jump yields
   several records, one per feasible side — Fig. 4's distinct feature).

All three stages share one :class:`~repro.staticanalysis.DecodeGraph`,
so every byte of the section is decoded exactly once per extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..analysis.cfg import recover_cfg
from ..binfmt.image import BinaryImage
from ..isa.instructions import Op
from ..obs import metrics, span
from ..staticanalysis.decode_graph import (
    INDIRECT_ENDS,
    UNREACHABLE,
    DecodeGraph,
    shared_decode_graph,
)
from ..staticanalysis.window import WindowAnalyzer
from ..symex.executor import SymbolicExecutor
from .record import GadgetRecord, record_from_path


@dataclass
class ExtractionConfig:
    """Tunables for the extraction stage."""

    max_insns: int = 16  # window length in instructions
    max_paths: int = 6  # fork budget per candidate
    probe_unaligned: bool = True
    include_conditional: bool = True  # ablation knob
    merge_direct_jumps: bool = True  # ablation knob
    max_candidates: Optional[int] = None  # cap for huge binaries
    max_scan_steps: int = 48  # syntactic prefilter depth
    semantic_prefilter: bool = True  # ablation knob (sound: pool unchanged)


@dataclass
class ExtractionStats:
    """Observability for the extraction stage (filled if passed in).

    The ``wall_*`` fields are derived from :mod:`repro.obs` spans —
    the same measurements a ``--trace`` run exports — so the CLI
    summary, ``BENCH_*.json`` and the trace never disagree.
    """

    candidates: int = 0  # after the syntactic stage
    semantically_culled: int = 0  # candidates the prefilter removed
    symex_invocations: int = 0  # windows actually executed symbolically
    records: int = 0
    cache_hits: int = 0  # persistent-cache lookups that short-circuited
    cache_misses: int = 0
    wall_candidates: float = 0.0  # candidate enumeration + syntactic scan
    wall_prefilter: float = 0.0  # semantic prefilter
    wall_symex: float = 0.0  # symbolic execution
    wall_total: float = 0.0  # end-to-end, including the cache

    @property
    def cull_ratio(self) -> float:
        return self.semantically_culled / self.candidates if self.candidates else 0.0

    @property
    def cache_hit(self) -> bool:
        return self.cache_hits > 0


def syntactic_scan(
    code: bytes,
    base: int,
    offset: int,
    config: ExtractionConfig,
    graph: Optional[DecodeGraph] = None,
) -> bool:
    """Cheap prefilter: can *some* walk from ``offset`` reach an indirect
    transfer within budget?  Conditional jumps explore both sides (a
    bounded DFS) — essential on flattened code, where nearly every path
    to a ``ret`` goes through dispatcher compare-and-branch chains.

    With a shared ``graph``, offsets whose shortest walk to a transfer
    under the configured walk rules is longer than ``max_scan_steps``
    are rejected without walking, and the DFS reuses the graph's decode
    cache; the accept/reject result is identical either way.  The bound
    is exact: the DFS accepts only on popping a terminator, when every
    offset on its tree path to it is in ``seen``, and it pops only while
    ``len(seen) < max_scan_steps`` — so an accepted offset has a walk of
    at most ``max_scan_steps`` instructions.
    """
    if graph is not None:
        dist = graph.transfer_distances(
            merge_direct_jumps=config.merge_direct_jumps,
            include_conditional=config.include_conditional,
        )
        if not 0 <= offset < len(dist):
            return False
        d = dist[offset]
        if d == UNREACHABLE or d > config.max_scan_steps:
            return False
        decode_at = graph.decode_at
    else:
        from ..isa.encoding import DecodeError, decode

        def decode_at(cursor: int):
            try:
                return decode(code, cursor, addr=base + cursor)
            except DecodeError:
                return None

    work: List[int] = [offset]
    seen: Set[int] = set()
    while work and len(seen) < config.max_scan_steps:
        cursor = work.pop()
        if cursor in seen or not 0 <= cursor < len(code):
            continue
        seen.add(cursor)
        insn = decode_at(cursor)
        if insn is None:
            continue
        if insn.op in INDIRECT_ENDS:
            return True
        if insn.op == Op.HLT:
            continue
        if insn.op in (Op.JMP_REL, Op.CALL_REL):
            if config.merge_direct_jumps:
                work.append(insn.target - base)
        elif insn.is_cond_jump():
            if config.include_conditional:
                work.append(insn.target - base)
            work.append(insn.end - base)
        else:
            work.append(insn.end - base)
    return False


def candidate_offsets(
    image: BinaryImage,
    config: ExtractionConfig,
    graph: Optional[DecodeGraph] = None,
) -> List[int]:
    """Candidate start addresses, aligned probes first."""
    text = image.text
    code = text.data
    base = text.addr
    aligned: List[int] = []
    seen: Set[int] = set()
    cfg = recover_cfg(image, decoder=graph.decode_addr if graph is not None else None)
    for block in cfg.blocks.values():
        for insn in block.instructions:
            if insn.addr not in seen:
                seen.add(insn.addr)
                aligned.append(insn.addr)
    unaligned: List[int] = []
    if config.probe_unaligned:
        for offset in range(len(code)):
            addr = base + offset
            if addr not in seen:
                unaligned.append(addr)
    candidates = [a for a in aligned if syntactic_scan(code, base, a - base, config, graph)]
    candidates += [a for a in unaligned if syntactic_scan(code, base, a - base, config, graph)]
    if config.max_candidates is not None and len(candidates) > config.max_candidates:
        # Sample evenly instead of truncating, so the cap preserves the
        # aligned/unaligned mix and spans the whole text section.
        step = len(candidates) / config.max_candidates
        candidates = [candidates[int(i * step)] for i in range(config.max_candidates)]
    return candidates


def plan_candidates(
    image: BinaryImage,
    config: ExtractionConfig,
    stats: Optional[ExtractionStats] = None,
) -> Tuple[DecodeGraph, List[int]]:
    """Stages 1+2: the shared decode graph and the final candidate list.

    When ``config.semantic_prefilter`` is on, candidates whose decode
    graph proves them transfer-unreachable within the window budget are
    dropped before symbolic execution.  The prefilter runs *after* the
    candidate list is fixed (including ``max_candidates`` sampling), so
    it changes which windows are executed, never which are considered —
    with identical record output either way, gadget ids included,
    because culled windows contribute zero usable paths.
    """
    text = image.text
    # One decode of the section per process, shared with the syntactic
    # census and the baseline scanners (same bytes → same graph).
    graph = shared_decode_graph(text.data, text.addr)
    with span("extract.plan") as plan_sp:
        with span("extract.candidates") as cand_sp:
            candidates = candidate_offsets(image, config, graph)
        cand_sp.add("candidates", len(candidates))
        if stats is not None:
            stats.candidates = len(candidates)
            stats.wall_candidates += cand_sp.wall
        if config.semantic_prefilter:
            with span("extract.prefilter") as pre_sp:
                analyzer = WindowAnalyzer(graph, max_insns=config.max_insns)
                kept = [a for a in candidates if analyzer.reaches_transfer(a)]
            pre_sp.add("culled", len(candidates) - len(kept))
            if stats is not None:
                stats.semantically_culled = len(candidates) - len(kept)
                stats.wall_prefilter += pre_sp.wall
            candidates = kept
        plan_sp.add("candidates", len(candidates))
    return graph, candidates


def make_executor(
    code: bytes,
    base_addr: int,
    config: ExtractionConfig,
    graph: DecodeGraph,
) -> SymbolicExecutor:
    """The symbolic executor the extraction stage runs candidates on.

    ``graph`` preloads the executor's decode cache, which only affects
    speed, never which paths are found.
    """
    executor = SymbolicExecutor(
        code,
        base_addr,
        max_insns=config.max_insns,
        max_paths=config.max_paths if config.include_conditional else 1,
    )
    executor.preload_decode_cache(graph.addr_decode_cache())
    return executor


def run_candidates(
    executor: SymbolicExecutor,
    candidates: List[int],
    config: ExtractionConfig,
    stats: Optional[ExtractionStats] = None,
) -> List[GadgetRecord]:
    """Stage 3: symbolically execute candidates, in order, into records.

    Ids are assigned sequentially from 0 in candidate order.
    """
    records: List[GadgetRecord] = []
    gadget_id = 0
    steps_histogram = metrics().histogram("symex.steps_per_candidate")
    insns_at_entry = executor.insns_executed
    paths_at_entry = executor.paths_completed
    with span("extract.symex.run") as sp:
        for addr in candidates:
            if stats is not None:
                stats.symex_invocations += 1
            steps_before = executor.insns_executed
            for path in executor.execute_paths(addr):
                if not path.is_usable:
                    continue
                if not config.include_conditional and path.conditional_jumps:
                    continue
                if not config.merge_direct_jumps and path.merged_direct_jumps:
                    continue
                records.append(record_from_path(gadget_id, path))
                gadget_id += 1
            steps_histogram.observe(executor.insns_executed - steps_before)
        sp.add("candidates", len(candidates))
        sp.add("records", len(records))
        # Deltas, not lifetime totals: the executor may have run before.
        sp.add("insns", executor.insns_executed - insns_at_entry)
        sp.add("paths", executor.paths_completed - paths_at_entry)
    if stats is not None:
        stats.wall_symex += sp.wall
    return records

