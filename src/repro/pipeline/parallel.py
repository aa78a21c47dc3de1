"""Extraction and winnowing, run serially behind the persistent cache.

Each of Gadget-Planner's two heavy stages has one entry point here:

* :func:`extract_pool` (Sec. IV-B) plans the candidate windows over the
  shared decode graph, then symbolically executes them in candidate
  order; gadget ids are sequential in that order.
* :func:`winnow_pool` (Sec. IV-C) buckets the pool by semantic
  fingerprint and winnows the buckets in first-occurrence order with one
  solver and one implication memo; survivors come back sorted by
  location.

Either stage short-circuits through a :class:`ResultCache` keyed on
(image bytes, extraction config): a hit returns the stored pool and does
no symbolic execution or solver work.  :func:`run_pipeline` runs both
stages under one ``pipeline`` span with a shared cache.

The module keeps its historical name because ``perfbench/probe.py``
patches ``run_candidates`` and ``bucketize`` here by name.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..binfmt.image import BinaryImage
from ..gadgets.extract import (
    ExtractionConfig,
    ExtractionStats,
    make_executor,
    plan_candidates,
    run_candidates,
)
from ..gadgets.record import GadgetRecord
from ..gadgets.subsumption import (
    ImplicationMemo,
    SubsumptionStats,
    bucketize,
    winnow_bucket,
)
from ..obs import span
from ..solver.solver import Solver
from .cache import ResultCache

#: Conservative solver budget for winnowing.
_WINNOW_MAX_CONFLICTS = 2000


def check_jobs(jobs: int) -> None:
    """Reject any ``jobs`` but 1: the stages run in this process only.

    ``run_pipeline`` and ``GadgetPlanner`` keep the keyword because
    ``perfbench/workloads.py`` passes ``jobs=1``; it goes away with the
    next change to the benchmark.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs!r}: the pipeline runs serially, only jobs=1 is accepted")


def extract_pool(
    image: BinaryImage,
    config: Optional[ExtractionConfig] = None,
    stats: Optional[ExtractionStats] = None,
    *,
    cache: Optional[ResultCache] = None,
    image_bytes: Optional[bytes] = None,
) -> List[GadgetRecord]:
    """Run the extraction stage over ``image``, through ``cache`` if given."""
    config = config or ExtractionConfig()
    stats = stats if stats is not None else ExtractionStats()
    with span("extract") as root:
        if cache is not None:
            if image_bytes is None:
                image_bytes = image.to_bytes()
            with span("extract.cache") as cache_sp:
                hit = cache.load_pool("extract", image_bytes, config)
            if hit is not None:
                records, meta = hit
                cache_sp.add("hits", 1)
                stats.cache_hits += 1
                stats.candidates = int(meta.get("candidates", 0))
                stats.semantically_culled = int(meta.get("semantically_culled", 0))
                stats.records = len(records)
                root.add("records", len(records))
                root.add("cache_hit", 1)
                stats.wall_total += root.wall_so_far()
                return records
            cache_sp.add("misses", 1)
            stats.cache_misses += 1

        graph, candidates = plan_candidates(image, config, stats)
        with span("extract.symex") as sym_sp:
            executor = make_executor(image.text.data, image.text.addr, config, graph)
            records = run_candidates(executor, candidates, config, stats)
            sym_sp.add("records", len(records))

        stats.records = len(records)
        root.add("records", len(records))
        if cache is not None:
            with span("extract.cache.store"):
                cache.store_pool(
                    "extract",
                    image_bytes,
                    config,
                    records,
                    meta={
                        "candidates": stats.candidates,
                        "semantically_culled": stats.semantically_culled,
                    },
                )
    stats.wall_total += root.wall
    return records


def winnow_pool(
    records: Sequence[GadgetRecord],
    stats: Optional[SubsumptionStats] = None,
    *,
    solver: Optional[Solver] = None,
    cache: Optional[ResultCache] = None,
    image: Optional[BinaryImage] = None,
    image_bytes: Optional[bytes] = None,
    config: Optional[ExtractionConfig] = None,
) -> List[GadgetRecord]:
    """Winnow the pool: keep one representative per equivalence class,
    preferring the loosest pre-condition, then the shortest gadget.

    Caching keys on (image bytes, extraction config), the inputs the
    extracted pool is itself a pure function of; both must be supplied
    for the cache to engage.
    """
    stats = stats if stats is not None else SubsumptionStats()
    can_cache = cache is not None and config is not None and (
        image is not None or image_bytes is not None
    )
    with span("winnow") as root:
        if can_cache:
            if image_bytes is None:
                image_bytes = image.to_bytes()
            with span("winnow.cache") as cache_sp:
                hit = cache.load_pool("winnow", image_bytes, config)
            if hit is not None:
                survivors, meta = hit
                cache_sp.add("hits", 1)
                stats.cache_hits += 1
                stats.input_count = int(meta.get("input_count", len(records)))
                stats.buckets = int(meta.get("buckets", 0))
                stats.output_count = len(survivors)
                root.add("output", len(survivors))
                root.add("cache_hit", 1)
                stats.wall_total += root.wall_so_far()
                return survivors
            cache_sp.add("misses", 1)
            stats.cache_misses += 1

        stats.input_count = len(records)
        with span("winnow.bucketize") as bkt_sp:
            buckets = bucketize(records)
        bkt_sp.add("buckets", len(buckets))
        stats.buckets = len(buckets)

        solver = solver or Solver(max_conflicts=_WINNOW_MAX_CONFLICTS)
        memo: ImplicationMemo = {}
        survivors: List[GadgetRecord] = []
        with span("winnow.buckets") as run_sp:
            for bucket in buckets:
                survivors.extend(winnow_bucket(bucket, solver, stats, memo=memo))
            run_sp.add("survivors", len(survivors))
            run_sp.add("solver_checks", stats.solver_checks)
            run_sp.add("memo_hits", stats.memo_hits)

        survivors.sort(key=lambda g: g.location)
        stats.output_count = len(survivors)
        root.add("input", stats.input_count)
        root.add("output", len(survivors))
        if can_cache:
            with span("winnow.cache.store"):
                cache.store_pool(
                    "winnow",
                    image_bytes,
                    config,
                    survivors,
                    meta={"input_count": stats.input_count, "buckets": stats.buckets},
                )
    stats.wall_total += root.wall
    return survivors


def run_pipeline(
    image: BinaryImage,
    config: Optional[ExtractionConfig] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    winnow: bool = True,
    extraction_stats: Optional[ExtractionStats] = None,
    winnow_stats: Optional[SubsumptionStats] = None,
) -> Tuple[List[GadgetRecord], Optional[List[GadgetRecord]]]:
    """Extract (and optionally winnow) with one shared cache.

    Returns ``(extracted, winnowed-or-None)``.  Under an active tracer
    the whole run lands beneath one ``pipeline`` root span with the
    ``extract`` and ``winnow`` trees as children.  ``jobs`` must be 1
    (see :func:`check_jobs`).
    """
    check_jobs(jobs)
    config = config or ExtractionConfig()
    with span("pipeline"):
        image_bytes = image.to_bytes() if cache is not None else None
        records = extract_pool(
            image, config, extraction_stats, cache=cache, image_bytes=image_bytes
        )
        if not winnow:
            return records, None
        survivors = winnow_pool(
            records,
            winnow_stats,
            cache=cache,
            image_bytes=image_bytes,
            config=config,
        )
    return records, survivors
