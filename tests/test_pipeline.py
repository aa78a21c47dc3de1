"""repro.pipeline — determinism, serialization, and cache correctness.

The contract is strict: pools serialize canonically, and a cache hit
returns the byte-identical pool while performing zero symbolic
execution or solver work.  Everything here runs on small windows so
tier-1 stays fast; the timing claims live in
``benchmarks/test_pipeline_perf.py``.
"""

import pytest

from repro.bench.harness import build
from repro.gadgets.extract import ExtractionConfig, ExtractionStats
from repro.gadgets.record import GadgetRecord
from repro.gadgets.subsumption import SubsumptionStats, bucketize, winnow_bucket
from repro.pipeline import (
    ResultCache,
    extract_pool,
    pool_from_bytes,
    pool_to_bytes,
    record_from_bytes,
    record_to_bytes,
    run_pipeline,
    winnow_pool,
)
from repro.solver.solver import Solver
from repro.symex.expr import bv_add, bv_const, bv_eq, bv_sym

SMALL = ExtractionConfig(max_insns=5, max_paths=2)


def _image(name, config_name):
    return build(name, config_name, 7).image


# -- canonical serialization ------------------------------------------------


def test_record_round_trip_identity():
    image = _image("bubble_sort", "llvm_obf")
    records = extract_pool(image, SMALL)
    assert records, "need a non-empty pool to round-trip"
    for record in records:
        blob = record_to_bytes(record)
        restored = record_from_bytes(blob)
        assert restored == record
        assert record_to_bytes(restored) == blob


def test_record_methods_round_trip():
    image = _image("bubble_sort", "none")
    record = extract_pool(image, SMALL)[0]
    restored = GadgetRecord.from_bytes(record.to_bytes())
    assert restored == record
    # Expressions restore to the exact same structure, not just equal
    # values — pre/post survive another serialization byte for byte.
    assert restored.to_bytes() == record.to_bytes()


def test_pool_round_trip_and_determinism():
    image = _image("bubble_sort", "llvm_obf")
    records = extract_pool(image, SMALL)
    blob = pool_to_bytes(records)
    assert pool_to_bytes(pool_from_bytes(blob)) == blob
    # Re-extracting yields the same bytes: the encoding is canonical.
    assert pool_to_bytes(extract_pool(image, SMALL)) == blob


# -- persistent cache -------------------------------------------------------


def test_cache_hit_identical_and_skips_symex(tmp_path):
    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    cold_stats = ExtractionStats()
    cold = extract_pool(image, SMALL, cold_stats, cache=cache)
    assert cold_stats.cache_misses == 1 and cold_stats.symex_invocations > 0

    warm_stats = ExtractionStats()
    warm = extract_pool(image, SMALL, warm_stats, cache=cache)
    assert pool_to_bytes(warm) == pool_to_bytes(cold)
    assert warm_stats.cache_hits == 1
    assert warm_stats.symex_invocations == 0, "warm run must not re-execute"
    # Candidate/cull counters survive through the entry metadata.
    assert warm_stats.candidates == cold_stats.candidates
    assert warm_stats.semantically_culled == cold_stats.semantically_culled


def test_cache_invalidates_on_image_and_config_change(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "llvm_obf")
    extract_pool(image, SMALL, cache=cache)

    # Different image bytes -> different key -> miss.
    other_stats = ExtractionStats()
    extract_pool(_image("binary_search", "llvm_obf"), SMALL, other_stats, cache=cache)
    assert other_stats.cache_hits == 0 and other_stats.cache_misses == 1

    # Different config -> different key -> miss.
    tweaked = ExtractionConfig(max_insns=SMALL.max_insns + 1, max_paths=SMALL.max_paths)
    cfg_stats = ExtractionStats()
    extract_pool(image, tweaked, cfg_stats, cache=cache)
    assert cfg_stats.cache_hits == 0 and cfg_stats.cache_misses == 1


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "none")
    extract_pool(image, SMALL, cache=cache)
    (entry,) = list(tmp_path.rglob("*.pool"))
    entry.write_bytes(b"NFLC garbage")
    stats = ExtractionStats()
    records = extract_pool(image, SMALL, stats, cache=cache)
    assert stats.cache_hits == 0 and stats.cache_misses == 1
    assert records == extract_pool(image, SMALL)


def test_winnow_cache_round_trip(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "llvm_obf")
    records = extract_pool(image, SMALL)
    cold = winnow_pool(records, cache=cache, image=image, config=SMALL)
    warm_stats = SubsumptionStats()
    warm = winnow_pool(records, warm_stats, cache=cache, image=image, config=SMALL)
    assert pool_to_bytes(warm) == pool_to_bytes(cold)
    assert warm_stats.cache_hits == 1
    assert warm_stats.solver_checks == 0, "warm winnow must not re-check"


def test_run_pipeline_warm_end_to_end(tmp_path):
    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    cold_records, cold_survivors = run_pipeline(image, SMALL, cache=cache)
    es, ss = ExtractionStats(), SubsumptionStats()
    records, survivors = run_pipeline(
        image, SMALL, cache=cache, extraction_stats=es, winnow_stats=ss
    )
    assert es.cache_hit and ss.cache_hit
    assert es.symex_invocations == 0 and ss.solver_checks == 0
    assert pool_to_bytes(records) == pool_to_bytes(cold_records)
    assert pool_to_bytes(survivors) == pool_to_bytes(cold_survivors)


def test_jobs_other_than_one_raise():
    from repro.planner import GadgetPlanner

    image = _image("bubble_sort", "none")
    with pytest.raises(ValueError, match="jobs=2"):
        run_pipeline(image, SMALL, jobs=2)
    with pytest.raises(ValueError, match="jobs=2"):
        GadgetPlanner(image, jobs=2)


# -- memoization ------------------------------------------------------------


def test_solver_check_memo():
    solver = Solver()
    x = bv_sym("x")
    query = [bv_eq(bv_add(x, bv_const(1)), bv_const(60))]
    first = solver.check(query)
    second = solver.check(query)
    assert solver.queries == 2 and solver.memo_hits == 1
    assert second.status == first.status and second.model == first.model
    # The cached model is a copy: mutating it must not poison the memo.
    second.model["x"] = 0
    assert solver.check(query).model == first.model


def test_winnow_memo_counters():
    image = _image("bubble_sort", "llvm_obf")
    records = extract_pool(image, ExtractionConfig(max_insns=6, max_paths=3))
    stats = SubsumptionStats()
    survivors = winnow_pool(records, stats)
    assert stats.memo_hits <= stats.implication_queries
    assert 0.0 <= stats.memo_hit_rate <= 1.0
    # The memo must not change the outcome.
    solver = Solver(max_conflicts=2000)
    unmemoized = [kept for b in bucketize(records) for kept in winnow_bucket(b, solver)]
    unmemoized.sort(key=lambda g: g.location)
    assert pool_to_bytes(survivors) == pool_to_bytes(unmemoized)


# -- CLI --------------------------------------------------------------------


def test_cli_extract_cold_then_warm(tmp_path, capsys):
    from repro.cli import main

    image = _image("bubble_sort", "llvm_obf")
    binary = tmp_path / "prog.nflf"
    binary.write_bytes(image.to_bytes())
    cache_dir = tmp_path / "cache"

    argv = [
        "extract",
        str(binary),
        "--max-insns",
        "5",
        "--max-paths",
        "2",
        "--cache-dir",
        str(cache_dir),
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert "cache=miss" in cold_out

    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    assert "cache=hit" in warm_out and "symex=0" in warm_out
    # Same pool either way: the summary head line is identical.
    assert cold_out.splitlines()[0] == warm_out.splitlines()[0]


def test_cli_census_semantic_no_cache(tmp_path, capsys):
    from repro.cli import main

    image = _image("bubble_sort", "none")
    binary = tmp_path / "prog.nflf"
    binary.write_bytes(image.to_bytes())
    assert (
        main(["census", str(binary), "--semantic", "--max-insns", "4", "--no-cache"])
        == 0
    )
    out = capsys.readouterr().out
    assert "after subsumption" in out and "cache=off" in out


# -- cache corruption and concurrency ---------------------------------------


def _stored_entry(tmp_path, name="bubble_sort"):
    cache = ResultCache(root=tmp_path)
    image = _image(name, "none")
    image_bytes = image.to_bytes()
    records = extract_pool(image, SMALL)
    path = cache.store_pool("extract", image_bytes, SMALL, records, meta={"candidates": 3})
    return cache, image_bytes, records, path


def test_cache_truncated_entry_deleted_and_missed(tmp_path):
    cache, image_bytes, _, path = _stored_entry(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.load_pool("extract", image_bytes, SMALL) is None
    assert not path.exists(), "corrupt entry must be unlinked"
    assert cache.stats.misses == 1


def test_cache_short_blob_header_is_a_miss(tmp_path):
    """A blob shorter than magic + length word makes the header
    ``struct.unpack_from`` raise — that must read as a miss, not crash."""
    cache, image_bytes, _, path = _stored_entry(tmp_path)
    path.write_bytes(b"NFLC\x07")
    assert cache.load_pool("extract", image_bytes, SMALL) is None
    assert not path.exists()


def test_cache_concurrent_stores_race_benignly(tmp_path):
    import threading

    cache, image_bytes, records, path = _stored_entry(tmp_path)
    path.unlink()
    barrier = threading.Barrier(2)
    errors = []

    def store():
        try:
            barrier.wait(timeout=10)
            ResultCache(root=tmp_path).store_pool(
                "extract", image_bytes, SMALL, records, meta={"candidates": 3}
            )
        except Exception as exc:  # pragma: no cover - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=store) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Whichever os.replace landed last, the entry is whole and loadable,
    # and no temp files leak.
    loaded, meta = cache.load_pool("extract", image_bytes, SMALL)
    assert pool_to_bytes(loaded) == pool_to_bytes(records)
    assert meta == {"candidates": 3}
    assert list(tmp_path.rglob("*.tmp")) == []


# -- trace structure ---------------------------------------------------------


def _traced_pipeline(image, cache):
    from repro.obs import Tracer, metrics, reset_metrics, tracing

    es, ss = ExtractionStats(), SubsumptionStats()
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        run_pipeline(image, SMALL, cache=cache, extraction_stats=es, winnow_stats=ss)
    return tracer.to_lines(metrics=metrics().to_dict()), es, ss


def test_trace_covers_serial_pipeline(tmp_path):
    import pytest as _pytest

    from repro.obs import validate_trace_lines

    image = _image("bubble_sort", "llvm_obf")
    lines, es, ss = _traced_pipeline(image, None)
    spans = validate_trace_lines(lines)
    names = {s["name"] for s in spans}
    assert {
        "pipeline",
        "extract",
        "extract.plan",
        "extract.candidates",
        "extract.symex",
        "extract.symex.run",
        "winnow",
        "winnow.bucketize",
        "winnow.buckets",
    } <= names
    # One in-process symex run under the symex stage covers every candidate.
    symex_id = next(s["id"] for s in spans if s["name"] == "extract.symex")
    (run,) = [s for s in spans if s["name"] == "extract.symex.run"]
    assert run["parent"] == symex_id
    assert run["counters"]["candidates"] == es.symex_invocations
    assert run["counters"]["records"] == es.records
    # The stats fields are span-derived: the trace and the summary agree.
    extract_root = next(s for s in spans if s["name"] == "extract")
    assert extract_root["wall"] == _pytest.approx(es.wall_total, rel=0.05)
    winnow_root = next(s for s in spans if s["name"] == "winnow")
    assert winnow_root["wall"] == _pytest.approx(ss.wall_total, rel=0.05)


def test_warm_trace_byte_stable_modulo_timestamps(tmp_path):
    from repro.obs import strip_timestamps

    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    run_pipeline(image, SMALL, cache=cache)  # populate

    first, es1, _ = _traced_pipeline(image, cache)
    second, es2, _ = _traced_pipeline(image, cache)
    assert es1.symex_invocations == 0 and es2.symex_invocations == 0
    assert strip_timestamps(first) == strip_timestamps(second)
