"""Pipeline performance — the persistent result cache.

Measures a cold and a warm :func:`repro.pipeline.run_pipeline` on the
obfuscated netperf-like target and records both the human-readable
table and a machine-readable ``BENCH_pipeline.json``, stamped with the
git rev, ``PIPELINE_VERSION`` and ``cpu_count`` that produced it.  The
warm-cache assertions are hardware independent and always enforced.
"""

import json

from repro.bench.harness import format_pipeline_bench, pipeline_benchmark


def test_pipeline_performance(benchmark, record_table, results_dir):
    result = benchmark.pedantic(pipeline_benchmark, iterations=1, rounds=1)

    (results_dir / "BENCH_pipeline.json").write_text(json.dumps(result, indent=2) + "\n")
    record_table(
        "BENCH_pipeline",
        "Pipeline performance: persistent result cache",
        format_pipeline_bench(result),
    )

    # Warm cache: no symbolic execution, no solver work, >=10x faster.
    cache = result["cache"]
    assert cache["warm_extract_hit"] and cache["warm_winnow_hit"]
    assert cache["warm_symex_invocations"] == 0
    assert cache["warm_solver_checks"] == 0
    assert cache["warm_identical"]
    assert cache["speedup"] >= 10.0, f"warm cache only {cache['speedup']:.1f}x faster"
