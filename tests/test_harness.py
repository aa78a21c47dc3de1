"""Tests for the experiment harness: drivers, caching, formatting."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    Table1Row,
    Table4Cell,
    Table5Row,
    Table7Row,
    build,
    fig1_gadget_counts,
    format_fig1,
    format_fig5,
    format_table1,
    format_table4,
    format_table5,
    format_table7,
    pipeline_benchmark,
    run_tool,
    table1_type_counts,
    table5_chain_properties,
)
from repro.bench.netperf import netperf_image
from repro.gadgets.record import JmpType
from repro.obfuscation.pipeline import CONFIGS
from repro.staticanalysis.decode_graph import shared_decode_graph


def test_build_caches():
    a = build("crc32", "none")
    b = build("crc32", "none")
    assert a is b


def test_build_unknown_program_raises():
    with pytest.raises(KeyError):
        build("no_such_program", "none")


def test_fig1_on_two_programs():
    rows = fig1_gadget_counts(programs=("crc32", "bigint_add"), configs=("none", "llvm_obf"))
    assert len(rows) == 2
    for row in rows:
        assert row.counts["llvm_obf"] > row.counts["none"]
    text = format_fig1(rows)
    assert "crc32" in text and "TOTAL" in text


def test_table1_on_small_slice():
    rows = table1_type_counts(programs=("crc32", "state_machine"))
    kinds = {r.gadget_type for r in rows}
    assert kinds == {JmpType.RET, JmpType.UDJ, JmpType.UIJ, JmpType.CDJ, JmpType.CIJ}
    text = format_table1(rows)
    assert "RET" in text and "%" in text


def test_table1_increase_rate_math():
    row = Table1Row(gadget_type=JmpType.RET, original=100, obfuscated=180)
    assert row.increase_rate == pytest.approx(0.8)
    zero = Table1Row(gadget_type=JmpType.RET, original=0, obfuscated=5)
    assert zero.increase_rate == float("inf")


def test_run_tool_caches():
    a = run_tool("ropgadget", "crc32", "none")
    b = run_tool("ropgadget", "crc32", "none")
    assert a is b
    assert a.gadgets_total > 0


def test_run_tool_unknown_raises():
    with pytest.raises(KeyError):
        harness._make_tool("no_such_tool")


def test_format_table4_renders_new_column():
    cells = [
        Table4Cell("none", "gadget_planner", 100, 10, 1, 2, 3),
        Table4Cell("llvm_obf", "gadget_planner", 200, 20, 2, 4, 6, new_vs_original=6),
    ]
    text = format_table4(cells)
    assert "(6)" in text
    assert "llvm_obf" in text


def test_format_table5_percentages():
    rows = [Table5Row("tool_x", 2.5, 12.0, 100.0, 0.0, 0.0, 0.0)]
    text = format_table5(rows)
    assert "tool_x" in text and "100.0" in text


def test_table5_from_synthetic_payloads():
    gp_result = run_tool("gadget_planner", "string_ops", "none")
    rows = table5_chain_properties({"gadget_planner": gp_result.payloads})
    (row,) = rows
    if gp_result.payloads:
        assert row.avg_chain_len > 0
        assert abs(row.pct_ret + row.pct_ij + row.pct_dj + row.pct_cj - 100.0) < 1e-6


def test_format_fig5_bars():
    text = format_fig5({"flattening": 10, "substitution": 2})
    assert text.splitlines()[1].startswith("flattening")
    assert "#" in text


def test_format_table7():
    rows = [Table7Row("gadget_planner", "planning", 1.25, 64.2)]
    text = format_table7(rows)
    assert "planning" in text and "1.25" in text


def test_verify_semantics_quick():
    assert harness.verify_semantics("bigint_add", "substitution")


def test_pipeline_benchmark_cold_run_decodes_afresh(tmp_path):
    """A graph left in the process-wide cache (say, by Table VII) must
    not make the "cold" run cheaper than a cold run is."""
    text = netperf_image(CONFIGS["llvm_obf"], seed=harness.DEFAULT_SEED).image.text
    shared_decode_graph(text.data, text.addr)
    result = pipeline_benchmark(cache_dir=tmp_path)
    # Only the cold run decodes; it must not have found the graph cached.
    assert shared_decode_graph.cache_info().hits == 0
    assert result["cache"]["warm_identical"]
