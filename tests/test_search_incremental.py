"""The planner search's incremental state, checked against recomputation.

A partial plan keeps its ordering closure, its threat resolution and its
constraint load up to date as it grows, and one search asks each
(gadget, condition) provision question once.  None of that may change
what the search does:

(a) per-goal search statistics and payload bytes of two benchmark cells
    equal golden figures recorded from the search that recomputed all of
    it on every call;
(b) for every plan the search pushes, the stored closure equals a closure
    computed here from ``orderings`` alone, and a scan of every
    (link, step) pair finds no threat.
"""

import hashlib
from collections import deque

import pytest

from repro.bench import harness
from repro.bench.harness import BENCH_EXTRACTION, BENCH_PLANNER, DEFAULT_SEED
from repro.bench.netperf import netperf_image
from repro.obfuscation.pipeline import CONFIGS
from repro.obs import Tracer, tracing
from repro.planner import GadgetPlanner
from repro.planner.plan import PartialPlan
from repro.solver.solver import Solver
from repro.staticanalysis.decode_graph import shared_decode_graph

#: cell → goal → (seeds, nodes_expanded, dead_ends, plans_emitted,
#: blake2b-128 of the repr of the sorted payload bytes).
GOLDEN = {
    "crc32/tigress": {
        "execve": (19, 3000, 1758, 0, "7ebb3c7c2a87b1a2f8a7ed729ecb040d"),
        "mmap": (19, 3000, 1165, 0, "7ebb3c7c2a87b1a2f8a7ed729ecb040d"),
        "mprotect": (19, 3000, 1466, 0, "7ebb3c7c2a87b1a2f8a7ed729ecb040d"),
    },
    "netperf/llvm_obf": {
        "execve": (57, 744, 343, 18, "67bcf59fdf924c680a8fe41a0181567a"),
        "mmap": (57, 326, 51, 18, "832e27aefb1734cc5d704232b5679568"),
        "mprotect": (57, 436, 51, 18, "ee9487c0bd81745a65f559d8e4d2cee3"),
    },
}


def cell_image(name):
    program, config = name.split("/")
    if program == "netperf":
        return netperf_image(CONFIGS[config], seed=DEFAULT_SEED).image
    return harness.build(program, config, DEFAULT_SEED).image


def plan_cell(name):
    """Cold-plan one cell the way the benchmark does, under a tracer."""
    image = cell_image(name)
    shared_decode_graph.cache_clear()
    planner = GadgetPlanner(
        image,
        extraction=BENCH_EXTRACTION,
        planner=BENCH_PLANNER,
        solver=Solver(max_conflicts=4000),
    )
    tracer = Tracer()
    with tracing(tracer):
        report = planner.run()
    return report, tracer


def search_counters(tracer):
    return [
        dict(sp.counters) for sp, _ in tracer.iter_spans() if sp.name == "plan.search"
    ]


def bfs_closure(plan):
    successors = {}
    for a, b in plan.orderings:
        successors.setdefault(a, set()).add(b)
    closure = {}
    for sid in plan.steps:
        seen = set()
        frontier = deque(successors.get(sid, ()))
        while frontier:
            node = frontier.popleft()
            if node not in seen:
                seen.add(node)
                frontier.extend(successors.get(node, ()))
        closure[sid] = frozenset(seen)
    return closure


def scan_threats(plan, closure):
    """(clobbering pairs seen, pairs still threatening), over every pair."""
    guarded, threats = 0, []
    for link in plan.links:
        p, c = link.provider, link.consumer
        for sid, step in plan.steps.items():
            if sid in (p, c) or link.condition.reg not in step.gadget.clob_regs:
                continue
            guarded += 1
            if p not in closure[sid] and sid not in closure[c]:
                threats.append((str(link), sid))
    return guarded, threats


class PushAudit:
    """Wraps ``PartialPlan.priority_key``, which the search calls once per push."""

    def __init__(self):
        self.pushed = 0
        self.guarded = 0
        self.bad_closures = []
        self.threats = []

    def wrap(self, key):
        def audited(plan):
            self.pushed += 1
            closure = bfs_closure(plan)
            if plan._after != closure:
                self.bad_closures.append((sorted(plan.orderings), plan._after, closure))
            guarded, threats = scan_threats(plan, closure)
            self.guarded += guarded
            self.threats.extend(threats)
            return key(plan)

        return audited


@pytest.fixture(scope="module")
def planned():
    """Each cell's report, audit and search-span counters."""
    out = {}
    for name in GOLDEN:
        audit = PushAudit()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PartialPlan, "priority_key", audit.wrap(PartialPlan.priority_key))
            report, tracer = plan_cell(name)
        out[name] = (report, audit, search_counters(tracer))
    return out


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_search_stats_and_payloads_match_golden(planned, cell):
    report, _, _ = planned[cell]
    got = {}
    for goal, stats in report.search_stats.items():
        payloads = sorted(p.to_bytes() for p in report.payloads if p.goal_name == goal)
        payload_digest = hashlib.blake2b(repr(payloads).encode(), digest_size=16).hexdigest()
        got[goal] = (
            stats.seeds,
            stats.nodes_expanded,
            stats.dead_ends,
            stats.plans_emitted,
            payload_digest,
        )
    assert got == GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_every_pushed_plan_has_exact_closure_and_no_threat(planned, cell):
    _, audit, _ = planned[cell]
    assert audit.pushed > 1000
    assert audit.guarded > 0, "no clobbering step met a link: the scan checked nothing"
    assert audit.bad_closures == []
    assert audit.threats == []


def test_search_span_counts_provisions_deterministically(planned):
    cell = "netperf/llvm_obf"
    first = planned[cell][2]
    _, tracer = plan_cell(cell)
    second = search_counters(tracer)
    assert first == second
    nodes = sorted(golden[1] for golden in GOLDEN[cell].values())
    assert sorted(counters["nodes_expanded"] for counters in first) == nodes
    assert all(counters["provisions"] > 0 for counters in first)
