"""The benchmark's workloads: their cells, set-up, one pass, and output checks.

A *cell* is one benchmark program under one build configuration.  A *pass*
runs a workload once over all its cells.  An *operation* is the unit the
output checks judge: one (binary, goal) plan, one semantics verdict or one
warm cell.  README.md lists when an operation fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.emulator.cpu as cpu_mod
import repro.planner as planner_mod
from repro.bench import harness
from repro.bench.harness import BENCH_EXTRACTION, BENCH_PLANNER, DEFAULT_SEED
from repro.bench.netperf import netperf_image
from repro.binfmt.image import BinaryImage
from repro.gadgets.extract import ExtractionStats
from repro.gadgets.subsumption import SubsumptionStats
from repro.obfuscation.pipeline import CONFIGS
from repro.pipeline import ResultCache, pool_to_bytes, run_pipeline
from repro.pipeline.cache import PIPELINE_VERSION
from repro.planner import GadgetPlanner, PlannerReport, resolve_goal, standard_goals
from repro.planner.payload import validate_payload
from repro.solver.solver import Solver
from repro.staticanalysis.decode_graph import shared_decode_graph

from probe import LayerProbe, patch
from speed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent

#: The planner's own default solver budget, used by every cold plan.
SOLVER_CONFLICTS = 4000
#: The harness's ``verify_semantics`` step limit.
STEP_LIMIT = 60_000_000

perf_counter = time.perf_counter


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass(frozen=True)
class Cell:
    program: str
    config: str

    @property
    def name(self) -> str:
        return f"{self.program}/{self.config}"

    def build(self, seed: int) -> BinaryImage:
        if self.program == "netperf":
            return netperf_image(CONFIGS[self.config], seed=seed).image
        return harness.build(self.program, self.config, seed).image


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "plan", "verify" or "warm"
    cells: Tuple[Cell, ...]


#: Why each workload is here: see README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("plan_obf", "plan", (Cell("netperf", "llvm_obf"), Cell("crc32", "tigress"),
                                      Cell("456.hmmer", "tigress"))),
        # The last cell is the reference the others must match.
        Workload("verify_semantics", "verify", (Cell("crc32", "llvm_obf"), Cell("crc32", "none"))),
        Workload("replan_warm", "warm", (Cell("netperf", "none"), Cell("netperf", "llvm_obf"))),
    )
}


@dataclass
class PassResult:
    """One pass: its wall time and, per operation, output digest or failure."""

    wall: float = 0.0
    #: The wall time scaled to reference-machine speed; 0 without a meter.
    ref_wall: float = 0.0
    digests: Dict[str, Optional[str]] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    #: Per cell: digests and counts to diff between commits.
    cells: Dict[str, dict] = field(default_factory=dict)


def no_payload_reason(stats, assembled: int, max_nodes: int) -> str:
    """Why a (binary, goal) plan yielded no validated payload."""
    if stats is None:
        return "goal_unresolved"
    if stats.plans_emitted == 0:
        return "budget_exhausted" if stats.nodes_expanded >= max_nodes else "no_plan"
    if assembled == 0:
        return "assembly_error"
    return "validation_failed"


class Bench:
    """One workload's cells, set-up state and passes within one process."""

    def __init__(self, workload: Workload, build_seed: int = DEFAULT_SEED,
                 workload_seed: int = 0, scratch: Optional[Path] = None) -> None:
        self.workload = workload
        self.build_seed = build_seed
        self.rng = random.Random(workload_seed)
        self.scratch = scratch
        self.images: Dict[Cell, BinaryImage] = {}
        self.cache: Optional[ResultCache] = None
        #: op -> the digest every pass must reproduce: the first pass's, or
        #: for warm cells the pools the cold set-up run wrote.
        self.reference: Dict[str, str] = {}
        self.setup_errors: List[str] = []
        self.build_seconds: List[float] = []
        self.ref_setup_seconds: List[float] = []
        #: Set, each timed cell is also scaled to reference-machine speed.
        self.meter: Optional[SpeedMeter] = None

    # -- set-up ---------------------------------------------------------------

    def setup(self, repeats: int, min_seconds: float = 0.0) -> List[float]:
        """Build every cell (and fill the cache), at least ``repeats`` times
        and until ``min_seconds`` have passed.

        Returns each repetition's wall time; with a meter, each is also
        scaled into ``ref_setup_seconds``.  Every repetition must give
        byte-identical images and cold pools.
        """
        times: List[float] = []
        image_digests = None
        while len(times) < repeats or sum(times) < min_seconds:
            # build() memoizes per (program, config, seed); forget that so
            # each repetition compiles and obfuscates again.
            harness._BUILD_CACHE.clear()
            t0 = perf_counter()
            images = {cell: cell.build(self.build_seed) for cell in self.workload.cells}
            built = perf_counter() - t0
            self.build_seconds.append(built)
            fill = 0.0
            if self.workload.kind == "warm":
                fill = self._fill_cache(images)
            times.append(built + fill)
            if self.meter is not None:
                self.ref_setup_seconds.append(self.meter.scale(built + fill))
            digests = {cell: digest(image.to_bytes()) for cell, image in images.items()}
            if image_digests is not None and digests != image_digests:
                self.setup_errors.append("rebuilding a cell gave different image bytes")
            image_digests = digests
            self.images = images
        return times

    def _fill_cache(self, images: Dict[Cell, BinaryImage]) -> float:
        """Write the cold pools into a fresh cache; the warm ops' reference."""
        root = self.scratch / "cache"
        shutil.rmtree(root, ignore_errors=True)
        self.cache = ResultCache(root=root)
        t0 = perf_counter()
        cold = {}
        for cell, image in images.items():
            records, survivors = run_pipeline(image, BENCH_EXTRACTION, jobs=1, cache=self.cache)
            cold[cell] = (records, survivors)
        elapsed = perf_counter() - t0
        for cell, (records, survivors) in cold.items():
            op = f"{cell.name}:warm"
            expected = self.reference.setdefault(op, pools_digest(records, survivors))
            if pools_digest(records, survivors) != expected:
                self.setup_errors.append(f"{cell.name}: cold pools differ between set-ups")
        return elapsed

    # -- passes ---------------------------------------------------------------

    def run_pass(self, probe: Optional[LayerProbe] = None) -> PassResult:
        """One pass over the cells in a seed-drawn order; checked afterwards."""
        order = self.rng.sample(self.workload.cells, len(self.workload.cells))
        run = {"plan": self._plan_pass, "verify": self._verify_pass, "warm": self._warm_pass}
        result = run[self.workload.kind](order, probe)
        for op, value in result.digests.items():
            if value is None:
                continue
            expected = self.reference.setdefault(op, value)
            if value != expected and op not in result.errors:
                result.errors[op] = "output differs from its reference"
        return result

    @contextmanager
    def _timed(self, result: PassResult):
        """Add the block's wall time (and, with a meter, its scaled time) to
        the pass, also when the block raises."""
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            result.wall += elapsed
            if self.meter is not None:
                result.ref_wall += self.meter.scale(elapsed)

    def _plan_pass(self, order, probe: Optional[LayerProbe]) -> PassResult:
        result = PassResult()
        finished = []
        with ExitStack() as stack:
            pools: List = []
            winnow = planner_mod.winnow_pool

            def capture_pool(*args, **kwargs):
                survivors = winnow(*args, **kwargs)
                pools.append(survivors)
                return survivors

            patch(stack, planner_mod, "winnow_pool", capture_pool)
            if probe is not None:
                probe.install(stack)
            for cell in order:
                image = self.images[cell]
                shared_decode_graph.cache_clear()
                solver = (probe.solver if probe else Solver)(max_conflicts=SOLVER_CONFLICTS)
                planner = GadgetPlanner(image, extraction=BENCH_EXTRACTION,
                                        planner=BENCH_PLANNER, solver=solver, jobs=1)
                pools.clear()
                if probe is not None:
                    probe.assembled.clear()
                try:
                    with self._timed(result):
                        report = planner.run()
                except Exception as exc:  # an op failure to count, not a crash
                    for goal in standard_goals(image):
                        result.digests[f"{cell.name}:{goal.name}"] = None
                        result.errors[f"{cell.name}:{goal.name}"] = f"raised {exc!r}"
                    continue
                assembled = None
                if probe is not None:
                    probe.add_solver(solver)
                    assembled = dict(probe.assembled)
                finished.append((cell, report, pool_to_bytes(pools[0]), assembled))
        for cell, report, pool, assembled in finished:
            self._check_plan(cell, report, pool, assembled, result)
        return result

    def _check_plan(self, cell: Cell, report: PlannerReport, pool: bytes,
                    assembled: Optional[Dict[str, int]], result: PassResult) -> None:
        """Digest and re-validate one cell's outputs.  ``assembled`` (payloads
        assembled per goal) comes from a traced pass and names no-payload
        reasons."""
        image = self.images[cell]
        pool_digest = digest(pool)
        goals = {}
        for goal in standard_goals(image):
            payloads = [p for p in report.payloads if p.goal_name == goal.name]
            op = f"{cell.name}:{goal.name}"
            payload_digest = digest(repr(sorted(p.to_bytes() for p in payloads)).encode())
            result.digests[op] = digest(f"{pool_digest}:{payload_digest}".encode())
            if payloads:
                resolved = resolve_goal(image, goal)
                if not all(validate_payload(image, p, resolved) for p in payloads):
                    result.errors[op] = "a payload failed re-validation"
            stats = report.search_stats.get(goal.name)
            entry = {
                "payloads": len(payloads),
                "payload_digest": payload_digest,
                "nodes": stats.nodes_expanded if stats else 0,
                "plans": stats.plans_emitted if stats else 0,
                "dead_ends": stats.dead_ends if stats else 0,
            }
            if assembled is not None and not payloads:
                entry["no_payload_reason"] = no_payload_reason(
                    stats, assembled.get(goal.name, 0), BENCH_PLANNER.max_nodes)
            goals[goal.name] = entry
        result.cells[cell.name] = {
            "text_bytes": len(image.text.data),
            "gadgets": report.gadgets_total,
            "winnowed": report.gadgets_after_subsumption,
            "pool_digest": pool_digest,
            "goals": goals,
        }

    def _verify_pass(self, order, probe: Optional[LayerProbe]) -> PassResult:
        result = PassResult()
        outputs = {}
        with ExitStack() as stack:
            if probe is not None:
                probe.install(stack)
            for cell in order:
                try:
                    with self._timed(result):
                        outputs[cell] = cpu_mod.run_image(self.images[cell],
                                                          step_limit=STEP_LIMIT)
                except Exception as exc:  # an op failure to count, not a crash
                    outputs[cell] = exc
        *subjects, reference = self.workload.cells
        for cell in subjects:
            op = f"{cell.name}:semantics"
            got, want = outputs[cell], outputs[reference]
            result.digests[op] = digest(repr(got).encode())
            if isinstance(got, Exception) or isinstance(want, Exception):
                result.errors[op] = f"raised {got if isinstance(got, Exception) else want!r}"
            elif got != want:
                result.errors[op] = "(status, stdout) differs from the unobfuscated build"
            result.cells[cell.name] = {"status": got[0] if isinstance(got, tuple) else None,
                                       "output_digest": result.digests[op]}
        return result

    def _warm_pass(self, order, probe: Optional[LayerProbe]) -> PassResult:
        result = PassResult()
        with ExitStack() as stack:
            if probe is not None:
                probe.install(stack, cache=self.cache)
            loaded = []
            for cell in order:
                es, ss = ExtractionStats(), SubsumptionStats()
                try:
                    with self._timed(result):
                        records, survivors = run_pipeline(
                            self.images[cell], BENCH_EXTRACTION, jobs=1, cache=self.cache,
                            extraction_stats=es, winnow_stats=ss)
                except Exception as exc:  # an op failure to count, not a crash
                    result.digests[f"{cell.name}:warm"] = None
                    result.errors[f"{cell.name}:warm"] = f"raised {exc!r}"
                    continue
                loaded.append((cell, records, survivors, es.cache_hit and ss.cache_hit))
        for cell, records, survivors, hit in loaded:
            op = f"{cell.name}:warm"
            result.digests[op] = pools_digest(records, survivors)
            if not hit:
                result.errors[op] = "missed the cache"
            result.cells[cell.name] = {"pools_digest": result.digests[op],
                                       "records": len(records), "winnowed": len(survivors)}
        return result


def pools_digest(records, survivors) -> str:
    return digest(pool_to_bytes(records) + b"|" + pool_to_bytes(survivors))


# -- provenance -------------------------------------------------------------------


def _git_rev() -> Optional[str]:
    """HEAD of the repository this checkout is, or None outside one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(build_seed: int) -> dict:
    """Where a result came from, so a stale one can be detected."""
    configs = json.dumps({"extraction": dataclasses.asdict(BENCH_EXTRACTION),
                          "planner": dataclasses.asdict(BENCH_PLANNER)}, sort_keys=True)
    source = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": _git_rev(),
        "source_digest": source.hexdigest(),
        "pipeline_version": PIPELINE_VERSION,
        "bench_config_hash": digest(configs.encode()),
        "build_seed": build_seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
