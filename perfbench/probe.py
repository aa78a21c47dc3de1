"""Per-layer probes for the benchmark's traced pass.

A :class:`LayerProbe` replaces each layer's public entry point, under the
name its caller looks it up by, with a wrapper that times and counts the
call, and puts the original back when the pass ends.  Nothing under
``src/`` is edited and no span is added there.  README.md maps each
wrapped entry point to its metrics.

Instruction counts come from an :class:`~repro.emulator.cpu.Emulator`
subclass put in place of the name ``Emulator`` in the two modules that
create one (``run_image`` and ``validate_payload``); the steps of each
emulator are read when the wrapped call returns.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack
from typing import Callable, Dict, List

import repro.emulator.cpu as cpu_mod
import repro.gadgets.extract as extract_mod
import repro.pipeline.parallel as parallel_mod
import repro.planner as planner_mod
import repro.planner.payload as payload_mod
from repro.pipeline.cache import ResultCache
from repro.pipeline.serialize import pool_to_bytes
from repro.planner.payload import AssemblyError
from repro.solver.solver import Solver

perf_counter = time.perf_counter


def patch(stack: ExitStack, owner, name: str, replacement) -> None:
    """Set ``owner.name`` to ``replacement`` until ``stack`` closes."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    stack.callback(setattr, owner, name, original)


class TimedSolver(Solver):
    """A :class:`Solver` whose public ``check`` records each call's wall time."""

    def __init__(self, check_seconds: List[float], **kwargs) -> None:
        super().__init__(**kwargs)
        self._check_seconds = check_seconds

    def check(self, constraints):
        t0 = perf_counter()
        try:
            return super().check(constraints)
        finally:
            self._check_seconds.append(perf_counter() - t0)


class LayerProbe:
    """Times and counts the layers' entry points over one traced pass."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.check_seconds: List[float] = []
        #: goal name -> payloads assembled for it, in the current cell
        self.assembled: Dict[str, int] = defaultdict(int)
        self._emulators: List = []

    # -- helpers ---------------------------------------------------------------

    def _timed(self, key: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += perf_counter() - t0

        return wrapper

    def _drain_steps(self) -> int:
        steps = sum(emu.steps for emu in self._emulators)
        self._emulators.clear()
        return steps

    def solver(self, **kwargs) -> TimedSolver:
        return TimedSolver(self.check_seconds, **kwargs)

    def add_solver(self, solver: Solver) -> None:
        """Fold one finished solver's public counters into the totals."""
        self.counts["solver.queries"] += solver.queries
        self.counts["solver.memo_hits"] += solver.memo_hits
        self.counts["solver.sat_calls"] += solver.sat_calls
        self.counts["solver.sat_conflicts"] += solver.sat_conflicts
        self.counts["solver.unknowns"] += solver.unknowns

    # -- installation ------------------------------------------------------------

    def install(self, stack: ExitStack, cache: ResultCache = None) -> None:
        """Wrap every entry point until ``stack`` closes."""
        probe = self
        patch(stack, extract_mod, "shared_decode_graph",
              self._timed("decode_graph", extract_mod.shared_decode_graph))

        scan = extract_mod.candidate_offsets

        def candidate_offsets(*args, **kwargs):
            t0 = perf_counter()
            candidates = scan(*args, **kwargs)
            probe.seconds["extract.scan"] += perf_counter() - t0
            probe.counts["extract.candidates"] += len(candidates)
            return candidates

        patch(stack, extract_mod, "candidate_offsets", candidate_offsets)

        class TimedWindowAnalyzer(extract_mod.WindowAnalyzer):
            def __init__(self, *args, **kwargs) -> None:
                t0 = perf_counter()
                super().__init__(*args, **kwargs)
                probe.seconds["extract.prefilter"] += perf_counter() - t0

            def reaches_transfer(self, addr: int) -> bool:
                t0 = perf_counter()
                kept = super().reaches_transfer(addr)
                probe.seconds["extract.prefilter"] += perf_counter() - t0
                if not kept:
                    probe.counts["extract.prefilter.culled"] += 1
                return kept

        patch(stack, extract_mod, "WindowAnalyzer", TimedWindowAnalyzer)

        symex = parallel_mod.run_candidates

        def run_candidates(executor, candidates, *args, **kwargs):
            t0 = perf_counter()
            records = symex(executor, candidates, *args, **kwargs)
            probe.seconds["extract.symex"] += perf_counter() - t0
            probe.counts["extract.symex.calls"] += len(candidates)
            probe.counts["extract.records"] += len(records)
            return records

        patch(stack, parallel_mod, "run_candidates", run_candidates)

        winnow = planner_mod.winnow_pool

        def winnow_pool(*args, **kwargs):
            t0 = perf_counter()
            survivors = winnow(*args, **kwargs)
            probe.seconds["winnow"] += perf_counter() - t0
            probe.counts["winnow.survivors"] += len(survivors)
            return survivors

        patch(stack, planner_mod, "winnow_pool", winnow_pool)

        buckets_of = parallel_mod.bucketize

        def bucketize(records):
            buckets = buckets_of(records)
            probe.counts["winnow.buckets"] += len(buckets)
            largest = max((len(b) for b in buckets), default=0)
            probe.counts["winnow.bucket_max"] = max(probe.counts["winnow.bucket_max"], largest)
            return buckets

        patch(stack, parallel_mod, "bucketize", bucketize)

        search = planner_mod.search_plans

        def search_plans(*args, **kwargs):
            # A generator: time every resumption over the full iteration.
            plans = search(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    plan = next(plans)
                except StopIteration:
                    probe.seconds["search"] += perf_counter() - t0
                    return
                probe.seconds["search"] += perf_counter() - t0
                yield plan

        patch(stack, planner_mod, "search_plans", search_plans)

        assemble = planner_mod.assemble_payload

        def assemble_payload(plan, resolved, *args, **kwargs):
            t0 = perf_counter()
            try:
                payload = assemble(plan, resolved, *args, **kwargs)
            except AssemblyError:
                probe.counts["assemble.errors"] += 1
                raise
            finally:
                probe.seconds["assemble"] += perf_counter() - t0
            probe.assembled[resolved.goal.name] += 1
            return payload

        patch(stack, planner_mod, "assemble_payload", assemble_payload)

        validate = planner_mod.validate_payload

        def validate_payload(*args, **kwargs):
            t0 = perf_counter()
            ok = validate(*args, **kwargs)
            probe.seconds["validate"] += perf_counter() - t0
            probe.counts["validate.calls"] += 1
            probe.counts["validate.insns"] += probe._drain_steps()
            return ok

        patch(stack, planner_mod, "validate_payload", validate_payload)

        emulate = cpu_mod.run_image

        def run_image(*args, **kwargs):
            t0 = perf_counter()
            result = emulate(*args, **kwargs)
            probe.seconds["emulate"] += perf_counter() - t0
            probe.counts["emulate.insns"] += probe._drain_steps()
            return result

        patch(stack, cpu_mod, "run_image", run_image)

        for module in (cpu_mod, payload_mod):
            class CountingEmulator(module.Emulator):
                def __init__(self, *args, **kwargs) -> None:
                    super().__init__(*args, **kwargs)
                    probe._emulators.append(self)

            patch(stack, module, "Emulator", CountingEmulator)

        if cache is not None:
            load = cache.load_pool

            def load_pool(*args, **kwargs):
                t0 = perf_counter()
                hit = load(*args, **kwargs)
                probe.seconds["cache.load"] += perf_counter() - t0
                if hit is not None:
                    probe.counts["cache.bytes_read"] += len(pool_to_bytes(hit[0]))
                return hit

            # An instance attribute shadows the method for this cache only.
            cache.load_pool = load_pool
            stack.callback(delattr, cache, "load_pool")
