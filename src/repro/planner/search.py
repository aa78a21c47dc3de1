"""The planning search — Algorithm 1.

Greedy best-first search over partial plans, backward from the goal:
pop the most promising partial plan, pick an open condition, generate a
successor per provider (existing step or fresh gadget), discard plans
with unsatisfiable constraints or unresolvable threats, output complete
plans, keep going until the queue empties or budgets run out — the
paper's planner "does not stop when finding one gadget chain".

The same (gadget, condition) question comes up again and again across
sibling plans, so one search asks it once: :class:`_Provisions` keeps
each answer for the rest of the search.  Plans carry their ordering
closure and constraint load with them (see :mod:`repro.planner.plan`),
so pushing and expanding a plan costs what the plan adds, not its size.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..gadgets.record import GadgetRecord
from ..isa.registers import reg_by_name
from ..obs import span
from ..solver.solver import Solver
from ..symex.expr import BVSym
from .conditions import (
    MemCondition,
    Provision,
    RegCondition,
    discharge_preconditions,
    provide_mem_condition,
    provide_reg_condition,
    regress_equation,
    target_provision,
)
from .goals import ResolvedGoal
from .library import ChainKind, GadgetLibrary
from .plan import GOAL_STEP, OpenCondition, PartialPlan


@dataclass
class PlannerConfig:
    """Search budgets and knobs."""

    max_nodes: int = 4000  # partial plans expanded
    max_plans: int = 12  # complete plans to emit per goal
    max_steps: int = 10  # gadget instances per plan
    providers_per_cond: int = 6  # branching factor cap
    max_goal_gadgets: int = 256  # syscall gadgets to seed from (dead seeds are cheap)
    allow_connectors: bool = True


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    plans_emitted: int = 0
    dead_ends: int = 0
    seeds: int = 0


class _Provisions:
    """One search's answers to "can this gadget provide this condition?".

    Maps (gadget, condition) to the result of
    :func:`~repro.planner.conditions.provide_reg_condition` or
    :func:`~repro.planner.conditions.provide_mem_condition`, which the
    caller must not mutate.  Asking again gives what asking the solver
    again would: a repeat query is a hit in the solver's own memo, which
    returns the first model and draws nothing from its RNG (so every
    later model is unchanged too), as long as that memo is not cleared
    at its ``memo_limit`` in between.  Gadgets are keyed by identity
    (records are unhashable); the library holds every one of them for
    the whole search.  ``misses`` counts the questions actually worked
    out.
    """

    def __init__(self, solver: Solver, locator=None) -> None:
        self.solver = solver
        self.locator = locator
        self.misses = 0
        self._memo: Dict[Tuple[int, object], Optional[Provision]] = {}

    def __call__(self, gadget: GadgetRecord, condition) -> Optional[Provision]:
        key = (id(gadget), condition)
        try:
            return self._memo[key]
        except KeyError:
            pass
        self.misses += 1
        if isinstance(condition, RegCondition):
            result = provide_reg_condition(gadget, condition, self.solver, locator=self.locator)
        else:
            result = provide_mem_condition(gadget, condition, self.solver)
        self._memo[key] = result
        return result


def _seed_plans(
    library: GadgetLibrary,
    resolved: ResolvedGoal,
    solver: Solver,
    config: PlannerConfig,
) -> List[PartialPlan]:
    """One initial plan per viable syscall gadget (Algorithm 1 line 4)."""
    seeds: List[PartialPlan] = []
    for goal_gadget in library.goal_gadgets[: config.max_goal_gadgets]:
        bindings: List = []
        open_regs: List[RegCondition] = []
        feasible = True
        for reg, value in resolved.reg_values.items():
            post = goal_gadget.post_regs[reg]
            provision = regress_equation(post, value, solver)
            if provision is None:
                feasible = False
                break
            bindings.extend(provision.bindings)
            open_regs.extend(provision.regressed)
        if not feasible:
            continue
        pre = discharge_preconditions(goal_gadget, solver)
        if pre is None:
            continue
        bindings.extend(pre.bindings)
        open_regs.extend(pre.regressed)
        mem_conds = [
            MemCondition(addr=addr, value=word)
            for mg in resolved.memory_goals
            for addr, word in mg.words()
        ]
        seeds.append(PartialPlan.initial(goal_gadget, open_regs, mem_conds, bindings))
    return seeds


def search_plans(
    library: GadgetLibrary,
    resolved: ResolvedGoal,
    *,
    solver: Optional[Solver] = None,
    config: Optional[PlannerConfig] = None,
    stats: Optional[SearchStats] = None,
    locator=None,
) -> Iterator[PartialPlan]:
    """Yield complete plans, best-first (Algorithm 1).

    ``locator`` (value → static address of those bytes, or None)
    enables data-reuse providers; see
    :func:`repro.planner.conditions.provide_reg_condition`.
    """
    solver = solver or Solver()
    config = config or PlannerConfig()
    stats = stats if stats is not None else SearchStats()

    provide = _Provisions(solver, locator)
    counter = itertools.count()
    queue: List = []

    def push(plan: PartialPlan) -> None:
        heapq.heappush(queue, (plan.priority_key(), next(counter), plan))

    # The span brackets the whole search, staying open across yields
    # (this is a generator); counters are stamped in the finally so an
    # abandoned search still reports the work it did.
    search_sp = span("plan.search")
    search_sp.__enter__()
    try:
        for seed in _seed_plans(library, resolved, solver, config):
            stats.seeds += 1
            push(seed)

        emitted = 0
        while queue and stats.nodes_expanded < config.max_nodes and emitted < config.max_plans:
            _, _, plan = heapq.heappop(queue)
            if plan.is_complete:
                emitted += 1
                stats.plans_emitted += 1
                yield plan
                continue
            stats.nodes_expanded += 1
            open_cond = plan.open_conds[0]
            successors = list(_expand(plan, open_cond, library, config, provide))
            if not successors:
                stats.dead_ends += 1
            for successor in successors:
                push(successor)
    finally:
        search_sp.add("seeds", stats.seeds)
        search_sp.add("nodes_expanded", stats.nodes_expanded)
        search_sp.add("provisions", provide.misses)
        search_sp.add("plans_emitted", stats.plans_emitted)
        search_sp.add("dead_ends", stats.dead_ends)
        search_sp.__exit__(None, None, None)


def _expand(
    plan: PartialPlan,
    open_cond: OpenCondition,
    library: GadgetLibrary,
    config: PlannerConfig,
    provide: _Provisions,
) -> Iterator[PartialPlan]:
    condition = open_cond.condition
    if isinstance(condition, RegCondition):
        yield from _expand_reg(plan, open_cond, condition, library, config, provide)
    elif isinstance(condition, MemCondition):
        yield from _expand_mem(plan, open_cond, condition, library, config, provide)
    else:  # pragma: no cover - no other condition kinds
        raise AssertionError(condition)


def _expand_reg(
    plan: PartialPlan,
    open_cond: OpenCondition,
    condition: RegCondition,
    library: GadgetLibrary,
    config: PlannerConfig,
    provide: _Provisions,
) -> Iterator[PartialPlan]:
    # (a) Reuse an existing step: either it already yields the value
    # (constant post), or it can be *made* to yield it by regressing
    # further entry conditions onto the same instance — how one ret2csu
    # dispatcher step provides rdi, rsi and rdx at once.
    for sid, step in plan.steps.items():
        if sid == open_cond.consumer or sid == GOAL_STEP:
            continue
        if condition.reg not in step.gadget.clob_regs:
            continue
        provision = provide(step.gadget, condition)
        if provision is None:
            continue
        already = plan.established_at(sid)
        if any(already.get(rc.reg, rc.value) != rc.value for rc in provision.regressed):
            continue  # conflicting demand on this instance's entry state
        new_regressed = tuple(
            rc for rc in provision.regressed if already.get(rc.reg) != rc.value
        )
        reused = plan.reuse_provider_step(
            sid, open_cond, tuple(provision.bindings), new_regressed
        )
        if reused is not None:
            yield reused
    # (b) Instantiate a fresh provider from the library.
    if plan.num_steps >= config.max_steps:
        return
    produced = 0
    for gadget in library.providers_for(condition.reg):
        if produced >= config.providers_per_cond:
            break
        kind = library.kind_of(gadget)
        if kind is ChainKind.CONNECTOR:
            if not config.allow_connectors:
                continue
            if plan.immediate_pre_goal is not None:
                continue
            if open_cond.consumer != GOAL_STEP:
                continue  # connectors only wire directly into the goal
        provision = provide(gadget, condition)
        if provision is None:
            continue
        regressed = list(provision.regressed)
        bindings = list(provision.bindings)
        if kind is ChainKind.CONNECTOR:
            # The connector's indirect jump must land on the goal gadget.
            goal_gadget = plan.steps[GOAL_STEP].gadget
            tp = target_provision(gadget, goal_gadget.location, provide.solver)
            if tp is None:
                # Target depends on a register: regress it as a condition.
                target = gadget.jump_target
                if isinstance(target, BVSym) and target.name.endswith("0"):
                    regressed.append(
                        RegCondition(reg=reg_by_name(target.name[:-1]), value=goal_gadget.location)
                    )
                else:
                    continue
            else:
                bindings.extend(tp.bindings)
                regressed.extend(tp.regressed)
        successor = plan.add_provider_step(gadget, open_cond, bindings, regressed)
        if successor is None:
            continue
        if kind is ChainKind.CONNECTOR:
            successor.immediate_pre_goal = successor._next_sid - 1
        produced += 1
        yield successor


def _expand_mem(
    plan: PartialPlan,
    open_cond: OpenCondition,
    condition: MemCondition,
    library: GadgetLibrary,
    config: PlannerConfig,
    provide: _Provisions,
) -> Iterator[PartialPlan]:
    if plan.num_steps >= config.max_steps:
        return
    produced = 0
    for gadget in library.writers:
        if produced >= config.providers_per_cond:
            break
        if library.kind_of(gadget) is ChainKind.CONNECTOR:
            continue  # keep write steps freely orderable
        provision = provide(gadget, condition)
        if provision is None:
            continue
        successor = plan.add_provider_step(
            gadget, open_cond, list(provision.bindings), list(provision.regressed)
        )
        if successor is not None:
            produced += 1
            yield successor
