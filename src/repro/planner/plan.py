"""Partial plan representation — the paper's (α, β, γ, δ, ε) tuple.

* α — :attr:`PartialPlan.steps`: gadget instances selected so far;
* β — :attr:`PartialPlan.orderings`: pairs (before, after), kept
  together with their transitive closure, so "must s come before t?"
  is a set lookup;
* γ — :attr:`PartialPlan.links`: causal links (provider, consumer, condition);
* δ — :attr:`PartialPlan.open_conds`: conditions not yet fulfilled;
* ε — threats are resolved eagerly on every mutation (promotion /
  demotion, Sec. IV-D "Unsafe Causal Link Elimination"); a plan that
  cannot resolve a threat is discarded by returning ``None``.

A mutation returns a fresh plan and leaves its parent as it was.  It
pays only for what it adds: the ordering closure gains the new edge,
the threat scan visits only the pairs the new step or link creates
(:meth:`PartialPlan.resolve_threats` says why that is exact), and the
constraint load gains the size of the new bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.registers import Reg
from ..symex.expr import Bool, expr_size
from ..gadgets.record import GadgetRecord
from .conditions import MemCondition, RegCondition

GOAL_STEP = 0  # the goal (syscall) step always has id 0


@dataclass(frozen=True)
class Step:
    sid: int
    gadget: GadgetRecord

    def clobbers(self, reg: Reg) -> bool:
        return reg in self.gadget.clob_regs

    def __str__(self) -> str:
        return f"s{self.sid}:{self.gadget}"


@dataclass(frozen=True)
class CausalLink:
    provider: int
    consumer: int
    condition: RegCondition

    def __str__(self) -> str:
        return f"s{self.provider} --[{self.condition}]--> s{self.consumer}"


@dataclass(frozen=True)
class OpenCondition:
    consumer: int
    condition: object  # RegCondition | MemCondition

    def __str__(self) -> str:
        return f"{self.condition} @ s{self.consumer}"


@dataclass
class PartialPlan:
    """One (possibly incomplete) attack plan."""

    steps: Dict[int, Step]
    orderings: FrozenSet[Tuple[int, int]]
    links: Tuple[CausalLink, ...]
    open_conds: Tuple[OpenCondition, ...]
    #: Per-step payload-word constraints (local stk syms of that step).
    bindings: Dict[int, Tuple[Bool, ...]]
    #: Step that must immediately precede the goal (indirect connector).
    immediate_pre_goal: Optional[int] = None
    _next_sid: int = 1
    #: Transitive closure of β: sid → the steps strictly after it.
    #: Derived from ``orderings`` when not given.
    _after: Optional[Dict[int, FrozenSet[int]]] = None
    #: :meth:`constraint_load`, kept up to date; derived when not given.
    _load: Optional[int] = None

    def __post_init__(self) -> None:
        if self._after is None:
            self._after = _closure(self.steps, self.orderings)
        if self._load is None:
            self._load = sum(_size(cs) for cs in self.bindings.values())

    # -- constructors -----------------------------------------------------

    @classmethod
    def initial(
        cls,
        goal_gadget: GadgetRecord,
        goal_conds: List[RegCondition],
        mem_conds: List[MemCondition],
        goal_bindings: List[Bool],
    ) -> "PartialPlan":
        goal_step = Step(sid=GOAL_STEP, gadget=goal_gadget)
        opens = tuple(OpenCondition(GOAL_STEP, c) for c in goal_conds) + tuple(
            OpenCondition(GOAL_STEP, c) for c in mem_conds
        )
        return cls(
            steps={GOAL_STEP: goal_step},
            orderings=frozenset(),
            links=(),
            open_conds=opens,
            bindings={GOAL_STEP: tuple(goal_bindings)},
        )

    def clone(self) -> "PartialPlan":
        return PartialPlan(
            steps=dict(self.steps),
            orderings=self.orderings,
            links=self.links,
            open_conds=self.open_conds,
            bindings=dict(self.bindings),
            immediate_pre_goal=self.immediate_pre_goal,
            _next_sid=self._next_sid,
            _after=dict(self._after),
            _load=self._load,
        )

    # -- ordering machinery ------------------------------------------------

    def can_order(self, before: int, after: int) -> bool:
        """Would adding before<after keep the orderings acyclic?"""
        return before != after and before not in self._after[after]

    def _order(self, before: int, after: int) -> None:
        """Add before<after to β and to its closure, in place.

        Only for a plan no one else holds yet (a fresh clone)."""
        self.orderings = self.orderings | {(before, after)}
        closure = self._after
        later = closure[after] | {after}
        for sid, succ in closure.items():
            if (sid == before or before in succ) and not later <= succ:
                closure[sid] = succ | later

    def with_ordering(self, before: int, after: int) -> Optional["PartialPlan"]:
        if (before, after) in self.orderings:
            return self
        if not self.can_order(before, after):
            return None
        new = self.clone()
        new._order(before, after)
        return new

    def possibly_between(self, step: int, before: int, after: int) -> bool:
        """Could ``step`` be linearized strictly between before and after?"""
        if step in (before, after):
            return False
        if before in self._after[step]:
            return False  # step must come before `before`
        if step in self._after[after]:
            return False  # step must come after `after`
        return True

    # -- threat resolution ----------------------------------------------------

    def resolve_threats(self, new_step: Optional[int], new_link: bool) -> Optional["PartialPlan"]:
        """Order away every unsafe causal link (ε elimination), in place.

        A link p --[reg]--> c is threatened by a step s ∉ {p, c} that
        clobbers reg and could sit between them.  The threat is resolved
        by forcing c<s (demotion) or else s<p (promotion); a threat that
        allows neither kills the plan, and None is returned.

        Only the pairs the last mutation created are visited: each link
        with ``new_step`` (a step just added, or None), and the last link
        (when ``new_link``) with each step.  The new step is the last in
        :attr:`steps` and the new link the last in :attr:`links`, so
        this is the (link, step) order a full scan visits them in.  That
        is exact.  The plan was grown from a threat-free one, as every
        plan this module returns is, and a mutation only adds orderings,
        which can only shrink :meth:`possibly_between`: a pair that was
        safe stays safe.  For the same reason a pair stays resolved once
        it is, so one pass makes the same resolutions, in the same order,
        as rescanning every pair from the start after each of them.
        Call it on a fresh plan only.
        """
        links = self.links
        if new_step is not None:
            for link in links[:-1] if new_link else links:
                if not self._guard(link, new_step):
                    return None
        if new_link:
            for sid in self.steps:
                if not self._guard(links[-1], sid):
                    return None
        return self

    def _guard(self, link: CausalLink, sid: int) -> bool:
        """Resolve any threat of step ``sid`` to ``link``; False if it cannot be."""
        if not self.steps[sid].clobbers(link.condition.reg):
            return True
        if not self.possibly_between(sid, link.provider, link.consumer):
            return True
        if self.can_order(link.consumer, sid):
            self._order(link.consumer, sid)  # demotion
        elif self.can_order(sid, link.provider):
            self._order(sid, link.provider)  # promotion
        else:
            return False
        return True

    # -- step addition ------------------------------------------------------------

    def add_provider_step(
        self,
        gadget: GadgetRecord,
        open_cond: OpenCondition,
        bindings: List[Bool],
        regressed: List[RegCondition],
    ) -> Optional["PartialPlan"]:
        """Insert a fresh step providing ``open_cond``."""
        new = self.clone()
        sid = new._next_sid
        new._next_sid += 1
        new.steps[sid] = Step(sid=sid, gadget=gadget)
        new._after[sid] = frozenset()
        new._order(sid, open_cond.consumer)
        new_link = isinstance(open_cond.condition, RegCondition)
        if new_link:
            new.links = new.links + (
                CausalLink(provider=sid, consumer=open_cond.consumer, condition=open_cond.condition),
            )
        new.open_conds = tuple(c for c in new.open_conds if c is not open_cond) + tuple(
            OpenCondition(sid, rc) for rc in regressed
        )
        new.bindings[sid] = tuple(bindings)
        new._load += _size(bindings)
        return new.resolve_threats(sid, new_link)

    def reuse_provider_step(
        self,
        sid: int,
        open_cond: OpenCondition,
        extra_bindings: Tuple[Bool, ...] = (),
        extra_regressed: Tuple[RegCondition, ...] = (),
    ) -> Optional["PartialPlan"]:
        """Link an existing step as provider for ``open_cond``.

        A multi-effect gadget instance (e.g. the ret2csu ``mov rdx, r14;
        mov rsi, r13; mov rdi, r12; call r15`` dispatcher) provides
        several conditions from one step: each reuse may contribute
        further payload bindings and regress further entry conditions.
        """
        if not self.can_order(sid, open_cond.consumer):
            return None
        new = self.clone()
        new._order(sid, open_cond.consumer)
        new_link = isinstance(open_cond.condition, RegCondition)
        if new_link:
            new.links = new.links + (
                CausalLink(provider=sid, consumer=open_cond.consumer, condition=open_cond.condition),
            )
        new.open_conds = tuple(c for c in new.open_conds if c is not open_cond) + tuple(
            OpenCondition(sid, rc) for rc in extra_regressed
        )
        if extra_bindings:
            new.bindings[sid] = tuple(new.bindings.get(sid, ())) + tuple(extra_bindings)
            new._load += _size(extra_bindings)
        return new.resolve_threats(None, new_link)

    def established_at(self, sid: int) -> Dict[Reg, int]:
        """Register values already demanded at step ``sid``'s entry."""
        out: Dict[Reg, int] = {}
        for link in self.links:
            if link.consumer == sid:
                out[link.condition.reg] = link.condition.value
        for oc in self.open_conds:
            if oc.consumer == sid and isinstance(oc.condition, RegCondition):
                out[oc.condition.reg] = oc.condition.value
        return out

    # -- introspection --------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return not self.open_conds

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def constraint_load(self) -> int:
        """Total constraint size — the paper's second heuristic key."""
        return self._load

    def priority_key(self) -> Tuple[int, int, int]:
        """Heuristic ordering: fewest open conditions, then fewest/simplest
        constraints, then fewest steps (Sec. IV-D "Heuristics")."""
        return (len(self.open_conds), self.constraint_load(), self.num_steps)

    def established_values(self) -> Dict[int, Dict[Reg, int]]:
        """Per-consumer register values guaranteed by causal links."""
        out: Dict[int, Dict[Reg, int]] = {}
        for link in self.links:
            out.setdefault(link.consumer, {})[link.condition.reg] = link.condition.value
        return out

    def linearize(self) -> Optional[List[int]]:
        """A total order consistent with β, goal last, connector adjacent.

        Returns step ids in execution order (goal step included, last),
        or None when constraints cannot be met.
        """
        sids = [s for s in self.steps if s != GOAL_STEP]
        adjacency: Dict[int, Set[int]] = {s: set() for s in self.steps}
        indegree: Dict[int, int] = {s: 0 for s in self.steps}
        for a, b in self.orderings:
            if b not in adjacency[a]:
                adjacency[a].add(b)
                indegree[b] += 1
        # Kahn's algorithm; defer the connector and the goal as long as
        # possible so the connector lands immediately before the goal.
        order: List[int] = []
        ready = [s for s in self.steps if indegree[s] == 0]
        deferred = {GOAL_STEP, self.immediate_pre_goal} - {None}
        while ready:
            # Deferred steps go last; among them the goal goes very last.
            ready.sort(key=lambda s: (s in deferred, s == GOAL_STEP, s))
            node = ready.pop(0)
            order.append(node)
            for nxt in adjacency[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.steps):
            return None  # cycle (should not happen)
        if order[-1] != GOAL_STEP:
            return None
        if self.immediate_pre_goal is not None and len(order) >= 2:
            if order[-2] != self.immediate_pre_goal:
                return None
        return order


def _size(constraints) -> int:
    return sum(expr_size(c) for c in constraints)


def _closure(
    steps: Dict[int, Step], orderings: FrozenSet[Tuple[int, int]]
) -> Dict[int, FrozenSet[int]]:
    """sid → every step reachable from it along ``orderings``."""
    successors: Dict[int, Set[int]] = {sid: set() for sid in steps}
    for a, b in orderings:
        successors.setdefault(a, set()).add(b)
    closure: Dict[int, FrozenSet[int]] = {}
    for sid, direct in successors.items():
        seen: Set[int] = set()
        stack = list(direct)
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(successors.get(node, ()))
        closure[sid] = frozenset(seen)
    return closure
