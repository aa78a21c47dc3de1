"""SGC-like baseline: solver-backed bounded synthesis.

Models the strategy of SGC (the paper's strongest peer): encode the
desired pre/post state as logical formulas, select a reduced candidate
pool per goal register ("a gadget selection function to reduce the
search area"), and query an SMT solver for a consistent assignment.
More capable than angrop — it solves non-trivial value equations
(``pop rax; add rax, 5; ret`` can set ``rax``) and uses indirect-jump
gadgets — but it has no notion of conditional gadgets, no direct-jump
merging, no regression through register moves, and a bounded
enumeration budget.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..binfmt.image import BinaryImage
from ..isa.registers import Reg
from ..solver.solver import Solver
from ..symex.executor import EndKind
from ..symex.expr import free_symbols
from ..symex.state import is_controlled_symbol
from ..gadgets.extract import ExtractionConfig
from ..gadgets.record import GadgetRecord
from ..pipeline import extract_pool
from ..planner.conditions import regress_equation
from ..planner.goals import ResolvedGoal
from ..planner.payload import AttackPayload, AssemblyError, assemble_payload
from ..planner.plan import GOAL_STEP, CausalLink, PartialPlan, Step
from ..planner.conditions import RegCondition
from .common import BaselineTool


def _usable(gadget: GadgetRecord) -> bool:
    if gadget.stack_smashed or gadget.pre_cond:
        return False
    if gadget.conditional_jumps or gadget.merged_direct_jumps:
        return False
    if gadget.stack_delta is None:
        return False
    if gadget.end is EndKind.RET:
        syms = free_symbols(gadget.jump_target)
        return bool(syms) and all(is_controlled_symbol(s) for s in syms)
    if gadget.end in (EndKind.JMP_REG, EndKind.JMP_MEM, EndKind.CALL_REG):
        syms = free_symbols(gadget.jump_target)
        return bool(syms) and all(is_controlled_symbol(s) for s in syms)
    return gadget.end is EndKind.SYSCALL


class SGCLike(BaselineTool):
    """Bounded solver-backed chain synthesis."""

    name = "sgc"

    def __init__(
        self,
        extraction: Optional[ExtractionConfig] = None,
        *,
        max_candidates_per_reg: int = 4,
        max_combinations: int = 64,
        max_chains_per_goal: int = 4,
    ):
        self.extraction = extraction or ExtractionConfig(
            include_conditional=False, merge_direct_jumps=False
        )
        self.solver = Solver()
        self.max_candidates_per_reg = max_candidates_per_reg
        self.max_combinations = max_combinations
        self.max_chains_per_goal = max_chains_per_goal

    def find_gadgets(self, image: BinaryImage) -> List[GadgetRecord]:
        return extract_pool(image, self.extraction)

    # -- gadget selection -----------------------------------------------------

    def _providers(self, gadgets: Sequence[GadgetRecord], reg: Reg, value: int):
        out = []
        for g in gadgets:
            if not _usable(g) or g.end is EndKind.SYSCALL:
                continue
            if reg not in g.clob_regs:
                continue
            provision = regress_equation(g.post_regs[reg], value, self.solver, max_regressed_regs=0)
            if provision is None:
                continue
            out.append((g, provision.bindings))
            if len(out) >= self.max_candidates_per_reg:
                break
        return out

    def _writers(self, gadgets: Sequence[GadgetRecord], addr: int, value: int):
        out = []
        for g in gadgets:
            if not _usable(g) or g.end is EndKind.SYSCALL:
                continue
            side = [w for w in g.mem_writes if w.stack_offset is None and w.width == 8]
            if len(side) != 1:
                continue
            write = side[0]
            addr_p = regress_equation(write.addr, addr, self.solver, max_regressed_regs=1)
            value_p = regress_equation(write.value, value, self.solver, max_regressed_regs=1)
            if addr_p is None or value_p is None:
                continue
            out.append((g, addr_p, value_p))
            if len(out) >= 2:
                break
        return out

    # -- chaining ------------------------------------------------------------------

    def build_chains(
        self, image: BinaryImage, gadgets: List[GadgetRecord], resolved: ResolvedGoal
    ) -> List[AttackPayload]:
        syscall_gadgets = [
            g for g in gadgets if g.end is EndKind.SYSCALL and _usable(g) and g.num_insns <= 2
        ]
        if not syscall_gadgets or resolved.memory_goals and not self._memory_plan_possible(
            gadgets, resolved
        ):
            return []
        goal_regs = list(resolved.reg_values.items())
        candidate_sets = []
        for reg, value in goal_regs:
            providers = self._providers(gadgets, reg, value)
            if not providers:
                return []
            candidate_sets.append(providers)

        payloads: List[AttackPayload] = []
        combos = itertools.islice(itertools.product(*candidate_sets), self.max_combinations)
        for combo in combos:
            plan = self._plan_from_combo(syscall_gadgets[0], goal_regs, combo, gadgets, resolved)
            if plan is None:
                continue
            try:
                payload = assemble_payload(plan, resolved, solver=self.solver)
            except AssemblyError:
                continue
            payloads.append(payload)
            if len(payloads) >= self.max_chains_per_goal:
                break
        return payloads

    def _memory_plan_possible(self, gadgets, resolved) -> bool:
        for mg in resolved.memory_goals:
            for addr, word in mg.words():
                if not self._writers(gadgets, addr, word):
                    return False
        return True

    def _plan_from_combo(
        self,
        syscall_gadget: GadgetRecord,
        goal_regs: List[Tuple[Reg, int]],
        combo,
        gadgets: Sequence[GadgetRecord],
        resolved: ResolvedGoal,
    ) -> Optional[PartialPlan]:
        """Build a complete, totally-ordered PartialPlan for assembly."""
        steps: Dict[int, Step] = {GOAL_STEP: Step(GOAL_STEP, syscall_gadget)}
        bindings: Dict[int, Tuple] = {GOAL_STEP: ()}
        links: List[CausalLink] = []
        chain_order: List[int] = []
        sid = 1

        # Memory goals first (fixed order, solver-matched writers).
        for mg in resolved.memory_goals:
            for addr, word in mg.words():
                writers = self._writers(gadgets, addr, word)
                if not writers:
                    return None
                writer, addr_p, value_p = writers[0]
                regressed = {rc.reg: rc.value for rc in addr_p.regressed + value_p.regressed}
                provider_sids: List[Tuple[int, Reg, int]] = []
                feasible = True
                for reg, value in regressed.items():
                    providers = self._providers(gadgets, reg, value)
                    if not providers:
                        feasible = False
                        break
                    pg, pbind = providers[0]
                    steps[sid] = Step(sid, pg)
                    bindings[sid] = tuple(pbind)
                    chain_order.append(sid)
                    provider_sids.append((sid, reg, value))
                    sid += 1
                if not feasible:
                    return None
                writer_sid = sid
                steps[writer_sid] = Step(writer_sid, writer)
                bindings[writer_sid] = tuple(addr_p.bindings + value_p.bindings)
                chain_order.append(writer_sid)
                sid += 1
                for psid, reg, value in provider_sids:
                    links.append(CausalLink(psid, writer_sid, RegCondition(reg, value)))

        # One provider per goal register; order = given, conflict-checked.
        for (reg, value), (gadget, gbind) in zip(goal_regs, combo):
            steps[sid] = Step(sid, gadget)
            bindings[sid] = tuple(gbind)
            links.append(CausalLink(sid, GOAL_STEP, RegCondition(reg, value)))
            chain_order.append(sid)
            sid += 1

        # Static clobber check: no later step may clobber an established reg.
        established: Dict[Reg, int] = {}
        position = {s: i for i, s in enumerate(chain_order)}
        for link in links:
            if link.consumer == GOAL_STEP:
                provider_pos = position[link.provider]
                for other in chain_order[provider_pos + 1 :]:
                    if steps[other].gadget is not steps[link.provider].gadget and link.condition.reg in steps[other].gadget.clob_regs:
                        return None
            else:
                provider_pos = position[link.provider]
                consumer_pos = position.get(link.consumer)
                if consumer_pos is None:
                    return None
                for other in chain_order[provider_pos + 1 : consumer_pos]:
                    if link.condition.reg in steps[other].gadget.clob_regs:
                        return None

        orderings = set()
        for a, b in zip(chain_order, chain_order[1:]):
            orderings.add((a, b))
        for s in chain_order:
            orderings.add((s, GOAL_STEP))
        return PartialPlan(
            steps=steps,
            orderings=frozenset(orderings),
            links=tuple(links),
            open_conds=(),
            bindings=bindings,
        )
