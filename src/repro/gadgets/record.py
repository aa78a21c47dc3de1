"""Gadget records — the paper's Table II.

Each record is the "semantic metadata" produced for one symbolic path
through a gadget candidate: length, location, jump type, clobbered and
controlled registers, pre-condition (path constraints) and
post-condition (final register expressions, memory effects, and the
symbolic jump target)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..isa.instructions import Instruction
from ..isa.registers import ALL_REGS, Reg
from ..symex.executor import EndKind, PathSummary
from ..symex.expr import BV, Bool, free_symbols
from ..symex.state import MemRead, MemWrite, is_controlled_symbol, reg_sym


class JmpType(enum.Enum):
    """Table I's taxonomy of gadget-terminating transfers."""

    RET = "ret"
    UIJ = "uij"  # unconditional indirect jump (jmp reg / jmp [mem] / call reg)
    UDJ = "udj"  # gadget used/ended-through a direct jump (merged)
    CDJ = "cdj"  # conditional + direct
    CIJ = "cij"  # conditional + indirect
    SYSCALL = "syscall"


def _jmp_type(path: PathSummary) -> JmpType:
    conditional = path.conditional_jumps > 0
    if path.end is EndKind.SYSCALL:
        return JmpType.SYSCALL
    if path.end is EndKind.RET:
        if conditional:
            return JmpType.CIJ  # conditional path ending in ret: indirect family
        if path.merged_direct_jumps > 0:
            return JmpType.UDJ
        return JmpType.RET
    # Indirect endings (jmp reg / jmp [mem] / call reg).
    if conditional:
        return JmpType.CIJ
    if path.merged_direct_jumps > 0:
        return JmpType.UDJ
    return JmpType.UIJ


@dataclass
class GadgetRecord:
    """Table II: the complete semantic description of one gadget."""

    gadget_id: int
    location: int  # address of the first instruction
    length: int  # in bytes
    insns: List[Instruction]
    jmp_type: JmpType
    end: EndKind
    pre_cond: List[Bool]  # symbolic constraints required to traverse
    post_regs: Dict[Reg, BV]  # final register expressions
    jump_target: BV  # symbolic next-rip
    clob_regs: FrozenSet[Reg]  # registers whose content is overwritten
    ctrl_regs: FrozenSet[Reg]  # registers fully attacker-controllable
    stack_delta: Optional[int]  # rsp movement, when constant
    stack_smashed: bool
    mem_reads: List[MemRead]
    mem_writes: List[MemWrite]
    max_stack_offset: int  # deepest payload word consumed
    conditional_jumps: int
    merged_direct_jumps: int

    @property
    def num_insns(self) -> int:
        return len(self.insns)

    @property
    def has_side_memory_writes(self) -> bool:
        return any(w.stack_offset is None for w in self.mem_writes)

    def changed_regs(self) -> FrozenSet[Reg]:
        return self.clob_regs

    def describe(self) -> str:
        """A human-readable multi-line rendering (examples use this)."""
        lines = [f"gadget #{self.gadget_id} @ {self.location:#x} [{self.jmp_type.value}]"]
        lines += [f"    {insn}" for insn in self.insns]
        if self.pre_cond:
            lines.append("  pre:  " + " && ".join(str(c) for c in self.pre_cond))
        changed = {r: e for r, e in self.post_regs.items() if e != reg_sym(r)}
        for r, e in sorted(changed.items(), key=lambda kv: kv[0].value):
            lines.append(f"  post: {r} = {e}")
        lines.append(f"  jump: {self.jump_target}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"Gadget@{self.location:#x}({self.jmp_type.value},{self.num_insns} insns)"

    def to_bytes(self) -> bytes:
        """Canonical byte encoding (see :mod:`repro.pipeline.serialize`).

        Equal records produce equal bytes, and ``from_bytes`` restores a
        structurally identical record — the round-trip the persistent
        result cache relies on.
        """
        from ..pipeline.serialize import record_to_bytes

        return record_to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GadgetRecord":
        """Inverse of :meth:`to_bytes`."""
        from ..pipeline.serialize import record_from_bytes

        return record_from_bytes(blob)


def record_from_path(gadget_id: int, path: PathSummary) -> GadgetRecord:
    """Build a Table II record from one symbolic path summary."""
    state = path.state
    clobbered = frozenset(r for r in ALL_REGS if state.get(r) != reg_sym(r))
    controlled = frozenset(
        r
        for r in ALL_REGS
        if r != Reg.RSP
        and state.get(r) != reg_sym(r)
        and _fully_controlled(state.get(r))
    )
    length = sum(i.size for i in path.insns)
    return GadgetRecord(
        gadget_id=gadget_id,
        location=path.start_addr,
        length=length,
        insns=list(path.insns),
        jmp_type=_jmp_type(path),
        end=path.end,
        pre_cond=list(state.constraints),
        post_regs={r: state.get(r) for r in ALL_REGS},
        jump_target=path.jump_target,
        clob_regs=clobbered,
        ctrl_regs=controlled,
        stack_delta=state.rsp_offset(),
        stack_smashed=state.stack_smashed,
        mem_reads=list(state.mem_reads),
        mem_writes=list(state.mem_writes),
        max_stack_offset=state.max_stack_offset_read,
        conditional_jumps=path.conditional_jumps,
        merged_direct_jumps=path.merged_direct_jumps,
    )


def _fully_controlled(expr: BV) -> bool:
    """All free symbols are attacker-controlled payload words."""
    syms = free_symbols(expr)
    return bool(syms) and all(is_controlled_symbol(s) for s in syms)
