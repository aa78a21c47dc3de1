"""Condition regression: how a gadget can *provide* a needed condition.

The planner works backward from the goal (Sec. IV-D): it picks an open
condition — "register R must hold value V at this step's entry" or
"address A must hold value V in memory" — and asks, for each gadget,
whether executing that gadget can establish it.  The answer has three
ingredients:

* **bindings**: constraints over the gadget's *payload words* (its
  local ``stk<k>`` symbols), solved when the payload is assembled;
* **regressed conditions**: values that *other registers* must hold at
  the gadget's entry (e.g. ``mov rdi, rax`` provides ``rdi == V``
  but regresses the need to ``rax == V``);
* the gadget's own **pre-conditions** (its path constraints), which are
  discharged the same way.

Gadgets whose relevant expressions depend on wild memory or unknown
initial flags cannot provide conditions reliably and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.registers import Reg, reg_by_name
from ..solver.solver import Solver
from ..symex.expr import (
    BV,
    BVConst,
    BVSym,
    Bool,
    BoolConst,
    bv_const,
    bv_eq,
    bv_sym,
    free_symbols,
    substitute,
)
from ..symex.invert import solve_for
from ..symex.state import is_controlled_symbol
from ..gadgets.record import GadgetRecord


@dataclass(frozen=True)
class RegCondition:
    """Register ``reg`` must hold ``value`` at the consumer's entry."""

    reg: Reg
    value: int

    def __str__(self) -> str:
        return f"{self.reg} == {self.value:#x}"


@dataclass(frozen=True)
class MemCondition:
    """The 64-bit word at ``addr`` must hold ``value`` before the goal."""

    addr: int
    value: int

    def __str__(self) -> str:
        return f"[{self.addr:#x}] == {self.value:#x}"


Condition = object  # RegCondition | MemCondition


@dataclass
class Provision:
    """The result of successfully regressing a condition through a gadget."""

    bindings: List[Bool] = field(default_factory=list)  # over local stk syms
    regressed: List[RegCondition] = field(default_factory=list)

    def merged_with(self, other: "Provision") -> "Provision":
        return Provision(
            bindings=self.bindings + other.bindings,
            regressed=self.regressed + other.regressed,
        )


def _classify_symbols(syms) -> Tuple[List[str], List[str], bool]:
    """Split free symbols into (controlled stack, initial registers, ok)."""
    stack: List[str] = []
    regs: List[str] = []
    for s in syms:
        if is_controlled_symbol(s):
            stack.append(s)
        elif s.endswith("0") and not s.startswith(("mem", "flag_", "stk")):
            regs.append(s)
        else:
            return [], [], False  # wild memory / flags / uncontrolled stack
    return stack, regs, True


def _reg_from_symbol(name: str) -> Reg:
    return reg_by_name(name[:-1])


def regress_equation(
    expr: BV,
    target: int,
    solver: Solver,
    *,
    max_regressed_regs: int = 2,
) -> Optional[Provision]:
    """Make ``expr == target`` achievable: bind payload words, regress regs.

    Returns None when the equation is unachievable or depends on
    uncontrollable inputs.
    """
    if isinstance(expr, BVConst):
        return Provision() if expr.value == target & ((1 << 64) - 1) else None
    syms = free_symbols(expr)
    stack_syms, reg_syms, ok = _classify_symbols(syms)
    if not ok or len(reg_syms) > max_regressed_regs:
        return None
    # Fast path: a single-variable invertible chain needs no solver.
    if len(syms) == 1:
        inverted = solve_for(expr, target)
        if inverted is not None:
            name, value = inverted
            if stack_syms:
                return Provision(bindings=[bv_eq(bv_sym(name), bv_const(value))])
            if max_regressed_regs < 1:
                return None
            return Provision(regressed=[RegCondition(reg=_reg_from_symbol(name), value=value)])
    equation = bv_eq(expr, bv_const(target))
    if not reg_syms:
        # Purely payload-driven: record the binding if satisfiable.
        result = solver.check([equation])
        if not result.is_sat:
            return None
        return Provision(bindings=[equation])
    # Mixed: pick witness values for the registers from a model, then
    # keep the payload residual symbolic.
    result = solver.check([equation])
    if not result.is_sat:
        return None
    reg_subst: Dict[str, BV] = {}
    regressed: List[RegCondition] = []
    for name in sorted(reg_syms):
        value = result.model.get(name, 0)
        reg_subst[name] = bv_const(value)
        regressed.append(RegCondition(reg=_reg_from_symbol(name), value=value))
    residual = substitute(equation, reg_subst)
    bindings: List[Bool] = []
    if isinstance(residual, BoolConst):
        if not residual.value:
            return None
    else:
        bindings.append(residual)
    return Provision(bindings=bindings, regressed=regressed)


def discharge_preconditions(
    gadget: GadgetRecord,
    solver: Solver,
    *,
    max_regressed_regs: int = 2,
) -> Optional[Provision]:
    """Turn a gadget's path constraints into bindings + entry conditions."""
    if not gadget.pre_cond:
        return Provision()
    all_syms = set()
    for c in gadget.pre_cond:
        all_syms |= free_symbols(c)
    stack_syms, reg_syms, ok = _classify_symbols(all_syms)
    if not ok or len(reg_syms) > max_regressed_regs:
        return None
    result = solver.check(list(gadget.pre_cond))
    if not result.is_sat:
        return None
    if not reg_syms:
        return Provision(bindings=list(gadget.pre_cond))
    reg_subst = {}
    regressed = []
    for name in sorted(reg_syms):
        value = result.model.get(name, 0)
        reg_subst[name] = bv_const(value)
        regressed.append(RegCondition(reg=_reg_from_symbol(name), value=value))
    bindings = []
    for c in gadget.pre_cond:
        residual = substitute(c, reg_subst)
        if isinstance(residual, BoolConst):
            if not residual.value:
                return None
        else:
            bindings.append(residual)
    return Provision(bindings=bindings, regressed=regressed)


def provide_reg_condition(
    gadget: GadgetRecord,
    cond: RegCondition,
    solver: Solver,
    locator=None,
) -> Optional[Provision]:
    """Can executing ``gadget`` establish ``cond`` at its exit?

    ``locator`` (value → static address holding that 64-bit word, or
    None) enables the classic *data-reuse* technique: a gadget whose
    post-value is a memory load through a controllable pointer (e.g.
    ``mov rax, [rbp-16]; ... ret`` with rbp settable via ``pop rbp``)
    provides any value that exists somewhere in the binary image —
    point the pointer at the known bytes.
    """
    post = gadget.post_regs.get(cond.reg)
    if post is None:
        return None
    provision = regress_equation(post, cond.value, solver)
    if provision is None and locator is not None:
        provision = _provide_via_known_bytes(gadget, post, cond.value, solver, locator)
    if provision is None:
        return None
    pre = discharge_preconditions(gadget, solver)
    if pre is None:
        return None
    return provision.merged_with(pre)


def _provide_via_known_bytes(
    gadget: GadgetRecord,
    post,
    target: int,
    solver: Solver,
    locator,
) -> Optional[Provision]:
    """Data-reuse: make a wild-load post-value equal ``target`` by
    steering the load address at known image bytes."""
    if not isinstance(post, BVSym) or not post.name.startswith("mem"):
        return None
    read = next(
        (
            r
            for r in gadget.mem_reads
            if isinstance(r.value_sym, BVSym)
            and r.value_sym.name == post.name
            and r.width == 8
        ),
        None,
    )
    if read is None:
        return None
    address = locator(target)
    if address is None:
        return None
    return regress_equation(read.addr, address, solver)


def provide_mem_condition(
    gadget: GadgetRecord,
    cond: MemCondition,
    solver: Solver,
) -> Optional[Provision]:
    """Can this gadget write ``value`` to ``addr``? (write-what-where)."""
    for write in gadget.mem_writes:
        if write.stack_offset is not None or write.width != 8:
            continue
        addr_prov = regress_equation(write.addr, cond.addr, solver)
        if addr_prov is None:
            continue
        value_prov = regress_equation(write.value, cond.value, solver)
        if value_prov is None:
            continue
        pre = discharge_preconditions(gadget, solver)
        if pre is None:
            continue
        merged = addr_prov.merged_with(value_prov).merged_with(pre)
        # Conflicting regressed values for one register → impossible.
        values: Dict[Reg, int] = {}
        consistent = True
        for rc in merged.regressed:
            if values.setdefault(rc.reg, rc.value) != rc.value:
                consistent = False
                break
        if consistent:
            return merged
    return None


def target_provision(
    gadget: GadgetRecord,
    next_addr: int,
    solver: Solver,
) -> Optional[Provision]:
    """Constrain an indirect gadget's jump target to ``next_addr``."""
    return regress_equation(gadget.jump_target, next_addr, solver)
