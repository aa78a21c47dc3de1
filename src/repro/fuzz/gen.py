"""Seeded input generators for the differential fuzzer.

Four families:

* :func:`gen_program` — well-formed mini-C programs whose only output
  is a self-checksum ``print``, suitable for cross-config equivalence;
* :func:`gen_bytes` — raw byte images (unaligned-decode stress);
* :func:`gen_window` — laid-out instruction windows ending in an
  indirect transfer (the gadget-chain shape extraction consumes);
* :func:`gen_constraints` — solver queries that hide a complementary
  pair of comparisons behind operand swaps, strict/non-strict flips
  and ``not`` wrappers.

Everything is driven by an explicit ``random.Random`` so a campaign
iteration is reproducible from ``(seed, iteration, oracle)`` alone.

Windows round-trip through :func:`spec_of` / :func:`relayout` so the
shrinker can drop instructions and re-target conditional jumps without
leaving the well-formed subset.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Tuple

from ..binfmt.image import DATA_BASE, TEXT_BASE
from ..isa.encoding import encode_program
from ..isa.instructions import Instruction, Op
from ..isa.registers import Reg
from ..symex.expr import (
    BV,
    BVConst,
    Bool,
    BoolConn,
    BoolExpr,
    Cmp,
    CmpOp,
    bool_and,
    bool_or,
    bv_add,
    bv_and,
    bv_const,
    bv_mul,
    bv_neg,
    bv_not,
    bv_or,
    bv_shl,
    bv_sub,
    bv_sym,
    bv_udiv,
    bv_umod,
    bv_xor,
    cmp,
)

#: (instruction, jcc-target-item-index-or-None) — the editable form.
WindowSpec = List[Tuple[Instruction, Optional[int]]]

#: Registers the generator prefers as operands (RSP only via memory
#: forms, so most windows keep a constant-offset stack pointer).
_GP_REGS = [Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI, Reg.R8, Reg.R9]

_COND_OPS = [Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.JB, Op.JBE, Op.JA, Op.JAE, Op.JS, Op.JNS]

_TERMINATORS = [Op.RET, Op.RET, Op.RET, Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL]


def spec_of(insns: List[Instruction]) -> WindowSpec:
    """Recover the editable spec from laid-out instructions.

    Direct-jump targets that land on an instruction in the list become
    item indices (len(insns) = "just past the end"); targets outside
    the window stay encoded in ``rel`` untouched (target index None).
    """
    addr_to_idx = {i.addr: k for k, i in enumerate(insns)}
    end = insns[-1].end if insns else 0
    spec: WindowSpec = []
    for insn in insns:
        target: Optional[int] = None
        if insn.is_cond_jump() or insn.op in (Op.JMP_REL, Op.CALL_REL):
            if insn.target in addr_to_idx:
                target = addr_to_idx[insn.target]
            elif insn.target == end:
                target = len(insns)
        spec.append((insn, target))
    return spec


def relayout(spec: WindowSpec, base: int = TEXT_BASE) -> List[Instruction]:
    """Assign addresses from ``base`` and recompute indexed jump rels."""
    sizes = [item[0].size for item in spec]
    addrs: List[int] = []
    cursor = base
    for size in sizes:
        addrs.append(cursor)
        cursor += size
    out: List[Instruction] = []
    for k, (insn, target) in enumerate(spec):
        new = replace(insn, addr=addrs[k])
        if target is not None:
            target_addr = addrs[target] if target < len(spec) else cursor
            new = replace(new, rel=target_addr - (addrs[k] + sizes[k]))
        out.append(new)
    return out


def window_bytes(insns: List[Instruction]) -> bytes:
    return encode_program(insns)


def _gen_body_insn(rng: random.Random) -> Instruction:
    """One non-branch body instruction."""
    r = rng.choice(_GP_REGS)
    s = rng.choice(_GP_REGS)
    roll = rng.random()
    if roll < 0.10:
        return Instruction(op=Op.MOV_RI, dst=r, imm=rng.choice([0, 1, 7, rng.getrandbits(16), rng.getrandbits(63)]))
    if roll < 0.18:
        return Instruction(op=Op.MOV_RR, dst=r, src=s)
    if roll < 0.26:
        op = rng.choice([Op.ADD_RR, Op.SUB_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR, Op.MUL_RR])
        return Instruction(op=op, dst=r, src=s)
    if roll < 0.34:
        op = rng.choice([Op.ADD_RI, Op.SUB_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI, Op.CMP_RI, Op.TEST_RI])
        return Instruction(op=op, dst=r, imm=rng.randrange(0, 1 << 31))
    if roll < 0.40:
        op = rng.choice([Op.SHL_RI, Op.SHR_RI, Op.SAR_RI])
        return Instruction(op=op, dst=r, imm=rng.randrange(0, 64))
    if roll < 0.48:
        op = rng.choice([Op.INC_R, Op.DEC_R, Op.NOT_R, Op.NEG_R])
        return Instruction(op=op, dst=r)
    if roll < 0.56:
        op = rng.choice([Op.CMP_RR, Op.TEST_RR])
        return Instruction(op=op, dst=r, src=s)
    if roll < 0.66:
        if rng.random() < 0.5:
            return Instruction(op=Op.PUSH_R, dst=r)
        return Instruction(op=Op.POP1, dst=r)
    if roll < 0.76:
        disp = rng.randrange(0, 8) * 8
        if rng.random() < 0.5:
            return Instruction(op=Op.LOAD, dst=r, base=Reg.RSP, disp=disp)
        return Instruction(op=Op.STORE, base=Reg.RSP, disp=disp, src=r)
    if roll < 0.82:
        return Instruction(op=Op.LEA, dst=r, base=s, disp=rng.randrange(-64, 64))
    if roll < 0.88:
        return Instruction(op=Op.XCHG, dst=r, src=s)
    if roll < 0.94:
        # A register pointed into mapped .data, then a wild load off it.
        return Instruction(op=Op.MOV_RI, dst=r, imm=DATA_BASE + rng.randrange(0, 64) * 8)
    return Instruction(op=Op.NOP)


def gen_window(rng: random.Random, max_body: int = 6) -> List[Instruction]:
    """A laid-out instruction window ending in an indirect transfer."""
    n = rng.randrange(0, max_body + 1)
    spec: WindowSpec = [(_gen_body_insn(rng), None) for _ in range(n)]
    if n >= 1 and rng.random() < 0.45:
        # Insert one forward conditional jump over 0..2 later insns.
        pos = rng.randrange(0, n)
        skip = rng.randrange(0, min(3, n - pos) + 1)
        jcc = Instruction(op=rng.choice(_COND_OPS), rel=0)
        spec.insert(pos, (jcc, pos + 1 + skip))
    term_op = rng.choice(_TERMINATORS)
    if term_op in (Op.JMP_R, Op.CALL_R):
        term = Instruction(op=term_op, dst=rng.choice(_GP_REGS))
    elif term_op == Op.JMP_M:
        term = Instruction(op=Op.JMP_M, base=rng.choice(_GP_REGS), disp=rng.randrange(0, 8) * 8)
    else:
        term = Instruction(op=term_op)
    spec.append((term, None))
    return relayout(spec, TEXT_BASE)


def gen_bytes(rng: random.Random, size: int = 48) -> bytes:
    """A raw byte image: random bytes salted with real opcodes so the
    decoder sees plenty of near-valid encodings and alias opcodes."""
    out = bytearray(rng.getrandbits(8) for _ in range(size))
    ops = [int(op) for op in Op]
    for _ in range(size // 4):
        pos = rng.randrange(size)
        opcode = rng.choice(ops)
        if rng.random() < 0.3:
            opcode |= 0x80  # alias encoding
        out[pos] = opcode
    return bytes(out)


_SAFE_BINOPS = ["+", "-", "*", "^", "&", "|"]


def gen_program(rng: random.Random) -> str:
    """A well-formed mini-C program printing one self-checksum.

    The program fills an array from a seeded recurrence, folds it with
    randomly chosen (but always well-defined) operators, and prints the
    fold mod a large prime — any cross-config behavioral divergence
    shows up as a different single output line.
    """
    n = rng.randrange(4, 9)
    c0 = rng.randrange(1, 1 << 16)
    c1 = rng.randrange(3, 1 << 8) | 1
    c2 = rng.randrange(1, 1 << 12)
    shift = rng.randrange(1, 16)
    fold_op = rng.choice(_SAFE_BINOPS)
    mix_op = rng.choice(_SAFE_BINOPS)
    branch_div = rng.randrange(2, 7)
    lines = [
        f"u64 a[{n}];",
        "",
        "u64 main() {",
        "    u64 i = 0;",
        f"    u64 acc = {c0};",
        f"    while (i < {n}) {{",
        f"        a[i] = (i * {c1} + {c2}) % 65521;",
        "        i = i + 1;",
        "    }",
        "    i = 0;",
        f"    while (i < {n}) {{",
        f"        if (a[i] % {branch_div} == 0) {{",
        f"            acc = (acc {fold_op} a[i]) + (a[i] << {shift});",
        "        } else {",
        f"            acc = acc {mix_op} (a[i] * {c1});",
        "        }",
        "        i = i + 1;",
        "    }",
        "    print(acc % 1000000007);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Solver queries
# ---------------------------------------------------------------------------

_SYMBOLS = ["rax0", "rcx0", "rdx0", "stk0", "mem0"]
_CHEAP_BINOPS = [bv_add, bv_sub, bv_and, bv_or, bv_xor]
#: Each costs a 64-bit multiplier or divider once bit-blasted.
_HEAVY_BINOPS = [bv_udiv, bv_umod, bv_mul]
_CMP_OPS = list(CmpOp)
#: op -> (the op of its negation, whether the negation swaps operands).
_NEGATION = {
    CmpOp.EQ: (CmpOp.NE, False),
    CmpOp.NE: (CmpOp.EQ, False),
    CmpOp.ULT: (CmpOp.ULE, True),
    CmpOp.ULE: (CmpOp.ULT, True),
    CmpOp.SLT: (CmpOp.SLE, True),
    CmpOp.SLE: (CmpOp.SLT, True),
}


def _gen_leaf(rng: random.Random) -> BV:
    if rng.random() < 0.3:
        return bv_const(rng.choice([0, 1, 7, 0xFF, (1 << 64) - 1, rng.getrandbits(64)]))
    return bv_sym(rng.choice(_SYMBOLS))


def _gen_term(rng: random.Random, heavy: bool) -> BV:
    roll = rng.random()
    if roll < 0.3:
        return _gen_leaf(rng)
    if roll < 0.4:
        return rng.choice([bv_not, bv_neg])(_gen_leaf(rng))
    if roll < 0.5:
        return bv_shl(_gen_leaf(rng), rng.randrange(1, 8))
    ops = _HEAVY_BINOPS if heavy else _CHEAP_BINOPS
    return rng.choice(ops)(_gen_leaf(rng), _gen_leaf(rng))


def _gen_atom(rng: random.Random, heavy: bool = False) -> Optional[Cmp]:
    atom = cmp(rng.choice(_CMP_OPS), _gen_term(rng, heavy), _gen_term(rng, False))
    return atom if isinstance(atom, Cmp) else None  # folded to a constant


def _not(arg: Bool) -> Bool:
    # A raw NOT node: ``bool_not`` would fold it into a comparison.
    return BoolExpr(BoolConn.NOT, (arg,))


def _restate(rng: random.Random, atom: Cmp) -> Bool:
    """``atom`` in a syntactically different but equivalent form."""
    if atom.op in (CmpOp.EQ, CmpOp.NE) and rng.random() < 0.5:
        atom = Cmp(atom.op, atom.rhs, atom.lhs)
    return _not(_not(atom)) if rng.random() < 0.25 else atom


def _complement(rng: random.Random, atom: Cmp) -> Bool:
    """The negation of ``atom``, in one of the forms a solver must see through."""
    if rng.random() < 0.4:
        return _not(_restate(rng, atom))
    op, swap = _NEGATION[atom.op]
    negated = Cmp(op, atom.rhs, atom.lhs) if swap else Cmp(op, atom.lhs, atom.rhs)
    return _restate(rng, negated)


def gen_constraints(rng: random.Random) -> List[Bool]:
    """A solver query: noise comparisons, usually plus one hidden
    complementary pair whose sides may sit inside ``and``/``or`` groups.

    One query in eight puts a ``udiv``/``umod``/``mul`` term in the pair
    (the shape of winnowing's costliest queries); those are rare because
    a direct bit-blast of one costs a 64-bit multiplier or divider.
    """
    noise = [a for a in (_gen_atom(rng) for _ in range(rng.randrange(0, 4))) if a is not None]
    if rng.random() < 0.3 and len(noise) >= 2:
        noise = [bool_or(noise[0], noise[1])] + noise[2:]
    conjuncts: List[Bool] = list(noise)
    pair = _gen_atom(rng, heavy=rng.random() < 0.125) if rng.random() < 0.75 else None
    if pair is not None:
        sides = [_restate(rng, pair), _complement(rng, pair)]
        if conjuncts and rng.random() < 0.5:
            # Hide one side in a conjunction with a noise atom.
            sides[0] = bool_and(conjuncts.pop(), sides[0])
        conjuncts.extend(sides)
    if not conjuncts:
        conjuncts.append(Cmp(CmpOp.ULT, bv_sym(rng.choice(_SYMBOLS)), BVConst(rng.getrandbits(64))))
    rng.shuffle(conjuncts)
    return conjuncts
