"""Stable binary serialization for gadget pools.

The persistent result cache stores whole :class:`GadgetRecord` pools
on disk.  ``pickle`` would work, but its output is not canonical (memo
ids, protocol drift), and the cache is *content-addressed* — two
byte-identical pools must hash identically across processes and Python
versions.  So records get an explicit, versioned encoding instead:

* expressions are written as a pre-order tagged tree and decoded back
  into the *exact* same dataclasses (no smart-constructor re-runs, so
  a round trip is the identity);
* enums are written by table index — the tables below are part of the
  format, so reordering an enum requires bumping ``FORMAT_VERSION``;
* integers use LEB128 varints (zig-zag for signed), which keeps small
  pools small and round-trips arbitrary-width Python ints exactly.

``pool_to_bytes(records)`` is deterministic given the records, which
makes "the warm pool is byte-identical to the cold pool" testable with
a single bytes comparison.
"""

from __future__ import annotations

import struct
from dataclasses import asdict
from typing import Any, List, Sequence

from ..gadgets.record import GadgetRecord, JmpType
from ..isa.instructions import Instruction, Op
from ..isa.registers import ALL_REGS, Reg
from ..symex.executor import EndKind
from ..symex.expr import (
    BVBin,
    BVBinOp,
    BVConst,
    BVIte,
    BVSym,
    BVUn,
    BVUnOp,
    Bool,
    BoolConn,
    BoolConst,
    BoolExpr,
    Cmp,
    CmpOp,
)
from ..symex.state import MemRead, MemWrite

#: Bump when the encoding (or any enum table order) changes; the cache
#: keys include it, so old cache entries become unreachable, not wrong.
FORMAT_VERSION = 1

_POOL_MAGIC = b"NFLP"

# Enum tables: index-in-list is the wire encoding.
_BIN_OPS = list(BVBinOp)
_UN_OPS = list(BVUnOp)
_CMP_OPS = list(CmpOp)
_CONNS = list(BoolConn)
_JMP_TYPES = list(JmpType)
_END_KINDS = list(EndKind)
_BIN_INDEX = {op: i for i, op in enumerate(_BIN_OPS)}
_UN_INDEX = {op: i for i, op in enumerate(_UN_OPS)}
_CMP_INDEX = {op: i for i, op in enumerate(_CMP_OPS)}
_CONN_INDEX = {c: i for i, c in enumerate(_CONNS)}
_JMP_INDEX = {t: i for i, t in enumerate(_JMP_TYPES)}
_END_INDEX = {k: i for i, k in enumerate(_END_KINDS)}

# Expression node tags.
_T_BVCONST = 0x01
_T_BVSYM = 0x02
_T_BVBIN = 0x03
_T_BVUN = 0x04
_T_BVITE = 0x05
_T_BOOLCONST = 0x10
_T_CMP = 0x11
_T_BOOLEXPR = 0x12

_NO_REG = 0xFF


class SerializationError(ValueError):
    """Raised on a malformed or version-mismatched pool blob."""


class _Writer:
    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, value: int) -> None:
        self.buf.append(value & 0xFF)

    def u64(self, value: int) -> None:
        self.buf += struct.pack("<Q", value & ((1 << 64) - 1))

    def varint(self, value: int) -> None:
        if value < 0:
            raise SerializationError(f"varint requires value >= 0, got {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            self.u8(byte | (0x80 if value else 0))
            if not value:
                break

    def sint(self, value: int) -> None:
        # Zig-zag: arbitrary-precision, exact for any Python int.
        self.varint(value * 2 if value >= 0 else -value * 2 - 1)

    def opt_sint(self, value) -> None:
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            self.sint(value)

    def string(self, text: str) -> None:
        encoded = text.encode()
        self.varint(len(encoded))
        self.buf += encoded

    def reg(self, reg) -> None:
        self.u8(_NO_REG if reg is None else int(reg))

    def bool(self, value: bool) -> None:
        self.u8(1 if value else 0)


class _Reader:
    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    def u8(self) -> int:
        try:
            value = self.blob[self.pos]
        except IndexError:
            raise SerializationError("truncated pool blob") from None
        self.pos += 1
        return value

    def u64(self) -> int:
        try:
            (value,) = struct.unpack_from("<Q", self.blob, self.pos)
        except struct.error as exc:
            raise SerializationError(f"truncated pool blob: {exc}") from None
        self.pos += 8
        return value

    def varint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def sint(self) -> int:
        raw = self.varint()
        return raw // 2 if raw % 2 == 0 else -(raw + 1) // 2

    def opt_sint(self):
        return self.sint() if self.u8() else None

    def string(self) -> str:
        length = self.varint()
        out = self.blob[self.pos : self.pos + length]
        if len(out) != length:
            raise SerializationError("truncated string")
        self.pos += length
        return out.decode()

    def reg(self):
        value = self.u8()
        return None if value == _NO_REG else Reg(value)

    def bool(self) -> bool:
        return bool(self.u8())


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _write_expr(w: _Writer, expr) -> None:
    if isinstance(expr, BVConst):
        w.u8(_T_BVCONST)
        w.u64(expr.value)
    elif isinstance(expr, BVSym):
        w.u8(_T_BVSYM)
        w.string(expr.name)
    elif isinstance(expr, BVBin):
        w.u8(_T_BVBIN)
        w.u8(_BIN_INDEX[expr.op])
        _write_expr(w, expr.lhs)
        _write_expr(w, expr.rhs)
    elif isinstance(expr, BVUn):
        w.u8(_T_BVUN)
        w.u8(_UN_INDEX[expr.op])
        _write_expr(w, expr.arg)
    elif isinstance(expr, BVIte):
        w.u8(_T_BVITE)
        _write_expr(w, expr.cond)
        _write_expr(w, expr.then)
        _write_expr(w, expr.other)
    elif isinstance(expr, BoolConst):
        w.u8(_T_BOOLCONST)
        w.bool(expr.value)
    elif isinstance(expr, Cmp):
        w.u8(_T_CMP)
        w.u8(_CMP_INDEX[expr.op])
        _write_expr(w, expr.lhs)
        _write_expr(w, expr.rhs)
    elif isinstance(expr, BoolExpr):
        w.u8(_T_BOOLEXPR)
        w.u8(_CONN_INDEX[expr.conn])
        w.varint(len(expr.args))
        for arg in expr.args:
            _write_expr(w, arg)
    else:
        raise SerializationError(f"cannot serialize expression {expr!r}")


def _read_expr(r: _Reader):
    # Rebuild the raw dataclasses — NOT the smart constructors — so the
    # decoded tree is structurally identical to what was written.
    tag = r.u8()
    if tag == _T_BVCONST:
        return BVConst(r.u64())
    if tag == _T_BVSYM:
        return BVSym(r.string())
    if tag == _T_BVBIN:
        op = _BIN_OPS[r.u8()]
        return BVBin(op, _read_expr(r), _read_expr(r))
    if tag == _T_BVUN:
        op = _UN_OPS[r.u8()]
        return BVUn(op, _read_expr(r))
    if tag == _T_BVITE:
        return BVIte(_read_expr(r), _read_expr(r), _read_expr(r))
    if tag == _T_BOOLCONST:
        return BoolConst(r.bool())
    if tag == _T_CMP:
        op = _CMP_OPS[r.u8()]
        return Cmp(op, _read_expr(r), _read_expr(r))
    if tag == _T_BOOLEXPR:
        conn = _CONNS[r.u8()]
        count = r.varint()
        return BoolExpr(conn, tuple(_read_expr(r) for _ in range(count)))
    raise SerializationError(f"unknown expression tag {tag:#x}")


# ---------------------------------------------------------------------------
# Instructions and memory effects
# ---------------------------------------------------------------------------


def _write_insn(w: _Writer, insn: Instruction) -> None:
    w.varint(int(insn.op))
    w.reg(insn.dst)
    w.reg(insn.src)
    w.reg(insn.base)
    w.sint(insn.disp)
    w.opt_sint(insn.imm)
    w.opt_sint(insn.rel)
    w.varint(insn.addr)


def _read_insn(r: _Reader) -> Instruction:
    return Instruction(
        op=Op(r.varint()),
        dst=r.reg(),
        src=r.reg(),
        base=r.reg(),
        disp=r.sint(),
        imm=r.opt_sint(),
        rel=r.opt_sint(),
        addr=r.varint(),
    )


def _write_mem_read(w: _Writer, read: MemRead) -> None:
    _write_expr(w, read.addr)
    w.string(read.value_sym.name)
    w.u8(read.width)


def _read_mem_read(r: _Reader) -> MemRead:
    return MemRead(addr=_read_expr(r), value_sym=BVSym(r.string()), width=r.u8())


def _write_mem_write(w: _Writer, write: MemWrite) -> None:
    _write_expr(w, write.addr)
    _write_expr(w, write.value)
    w.u8(write.width)
    w.opt_sint(write.stack_offset)


def _read_mem_write(r: _Reader) -> MemWrite:
    return MemWrite(
        addr=_read_expr(r), value=_read_expr(r), width=r.u8(), stack_offset=r.opt_sint()
    )


def _reg_mask(regs) -> int:
    mask = 0
    for reg in regs:
        mask |= 1 << int(reg)
    return mask


def _mask_regs(mask: int):
    return frozenset(reg for reg in ALL_REGS if mask & (1 << int(reg)))


# ---------------------------------------------------------------------------
# Records and pools
# ---------------------------------------------------------------------------


def _write_record(w: _Writer, record: GadgetRecord) -> None:
    w.varint(record.gadget_id)
    w.varint(record.location)
    w.varint(record.length)
    w.varint(len(record.insns))
    for insn in record.insns:
        _write_insn(w, insn)
    w.u8(_JMP_INDEX[record.jmp_type])
    w.u8(_END_INDEX[record.end])
    w.varint(len(record.pre_cond))
    for cond in record.pre_cond:
        _write_expr(w, cond)
    for reg in ALL_REGS:  # fixed order: part of the format
        _write_expr(w, record.post_regs[reg])
    _write_expr(w, record.jump_target)
    w.varint(_reg_mask(record.clob_regs))
    w.varint(_reg_mask(record.ctrl_regs))
    w.opt_sint(record.stack_delta)
    w.bool(record.stack_smashed)
    w.varint(len(record.mem_reads))
    for read in record.mem_reads:
        _write_mem_read(w, read)
    w.varint(len(record.mem_writes))
    for write in record.mem_writes:
        _write_mem_write(w, write)
    w.sint(record.max_stack_offset)
    w.varint(record.conditional_jumps)
    w.varint(record.merged_direct_jumps)


def _read_record(r: _Reader) -> GadgetRecord:
    gadget_id = r.varint()
    location = r.varint()
    length = r.varint()
    insns = [_read_insn(r) for _ in range(r.varint())]
    jmp_type = _JMP_TYPES[r.u8()]
    end = _END_KINDS[r.u8()]
    pre_cond = [_read_expr(r) for _ in range(r.varint())]
    post_regs = {reg: _read_expr(r) for reg in ALL_REGS}
    jump_target = _read_expr(r)
    clob_regs = _mask_regs(r.varint())
    ctrl_regs = _mask_regs(r.varint())
    stack_delta = r.opt_sint()
    stack_smashed = r.bool()
    mem_reads = [_read_mem_read(r) for _ in range(r.varint())]
    mem_writes = [_read_mem_write(r) for _ in range(r.varint())]
    max_stack_offset = r.sint()
    conditional_jumps = r.varint()
    merged_direct_jumps = r.varint()
    return GadgetRecord(
        gadget_id=gadget_id,
        location=location,
        length=length,
        insns=insns,
        jmp_type=jmp_type,
        end=end,
        pre_cond=pre_cond,
        post_regs=post_regs,
        jump_target=jump_target,
        clob_regs=clob_regs,
        ctrl_regs=ctrl_regs,
        stack_delta=stack_delta,
        stack_smashed=stack_smashed,
        mem_reads=mem_reads,
        mem_writes=mem_writes,
        max_stack_offset=max_stack_offset,
        conditional_jumps=conditional_jumps,
        merged_direct_jumps=merged_direct_jumps,
    )


def record_to_bytes(record: GadgetRecord) -> bytes:
    """Canonical encoding of one record (no pool header)."""
    w = _Writer()
    _write_record(w, record)
    return bytes(w.buf)


def record_from_bytes(blob: bytes) -> GadgetRecord:
    """Inverse of :func:`record_to_bytes`."""
    r = _Reader(blob)
    record = _read_record(r)
    if r.pos != len(blob):
        raise SerializationError(f"{len(blob) - r.pos} trailing bytes after record")
    return record


def pool_to_bytes(records: Sequence[GadgetRecord]) -> bytes:
    """Canonical encoding of a whole pool (ordered, versioned)."""
    w = _Writer()
    w.buf += _POOL_MAGIC
    w.u8(FORMAT_VERSION)
    w.varint(len(records))
    for record in records:
        _write_record(w, record)
    return bytes(w.buf)


def pool_from_bytes(blob: bytes) -> List[GadgetRecord]:
    """Inverse of :func:`pool_to_bytes`."""
    if blob[: len(_POOL_MAGIC)] != _POOL_MAGIC:
        raise SerializationError("bad pool magic")
    r = _Reader(blob)
    r.pos = len(_POOL_MAGIC)
    version = r.u8()
    if version != FORMAT_VERSION:
        raise SerializationError(f"pool format v{version}, expected v{FORMAT_VERSION}")
    count = r.varint()
    records = [_read_record(r) for _ in range(count)]
    if r.pos != len(blob):
        raise SerializationError(f"{len(blob) - r.pos} trailing bytes after pool")
    return records


def constraints_to_bytes(conjuncts: Sequence[Bool]) -> bytes:
    """Canonical encoding of a list of boolean constraints (a solver query)."""
    w = _Writer()
    w.varint(len(conjuncts))
    for conjunct in conjuncts:
        _write_expr(w, conjunct)
    return bytes(w.buf)


def constraints_from_bytes(blob: bytes) -> List[Bool]:
    """Inverse of :func:`constraints_to_bytes`."""
    r = _Reader(blob)
    conjuncts = [_read_expr(r) for _ in range(r.varint())]
    if r.pos != len(blob):
        raise SerializationError(f"{len(blob) - r.pos} trailing bytes after constraints")
    return conjuncts


def config_key_bytes(config: Any) -> bytes:
    """A canonical byte string for a config dataclass (cache keying).

    Field *names* are included, so adding a knob (even with a default)
    changes every key — a new knob means the old pools were computed
    under unspecified semantics for it.
    """
    items = sorted(asdict(config).items())
    return repr(items).encode()
