"""Concrete CPU for the NFL machine.

The emulator serves two roles in the reproduction:

1. running compiled benchmark programs end-to-end (so the mini-C
   compiler and the obfuscation passes can be validated as
   *semantics-preserving*), and
2. executing attacker payloads produced by the planner against the
   vulnerable binaries, asserting that the chain really reaches the
   goal syscall — the ground truth every payload count in the
   evaluation is measured against.

The core decodes each address once.  The decode cache maps ``rip`` to
``(Instruction, handler)``: the handler is a closure built from the
opcode-indexed :data:`_BUILDERS` table, with the register indices,
immediate, displacement, ``end`` and branch target bound at decode
time, and it returns the next ``rip``.  :meth:`Emulator.run` and
:meth:`Emulator.step` call the same handlers, so the instruction
semantics live in one place.  The cache is dropped whenever
``Memory.exec_write_gen`` moves, which happens on a write to an
executable page (self-modifying code) and on a change of any page's
execute permission.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..binfmt.image import BinaryImage, STACK_SIZE, STACK_TOP
from ..isa.encoding import DecodeError, decode
from ..isa.instructions import Instruction, Op
from ..isa.registers import Flag, MASK64, Reg
from ..obs import span
from .memory import Memory, MemoryFault, PERM_R, PERM_W, PERM_X
from .syscalls import AttackTriggered, ProcessExit, SyscallHandler

MAX_DECODE_SIZE = 16

#: Bit 63: the sign bit of a 64-bit value.
_SIGN64 = 1 << 63

#: Position of each flag in :attr:`FlagBits.bits`.
_FLAG_INDEX = {Flag.ZF: 0, Flag.SF: 1, Flag.CF: 2, Flag.OF: 3}
_ZF, _SF, _CF, _OF = 0, 1, 2, 3

_RAX, _RDX, _RSP, _RBP = Reg.RAX.value, Reg.RDX.value, Reg.RSP.value, Reg.RBP.value
_RSI, _RDI, _R8, _R9, _R10 = (
    Reg.RSI.value, Reg.RDI.value, Reg.R8.value, Reg.R9.value, Reg.R10.value,
)


class EmulatorError(Exception):
    """Base class for guest execution failures."""


class InvalidInstruction(EmulatorError):
    """The guest jumped into bytes that do not decode."""


class DivideError(EmulatorError):
    """Unsigned division by zero."""


class StepLimitExceeded(EmulatorError):
    """The instruction budget ran out (likely an infinite loop)."""


class FlagBits(MutableMapping):
    """The status flags: a ``Flag → bool`` mapping over a list of bits.

    Handlers read and write :attr:`bits` (ZF, SF, CF, OF, in the order
    of :data:`_FLAG_INDEX`) directly; everything else uses the mapping,
    e.g. ``cpu.flags[Flag.CF] = True``.
    """

    __slots__ = ("bits",)

    def __init__(self) -> None:
        self.bits: List[bool] = [False, False, False, False]

    def __getitem__(self, flag: Flag) -> bool:
        return bool(self.bits[_FLAG_INDEX[flag]])

    def __setitem__(self, flag: Flag, value: bool) -> None:
        self.bits[_FLAG_INDEX[flag]] = bool(value)

    def __delitem__(self, flag: Flag) -> None:
        raise TypeError("flags cannot be deleted")

    def __iter__(self) -> Iterator[Flag]:
        return iter(_FLAG_INDEX)

    def __len__(self) -> int:
        return len(_FLAG_INDEX)

    def __repr__(self) -> str:
        return f"FlagBits({dict(self)!r})"


@dataclass
class CPUState:
    """Architectural state: registers, flags, instruction pointer.

    ``regs`` is a list indexed by register number (``regs[Reg.RAX]``).
    The handlers of an emulator's decode cache hold on to ``regs`` and
    ``flags.bits``, so mutate them in place rather than rebinding them.
    """

    regs: List[int] = field(default_factory=lambda: [0] * len(Reg))
    flags: FlagBits = field(default_factory=FlagBits)
    rip: int = 0

    def get(self, reg: Reg) -> int:
        return self.regs[reg]

    def set(self, reg: Reg, value: int) -> None:
        self.regs[reg] = value & MASK64


def _flags_sub(a: int, b: int) -> Dict[Flag, bool]:
    """The flags ``cmp a, b`` sets, as a mapping (for predicate checks)."""
    result_m = (a - b) & MASK64
    sa, sb, sr = a >> 63, b >> 63, result_m >> 63
    return {
        Flag.ZF: result_m == 0,
        Flag.SF: bool(sr),
        Flag.CF: a < b,
        Flag.OF: sa != sb and sa != sr,
    }


#: Condition predicates for the Jcc family, shared with documentation:
#: signed comparisons use SF/OF/ZF, unsigned use CF/ZF — as on x86.
#: The Jcc handlers below inline the same conditions over the flag bits.
COND_PREDICATES = {
    Op.JE: lambda f: f[Flag.ZF],
    Op.JNE: lambda f: not f[Flag.ZF],
    Op.JL: lambda f: f[Flag.SF] != f[Flag.OF],
    Op.JLE: lambda f: f[Flag.ZF] or (f[Flag.SF] != f[Flag.OF]),
    Op.JG: lambda f: (not f[Flag.ZF]) and f[Flag.SF] == f[Flag.OF],
    Op.JGE: lambda f: f[Flag.SF] == f[Flag.OF],
    Op.JB: lambda f: f[Flag.CF],
    Op.JBE: lambda f: f[Flag.CF] or f[Flag.ZF],
    Op.JA: lambda f: (not f[Flag.CF]) and (not f[Flag.ZF]),
    Op.JAE: lambda f: not f[Flag.CF],
    Op.JS: lambda f: f[Flag.SF],
    Op.JNS: lambda f: not f[Flag.SF],
}


# ---------------------------------------------------------------------------
# Handler builders
# ---------------------------------------------------------------------------
#
# ``builder(emu, insn, end)`` returns a handler: ``handler(emu)`` executes
# ``insn`` and returns the next rip (``end`` is ``insn.end``, masked).
# Handlers close over the register list, the flag bits and memory accessors
# but take the emulator as an argument: closing over it would make every
# emulator a reference cycle (emulator → cache → handler → emulator) that
# only the cyclic collector frees, and dead emulators would pile up with
# their pages and caches.  Handlers change state in the order the
# architecture does, so a fault mid-instruction leaves the same partial
# state as single-stepping always did: ``push`` has already moved rsp when
# its store faults, ``leave`` has already copied rbp into rsp when its pop
# faults.  Stack traffic goes through ``emu.push``/``emu.pop`` so
# subclasses can override them.

Handler = Callable[["Emulator"], int]
_Builder = Callable[["Emulator", Instruction, int], Handler]

#: Handler builders indexed by opcode byte.
_BUILDERS: List[Optional[_Builder]] = [None] * 256


def _builds(*ops: Op) -> Callable[[_Builder], _Builder]:
    def register(builder: _Builder) -> _Builder:
        for op in ops:
            _BUILDERS[op] = builder
        return builder

    return register


def _operand_b(insn: Instruction) -> Tuple[int, int]:
    """``(src, imm)`` for a two-operand form: ``src`` is the source
    register index, or -1 when the masked immediate ``imm`` (0 if the
    instruction has none) is the operand."""
    if insn.src is not None:
        return insn.src, 0
    return -1, (insn.imm or 0) & MASK64


@_builds(Op.NOP)
def _nop(emu: Emulator, insn: Instruction, end: int) -> Handler:
    def nop(emu: Emulator) -> int:
        return end

    return nop


@_builds(Op.HLT)
def _hlt(emu: Emulator, insn: Instruction, end: int) -> Handler:
    def hlt(emu: Emulator) -> int:
        raise ProcessExit(0)

    return hlt


@_builds(Op.SYSCALL)
def _syscall(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs = emu.cpu.regs

    def syscall(emu: Emulator) -> int:
        args = (regs[_RDI], regs[_RSI], regs[_RDX], regs[_R10], regs[_R8], regs[_R9])
        regs[_RAX] = emu.syscalls.dispatch(regs[_RAX], args) & MASK64
        return end

    return syscall


@_builds(Op.RET)
def _ret(emu: Emulator, insn: Instruction, end: int) -> Handler:
    def ret(emu: Emulator) -> int:
        return emu.pop() & MASK64

    return ret


@_builds(Op.LEAVE)
def _leave(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs = emu.cpu.regs

    def leave(emu: Emulator) -> int:
        regs[_RSP] = regs[_RBP]
        regs[_RBP] = emu.pop() & MASK64
        return end

    return leave


@_builds(Op.MOV_RI, Op.MOV_RI32)
def _mov_ri(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d, imm = emu.cpu.regs, insn.dst, insn.imm & MASK64

    def mov_ri(emu: Emulator) -> int:
        regs[d] = imm
        return end

    return mov_ri


@_builds(Op.MOV_RR)
def _mov_rr(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d, s = emu.cpu.regs, insn.dst, insn.src

    def mov_rr(emu: Emulator) -> int:
        regs[d] = regs[s]
        return end

    return mov_rr


@_builds(Op.LOAD, Op.LOADB)
def _load(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d, base, disp = emu.cpu.regs, insn.dst, insn.base, insn.disp
    read = emu.memory.read_u64 if insn.op is Op.LOAD else emu.memory.read_u8

    def load(emu: Emulator) -> int:
        regs[d] = read((regs[base] + disp) & MASK64)
        return end

    return load


@_builds(Op.STORE, Op.STOREB)
def _store(emu: Emulator, insn: Instruction, end: int) -> Handler:
    # write_u8 keeps the low byte of the source register.
    regs, s, base, disp = emu.cpu.regs, insn.src, insn.base, insn.disp
    write = emu.memory.write_u64 if insn.op is Op.STORE else emu.memory.write_u8

    def store(emu: Emulator) -> int:
        write((regs[base] + disp) & MASK64, regs[s])
        return end

    return store


@_builds(Op.LEA)
def _lea(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d, base, disp = emu.cpu.regs, insn.dst, insn.base, insn.disp

    def lea(emu: Emulator) -> int:
        regs[d] = (regs[base] + disp) & MASK64
        return end

    return lea


@_builds(Op.XCHG)
def _xchg(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d, s = emu.cpu.regs, insn.dst, insn.src

    def xchg(emu: Emulator) -> int:
        regs[d], regs[s] = regs[s], regs[d]
        return end

    return xchg


@_builds(Op.PUSH_R)
def _push_r(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d = emu.cpu.regs, insn.dst

    def push_r(emu: Emulator) -> int:
        emu.push(regs[d])
        return end

    return push_r


@_builds(Op.PUSH_I)
def _push_i(emu: Emulator, insn: Instruction, end: int) -> Handler:
    imm = insn.imm

    def push_i(emu: Emulator) -> int:
        emu.push(imm)
        return end

    return push_i


@_builds(Op.POP_R, Op.POP1)
def _pop_r(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d = emu.cpu.regs, insn.dst

    def pop_r(emu: Emulator) -> int:
        regs[d] = emu.pop() & MASK64
        return end

    return pop_r


@_builds(Op.ADD_RR, Op.ADD_RI)
def _add(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, bits, d = emu.cpu.regs, emu.cpu.flags.bits, insn.dst
    s, imm = _operand_b(insn)

    def add(emu: Emulator) -> int:
        a = regs[d]
        b = imm if s < 0 else regs[s]
        result = a + b
        r = result & MASK64
        bits[_ZF] = r == 0
        bits[_SF] = r >= _SIGN64
        bits[_CF] = result > MASK64
        bits[_OF] = ((a ^ r) & (b ^ r)) >= _SIGN64
        regs[d] = r
        return end

    return add


@_builds(Op.SUB_RR, Op.SUB_RI, Op.CMP_RR, Op.CMP_RI)
def _sub(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, bits, d = emu.cpu.regs, emu.cpu.flags.bits, insn.dst
    s, imm = _operand_b(insn)
    write_back = insn.op in (Op.SUB_RR, Op.SUB_RI)

    def sub(emu: Emulator) -> int:
        a = regs[d]
        b = imm if s < 0 else regs[s]
        r = (a - b) & MASK64
        bits[_ZF] = r == 0
        bits[_SF] = r >= _SIGN64
        bits[_CF] = a < b
        bits[_OF] = ((a ^ b) & (a ^ r)) >= _SIGN64
        if write_back:
            regs[d] = r
        return end

    return sub


def _logic_builder(compute: Callable[[int, int], int], write_back: bool = True) -> _Builder:
    """A builder for ops that set ZF/SF from ``compute(dst, operand)``
    and clear CF/OF; the operand is the source register or immediate
    (0 for the one-operand ``neg``)."""

    def build(emu: Emulator, insn: Instruction, end: int) -> Handler:
        regs, bits, d = emu.cpu.regs, emu.cpu.flags.bits, insn.dst
        s, imm = _operand_b(insn)

        def logic(emu: Emulator) -> int:
            r = compute(regs[d], imm if s < 0 else regs[s])
            bits[:] = (r == 0, r >= _SIGN64, False, False)
            if write_back:
                regs[d] = r
            return end

        return logic

    return build


_builds(Op.AND_RR, Op.AND_RI)(_logic_builder(int.__and__))
_builds(Op.OR_RR, Op.OR_RI)(_logic_builder(int.__or__))
_builds(Op.XOR_RR, Op.XOR_RI)(_logic_builder(int.__xor__))
_builds(Op.TEST_RR, Op.TEST_RI)(_logic_builder(int.__and__, write_back=False))
_builds(Op.MUL_RR)(_logic_builder(lambda a, b: (a * b) & MASK64))
_builds(Op.NEG_R)(_logic_builder(lambda a, _: -a & MASK64))
_builds(Op.SHL_RI)(_logic_builder(lambda a, n: (a << (n & 0x3F)) & MASK64))
_builds(Op.SHR_RI)(_logic_builder(lambda a, n: a >> (n & 0x3F)))
# Arithmetic shift: shift the signed value, then wrap back to 64 bits.
_builds(Op.SAR_RI)(_logic_builder(lambda a, n: ((a - (a & _SIGN64) * 2) >> (n & 0x3F)) & MASK64))


@_builds(Op.NOT_R)
def _not(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d = emu.cpu.regs, insn.dst

    def not_r(emu: Emulator) -> int:
        regs[d] = ~regs[d] & MASK64
        return end

    return not_r


@_builds(Op.INC_R)
def _inc(emu: Emulator, insn: Instruction, end: int) -> Handler:
    # INC/DEC leave CF alone, as on x86.
    regs, bits, d = emu.cpu.regs, emu.cpu.flags.bits, insn.dst

    def inc(emu: Emulator) -> int:
        r = (regs[d] + 1) & MASK64
        bits[_ZF] = r == 0
        bits[_SF] = r >= _SIGN64
        bits[_OF] = r == _SIGN64
        regs[d] = r
        return end

    return inc


@_builds(Op.DEC_R)
def _dec(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, bits, d = emu.cpu.regs, emu.cpu.flags.bits, insn.dst

    def dec(emu: Emulator) -> int:
        a = regs[d]
        r = (a - 1) & MASK64
        bits[_ZF] = r == 0
        bits[_SF] = r >= _SIGN64
        bits[_OF] = a == _SIGN64
        regs[d] = r
        return end

    return dec


@_builds(Op.UDIV_RR, Op.UMOD_RR)
def _udiv(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d, s = emu.cpu.regs, insn.dst, insn.src
    modulo = insn.op is Op.UMOD_RR
    message = f"division by zero at {insn.addr:#x}"

    def udiv(emu: Emulator) -> int:
        divisor = regs[s]
        if divisor == 0:
            raise DivideError(message)
        regs[d] = regs[d] % divisor if modulo else regs[d] // divisor
        return end

    return udiv


@_builds(Op.JMP_REL)
def _jmp_rel(emu: Emulator, insn: Instruction, end: int) -> Handler:
    target = insn.target & MASK64

    def jmp_rel(emu: Emulator) -> int:
        return target

    return jmp_rel


@_builds(Op.JMP_R)
def _jmp_r(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, d = emu.cpu.regs, insn.dst

    def jmp_r(emu: Emulator) -> int:
        return regs[d]

    return jmp_r


@_builds(Op.JMP_M)
def _jmp_m(emu: Emulator, insn: Instruction, end: int) -> Handler:
    regs, base, disp = emu.cpu.regs, insn.base, insn.disp
    read_u64 = emu.memory.read_u64

    def jmp_m(emu: Emulator) -> int:
        return read_u64((regs[base] + disp) & MASK64)

    return jmp_m


@_builds(Op.CALL_REL)
def _call_rel(emu: Emulator, insn: Instruction, end: int) -> Handler:
    target = insn.target & MASK64

    def call_rel(emu: Emulator) -> int:
        emu.push(end)
        return target

    return call_rel


@_builds(Op.CALL_R)
def _call_r(emu: Emulator, insn: Instruction, end: int) -> Handler:
    # The target register is read after the push (``call rsp`` lands on
    # the pushed return address).
    regs, d = emu.cpu.regs, insn.dst

    def call_r(emu: Emulator) -> int:
        emu.push(end)
        return regs[d]

    return call_r


def _jcc_builder(op: Op) -> _Builder:
    def build(emu: Emulator, insn: Instruction, end: int) -> Handler:
        bits, target = emu.cpu.flags.bits, insn.target & MASK64
        if op is Op.JE:
            def jcc(emu: Emulator) -> int:
                return target if bits[_ZF] else end
        elif op is Op.JNE:
            def jcc(emu: Emulator) -> int:
                return end if bits[_ZF] else target
        elif op is Op.JL:
            def jcc(emu: Emulator) -> int:
                return target if bits[_SF] != bits[_OF] else end
        elif op is Op.JLE:
            def jcc(emu: Emulator) -> int:
                return target if bits[_ZF] or bits[_SF] != bits[_OF] else end
        elif op is Op.JG:
            def jcc(emu: Emulator) -> int:
                return end if bits[_ZF] or bits[_SF] != bits[_OF] else target
        elif op is Op.JGE:
            def jcc(emu: Emulator) -> int:
                return end if bits[_SF] != bits[_OF] else target
        elif op is Op.JB:
            def jcc(emu: Emulator) -> int:
                return target if bits[_CF] else end
        elif op is Op.JBE:
            def jcc(emu: Emulator) -> int:
                return target if bits[_CF] or bits[_ZF] else end
        elif op is Op.JA:
            def jcc(emu: Emulator) -> int:
                return end if bits[_CF] or bits[_ZF] else target
        elif op is Op.JAE:
            def jcc(emu: Emulator) -> int:
                return end if bits[_CF] else target
        elif op is Op.JS:
            def jcc(emu: Emulator) -> int:
                return target if bits[_SF] else end
        else:  # Op.JNS
            def jcc(emu: Emulator) -> int:
                return end if bits[_SF] else target
        return jcc

    return build


for _op in COND_PREDICATES:
    _builds(_op)(_jcc_builder(_op))

assert all(_BUILDERS[op] is not None for op in Op), "every opcode needs a handler"


# ---------------------------------------------------------------------------
# The emulator
# ---------------------------------------------------------------------------


class Emulator:
    """A concrete interpreter for NFL binaries.

    Contract for callers and subclasses:

    * ``step_hook(emu, insn)`` runs before each instruction executes,
      after ``steps`` has counted it; ``trace`` records the same
      instructions.  Both are read when :meth:`run` starts.
    * :meth:`push` and :meth:`pop` may be overridden; handlers call the
      bound methods.
    * When an exception leaves :meth:`run` or :meth:`step`, ``cpu.rip``
      is the instruction that raised it (or the next one to run, for
      :class:`StepLimitExceeded`), and ``steps`` counts it.  Without a
      hook or tracing, :meth:`run` keeps ``steps`` and ``cpu.rip`` in
      locals and publishes them when it returns or raises.
    """

    def __init__(
        self,
        image: BinaryImage,
        *,
        stop_on_attack: bool = True,
        step_limit: int = 2_000_000,
        trace: bool = False,
        step_hook: Optional[Callable[["Emulator", Instruction], None]] = None,
    ) -> None:
        self.image = image
        self.memory = Memory()
        self.cpu = CPUState()
        self.step_limit = step_limit
        self.steps = 0
        self.trace_enabled = trace
        self.trace: List[Instruction] = []
        #: Profiling hook: called as ``hook(emulator, insn)`` before
        #: each instruction executes.  ``None`` (the default) lets
        #: :meth:`run` take its hook-free loop; profilers/coverage tools
        #: install a callable without subclassing the emulator.
        self.step_hook = step_hook
        for sec in image.sections:
            perms = PERM_R
            if sec.writable:
                perms |= PERM_W
            if sec.executable:
                perms |= PERM_X
            self.memory.map(sec.addr, max(len(sec.data), 1), perms)
            if sec.data:
                self.memory.write_initial(sec.addr, sec.data)
        self.memory.map(STACK_TOP - STACK_SIZE, STACK_SIZE, PERM_R | PERM_W)
        # Leave headroom above the initial rsp: overflow payloads (and
        # the environment/argv area on a real Linux stack) live there.
        self.cpu.set(Reg.RSP, STACK_TOP - 0x20000)
        self.cpu.rip = image.entry
        self.syscalls = SyscallHandler(self.memory, stop_on_attack=stop_on_attack)
        # Decode cache: rip → (instruction, handler), valid for one
        # value of memory.exec_write_gen.
        self._decoded: Dict[int, Tuple[Instruction, Handler]] = {}
        self._cache_gen = self.memory.exec_write_gen

    # -- stack helpers -----------------------------------------------------

    def push(self, value: int) -> None:
        regs = self.cpu.regs
        rsp = (regs[_RSP] - 8) & MASK64
        regs[_RSP] = rsp
        self.memory.write_u64(rsp, value)

    def pop(self) -> int:
        regs = self.cpu.regs
        rsp = regs[_RSP]
        value = self.memory.read_u64(rsp)
        regs[_RSP] = (rsp + 8) & MASK64
        return value

    # -- decoding -----------------------------------------------------------

    def fetch(self) -> Instruction:
        """The instruction at ``cpu.rip`` (decoding it if needed)."""
        return self._entry(self.cpu.rip)[0]

    def _entry(self, rip: int) -> Tuple[Instruction, Handler]:
        if self._cache_gen != self.memory.exec_write_gen:
            self._decoded.clear()
            self._cache_gen = self.memory.exec_write_gen
        entry = self._decoded.get(rip)
        if entry is None:
            entry = self._decode(rip)
        return entry

    def _decode(self, rip: int) -> Tuple[Instruction, Handler]:
        try:
            window = self.memory.read(rip, MAX_DECODE_SIZE, execute=True)
        except MemoryFault:
            # Near a mapping edge: fall back to byte-at-a-time.
            window = bytearray()
            for i in range(MAX_DECODE_SIZE):
                try:
                    window += self.memory.read(rip + i, 1, execute=True)
                except MemoryFault:
                    break
            window = bytes(window)
        if not window:
            raise InvalidInstruction(f"fetch from non-executable memory at {rip:#x}")
        try:
            insn = decode(window, 0, addr=rip)
        except DecodeError as exc:
            raise InvalidInstruction(str(exc)) from None
        entry = (insn, _BUILDERS[insn.op](self, insn, insn.end & MASK64))
        self._decoded[rip] = entry
        return entry

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction."""
        if self.steps >= self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps")
        self.steps += 1
        insn, handler = self._entry(self.cpu.rip)
        if self.trace_enabled:
            self.trace.append(insn)
        if self.step_hook is not None:
            self.step_hook(self, insn)
        self.cpu.rip = handler(self)

    def run(self) -> int:
        """Run until exit; returns the exit status.

        :class:`AttackTriggered` propagates to the caller when
        ``stop_on_attack`` is set — exploit validation catches it.
        """
        try:
            if self.step_hook is None and not self.trace_enabled:
                self._run_unhooked()  # leaves only by raising
            while True:
                self.step()
        except ProcessExit as exit_exc:
            return exit_exc.status

    def _run_unhooked(self) -> None:
        """:meth:`step` in a loop, without hooks, keeping state in locals.

        ``steps`` and ``cpu.rip`` are published when the loop leaves,
        which it only does by an exception.
        """
        cpu = self.cpu
        memory = self.memory
        decoded = self._decoded
        limit = self.step_limit
        steps = self.steps
        rip = cpu.rip
        gen = self._cache_gen
        try:
            while steps < limit:
                steps += 1
                if memory.exec_write_gen != gen:
                    decoded.clear()
                    gen = self._cache_gen = memory.exec_write_gen
                try:
                    entry = decoded[rip]
                except KeyError:
                    entry = self._decode(rip)
                rip = entry[1](self)
            raise StepLimitExceeded(f"exceeded {limit} steps")
        finally:
            self.steps = steps
            cpu.rip = rip

    def run_catching_attack(self):
        """Run and return the attack event if one fires, else ``None``."""
        try:
            self.run()
        except AttackTriggered as attack:
            return attack.event
        except EmulatorError:
            return None
        except MemoryFault:
            return None
        return None


def run_image(image: BinaryImage, *, step_limit: int = 2_000_000) -> tuple[int, bytes]:
    """Run an image to exit; return ``(status, stdout)``."""
    emu = Emulator(image, stop_on_attack=False, step_limit=step_limit)
    with span("emulate.run") as sp:
        status = emu.run()
        sp.add("steps", emu.steps)
        sp.add("syscall_events", len(emu.syscalls.events))
    return status, bytes(emu.syscalls.stdout)
