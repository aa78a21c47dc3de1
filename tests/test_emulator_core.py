"""Contract tests for the emulator's decode-once handler core.

``run()`` and ``step()`` share one set of handlers; these tests pin the
parts of the contract callers rely on: identical results from both
drivers, hook/trace visibility, the step limit, the state an exception
leaves behind, externally written flags, the Jcc conditions, and
overridable stack helpers.
"""

import gc
import itertools
import weakref

import pytest

from repro.bench import build
from repro.binfmt import make_image
from repro.emulator import (
    COND_PREDICATES,
    Emulator,
    MemoryFault,
    ProcessExit,
    StepLimitExceeded,
)
from repro.emulator.cpu import _flags_sub
from repro.isa import Flag, Reg, assemble_unit
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction
from repro.isa.registers import MASK64

from tests.test_fuzz import OffByOneEmulator

TEXT = 0x400000
FLAG_ORDER = (Flag.ZF, Flag.SF, Flag.CF, Flag.OF)


def emu_for(source, cls=Emulator, **kwargs):
    unit = assemble_unit(source, base_addr=TEXT)
    image = make_image(unit.code, data=b"\x00" * 64, symbols=unit.labels)
    return cls(image, **kwargs), unit.labels


def machine_state(emu):
    cpu = emu.cpu
    return (emu.steps, list(cpu.regs), dict(cpu.flags), cpu.rip)


def drive_by_steps(emu):
    try:
        while True:
            emu.step()
    except ProcessExit as exit_exc:
        return exit_exc.status


@pytest.mark.parametrize("config", ["none", "llvm_obf", "self_modify"])
def test_run_and_step_loop_agree_on_crc32(config):
    image = build("crc32", config).image
    by_run = Emulator(image, stop_on_attack=False)
    by_step = Emulator(image, stop_on_attack=False)
    status_run = by_run.run()
    status_step = drive_by_steps(by_step)
    assert (status_run, bytes(by_run.syscalls.stdout)) == (
        status_step,
        bytes(by_step.syscalls.stdout),
    )
    assert machine_state(by_run) == machine_state(by_step)
    assert by_run.syscalls.stdout == b"4165033073\n"


def test_hook_and_trace_see_every_step_in_order():
    source = """
        mov rcx, 3
    loop:
        dec rcx
        jne loop
        hlt
    """
    reference, _ = emu_for(source)
    expected = []
    with pytest.raises(ProcessExit):
        while True:
            expected.append(reference.cpu.rip)
            reference.step()

    seen = []
    emu, _ = emu_for(source, trace=True, step_hook=lambda e, insn: seen.append(insn.addr))
    assert emu.run() == 0
    assert emu.steps == len(expected) == 8
    assert seen == expected
    assert [insn.addr for insn in emu.trace] == expected


@pytest.mark.parametrize("drive", ["run", "step"])
def test_step_limit_fires_at_the_limit(drive):
    emu, labels = emu_for("loop: jmp loop", step_limit=25)
    with pytest.raises(StepLimitExceeded):
        if drive == "run":
            emu.run()
        else:
            drive_by_steps(emu)
    assert emu.steps == 25
    assert emu.cpu.rip == labels["loop"]


@pytest.mark.parametrize("drive", ["run", "step"])
def test_fault_leaves_rip_at_faulting_instruction(drive):
    emu, labels = emu_for(
        """
            mov rax, 1
            mov rbx, 0x123456789
        bad:
            mov rcx, [rbx+0]
            mov rax, 2
            hlt
        """
    )
    with pytest.raises(MemoryFault):
        if drive == "run":
            emu.run()
        else:
            drive_by_steps(emu)
    assert emu.cpu.rip == labels["bad"]
    assert emu.steps == 3
    assert emu.cpu.get(Reg.RAX) == 1
    assert emu.cpu.get(Reg.RCX) == 0


def test_faulting_push_has_already_moved_rsp():
    emu, _ = emu_for("push rax\nhlt")
    emu.cpu.set(Reg.RSP, 0x1000)  # unmapped
    with pytest.raises(MemoryFault):
        emu.run()
    assert emu.cpu.rip == TEXT
    assert emu.cpu.get(Reg.RSP) == 0x1000 - 8


def test_flag_written_between_steps_steers_next_jcc():
    emu, labels = emu_for(
        """
            cmp rax, rax
            jb taken
            hlt
        taken:
            hlt
        """
    )
    emu.step()
    assert not emu.cpu.flags[Flag.CF]
    emu.cpu.flags[Flag.CF] = True
    emu.step()
    assert emu.cpu.rip == labels["taken"]


def test_jcc_handlers_match_cond_predicates_on_all_flag_states():
    jccs = sorted(COND_PREDICATES)
    code = b"".join(encode(Instruction(op=op, rel=0x40)) for op in jccs)
    emu = Emulator(make_image(code))
    addr = TEXT
    for op in jccs:
        insn_end = addr + 5
        for values in itertools.product((False, True), repeat=4):
            state = dict(zip(FLAG_ORDER, values))
            for flag, value in state.items():
                emu.cpu.flags[flag] = value
            emu.cpu.rip = addr
            emu.step()
            taken = emu.cpu.rip == insn_end + 0x40
            assert emu.cpu.rip in (insn_end, insn_end + 0x40)
            assert taken == bool(COND_PREDICATES[op](state)), (op, state)
        addr = insn_end


@pytest.mark.parametrize(
    "a,b",
    [(0, 0), (1, 2), (2, 1), (MASK64, 1), (1 << 63, 1), ((1 << 63) - 1, MASK64), (5, 5)],
)
def test_cmp_handler_sets_the_flags_sub_describes(a, b):
    emu, _ = emu_for("cmp rax, rbx\nhlt")
    emu.cpu.set(Reg.RAX, a)
    emu.cpu.set(Reg.RBX, b)
    emu.step()
    assert dict(emu.cpu.flags) == _flags_sub(a, b)


def test_overridden_pop_is_honoured_under_run():
    source = """
        push 5
        push 7
        pop rax
        pop rbx
        hlt
    """
    honest, _ = emu_for(source)
    honest.run()
    by_run, _ = emu_for(source, cls=OffByOneEmulator)
    by_run.run()
    by_step, _ = emu_for(source, cls=OffByOneEmulator)
    drive_by_steps(by_step)
    assert machine_state(by_run) == machine_state(by_step)
    assert by_run.cpu.get(Reg.RAX) == 7
    assert by_run.cpu.get(Reg.RSP) == honest.cpu.get(Reg.RSP) + 16


def test_dropped_emulator_is_freed_without_the_cycle_collector():
    # Handlers take the emulator as an argument instead of closing over
    # it; a cycle would keep every dead emulator's pages and decode
    # cache alive until a full collection.
    emu, _ = emu_for(
        """
            call fn
            mov rax, 60
            syscall
        fn:
            push rbx
            pop rbx
            ret
        """
    )
    assert emu.run() == 0
    alive = weakref.ref(emu)
    gc.disable()
    try:
        del emu
        assert alive() is None
    finally:
        gc.enable()
