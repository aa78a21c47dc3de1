"""Tests for gadget extraction, classification, and subsumption."""


from repro.binfmt import make_image
from repro.gadgets import (
    ExtractionConfig,
    JmpType,
    count_by_type,
    scan_syntactic_gadgets,
    subsumes,
    total_gadgets,
)
from repro.gadgets.subsumption import SubsumptionStats
from repro.isa import Op, Reg, assemble_unit
from repro.pipeline import extract_pool, winnow_pool
from repro.symex import bv_const, stack_sym


def image_for(source):
    unit = assemble_unit(source, base_addr=0x400000)
    return make_image(unit.code, symbols=dict(unit.labels, fn_entry=0x400000))


def extract(source, **cfg):
    image = image_for(source)
    return extract_pool(image, ExtractionConfig(**cfg))


def find_gadget(records, mnemonic_seq):
    """Find a record whose instruction mnemonics start with the given seq."""
    for r in records:
        names = [i.info.mnemonic for i in r.insns]
        if names[: len(mnemonic_seq)] == list(mnemonic_seq):
            return r
    return None


def test_extracts_pop_ret():
    records = extract("pop rdi\nret")
    g = find_gadget(records, ["pop", "ret"])
    assert g is not None
    assert g.jmp_type == JmpType.RET
    assert Reg.RDI in g.ctrl_regs
    assert g.post_regs[Reg.RDI] == stack_sym(0)
    assert g.stack_delta == 16


def test_extracts_suffixes_too():
    records = extract("pop rdi\npop rsi\nret")
    assert find_gadget(records, ["pop", "pop", "ret"]) is not None
    # The bare `pop rsi; ret` suffix is its own gadget.
    two = [r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]]
    assert two


def test_conditional_gadget_produces_constrained_records():
    records = extract(
        """
        entry:
            pop rax
            cmp rdx, rbx
            jne out
            pop rbx
            ret
        out:
            ret
        """
    )
    conditional = [r for r in records if r.conditional_jumps > 0]
    assert conditional
    assert any(r.pre_cond for r in conditional)
    assert all(r.jmp_type == JmpType.CIJ for r in conditional if r.end.value == "ret")


def test_direct_jump_merging_in_extraction():
    records = extract(
        """
        entry:
            pop rdi
            jmp tail
        tail:
            ret
        """
    )
    merged = [r for r in records if r.merged_direct_jumps > 0]
    assert merged
    assert any(r.jmp_type == JmpType.UDJ for r in merged)


def test_merge_disabled_by_config():
    records = extract(
        """
        entry:
            pop rdi
            jmp tail
        tail:
            ret
        """,
        merge_direct_jumps=False,
    )
    assert all(r.merged_direct_jumps == 0 for r in records)


def test_conditional_disabled_by_config():
    records = extract(
        """
        entry:
            cmp rdx, rbx
            jne out
            ret
        out:
            ret
        """,
        include_conditional=False,
    )
    assert all(r.conditional_jumps == 0 for r in records)


def test_unaligned_gadgets_found():
    # Hide `pop rdi; ret` inside a mov imm64.
    from repro.isa import Instruction, encode

    hidden = encode(Instruction(op=Op.POP_R, dst=Reg.RDI)) + encode(Instruction(op=Op.RET))
    imm = int.from_bytes(hidden + b"\x00" * (8 - len(hidden)), "little")
    source = f"mov rax, {imm}\nret"
    records = extract(source)
    g = find_gadget(records, ["pop", "ret"])
    assert g is not None, "unaligned gadget missed"


def test_unaligned_disabled():
    from repro.isa import Instruction, encode

    hidden = encode(Instruction(op=Op.POP_R, dst=Reg.RDI)) + encode(Instruction(op=Op.RET))
    imm = int.from_bytes(hidden + b"\x00" * (8 - len(hidden)), "little")
    records = extract(f"mov rax, {imm}\nret", probe_unaligned=False)
    assert find_gadget(records, ["pop", "ret"]) is None


def test_syscall_gadget():
    records = extract("mov rax, 59\nsyscall")
    g = find_gadget(records, ["mov", "syscall"])
    assert g is not None
    assert g.jmp_type == JmpType.SYSCALL
    assert g.post_regs[Reg.RAX] == bv_const(59)


def test_clobbered_vs_controlled():
    records = extract("mov rax, 5\npop rbx\nret")
    g = find_gadget(records, ["mov", "pop", "ret"])
    assert Reg.RAX in g.clob_regs
    assert Reg.RAX not in g.ctrl_regs  # constant, not controlled
    assert Reg.RBX in g.ctrl_regs


def test_max_candidates_cap():
    source = "\n".join("pop rax\nret" for _ in range(20))
    image = image_for(source)
    few = extract_pool(image, ExtractionConfig(max_candidates=3))
    many = extract_pool(image, ExtractionConfig())
    assert len(few) <= len(many)
    assert len(few) <= 3 * 6  # ≤ candidates × fork budget


# ---------------------------------------------------------------------------
# Syntactic classification (Fig. 1 / Table I machinery)
# ---------------------------------------------------------------------------


def test_syntactic_scan_counts_types():
    image = image_for(
        """
        entry:
            pop rax
            ret
            pop rbx
            jmp entry
            pop rcx
            jmp rax
            cmp rax, 0
            je entry
            test rax, rax
            jg somewhere
            jmp rdx
        somewhere:
            ret
        """
    )
    gadgets = scan_syntactic_gadgets(image)
    counts = count_by_type(gadgets)
    assert counts[JmpType.RET] > 0
    assert counts[JmpType.UDJ] > 0
    assert counts[JmpType.UIJ] > 0
    assert counts[JmpType.CDJ] > 0
    assert counts[JmpType.CIJ] > 0


def test_total_gadgets_monotone_in_code_size():
    small = image_for("pop rax\nret")
    big = image_for("\n".join(f"pop {r}\nret" for r in ["rax", "rbx", "rcx", "rdx"]))
    assert total_gadgets(big) > total_gadgets(small)


# ---------------------------------------------------------------------------
# Subsumption
# ---------------------------------------------------------------------------


def test_identical_gadgets_deduplicate():
    # Two copies of `pop rdi; ret` at different addresses: keep one.
    records = extract("pop rdi\nret\npop rdi\nret")
    full_copies = [
        r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]
        and r.post_regs[Reg.RDI] == stack_sym(0)
    ]
    assert len(full_copies) >= 2
    stats = SubsumptionStats()
    kept = winnow_pool(full_copies, stats)
    assert len(kept) == 1
    assert stats.reduction_factor >= 2


def test_semantically_equal_but_syntactically_different():
    # `mov rax, 0` vs `xor rax, rax` (as a gadget: both end rax=0).
    records = extract("mov rax, 0\nret\nxor rax, rax\nret")
    zeroers = [
        r
        for r in records
        if r.post_regs[Reg.RAX] == bv_const(0) and r.end.value == "ret" and not r.pre_cond
        and r.stack_delta == 8
    ]
    assert len(zeroers) >= 2
    kept = winnow_pool(zeroers)
    assert len(kept) == 1


def test_different_semantics_not_merged():
    records = extract("pop rdi\nret\npop rsi\nret")
    a = find_gadget(records, ["pop", "ret"])
    pool = [
        r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]
    ]
    # pop rdi vs pop rsi must both survive.
    kept = winnow_pool(pool)
    controlled = {tuple(sorted(r.ctrl_regs)) for r in kept}
    assert (Reg.RDI,) in controlled
    assert (Reg.RSI,) in controlled


def test_subsumption_prefers_weaker_precondition():
    records = extract(
        """
        a:
            pop rdi
            ret
        b:
            pop rdi
            cmp rbx, rbx
            je done
            hlt
        done:
            ret
        """
    )
    # Both set rdi from the stack and return; the `cmp rbx, rbx; je` one
    # has a statically-true condition so its record carries no constraint
    # — after folding they're equal; dedup keeps one of them.
    pool = [
        r
        for r in records
        if Reg.RDI in r.ctrl_regs and r.end.value == "ret" and r.post_regs[Reg.RDI] == stack_sym(0)
        and r.stack_delta == 16
    ]
    if len(pool) >= 2:
        kept = winnow_pool(pool)
        assert len(kept) < len(pool)


def test_subsumes_api_direction():
    records = extract("pop rdi\nret\npop rdi\nret")
    pool = [
        r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]
        and r.post_regs[Reg.RDI] == stack_sym(0)
    ]
    a, b = pool[0], pool[1]
    assert subsumes(a, b)
    assert subsumes(b, a)  # equivalence: mutual subsumption


def test_dedup_preserves_memory_write_gadgets():
    records = extract("mov [rdi+0], rsi\nret\npop rax\nret")
    writers = [r for r in records if r.has_side_memory_writes]
    poppers = [r for r in records if r.ctrl_regs]
    kept = winnow_pool(records)
    assert any(r.has_side_memory_writes for r in kept)
    assert any(r.ctrl_regs for r in kept)
