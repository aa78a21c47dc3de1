"""Tests for the partial-order planner on hand-crafted gadget images.

Every successful payload here is *executed in the emulator* and must
raise the goal syscall with the planned arguments — no paper-tiger
chains."""


from repro.binfmt import make_image
from repro.emulator import Sys
from repro.isa import assemble_unit
from repro.planner import (
    GadgetPlanner,
    PlannerConfig,
    execve_goal,
    mmap_goal,
    mprotect_goal,
    resolve_goal,
)


def image_for(source, data=b""):
    unit = assemble_unit(source, base_addr=0x400000)
    return make_image(unit.code, data=data, symbols=dict(unit.labels))


def plan_on(source, goals=None, data=b"", **planner_kwargs):
    image = image_for(source, data=data)
    planner = GadgetPlanner(
        image,
        planner=PlannerConfig(**planner_kwargs) if planner_kwargs else None,
    )
    return planner.run(goals=goals), image


RICH_GADGETS = """
    hlt                 ; padding so gadgets are not at the entry point
g_pop_rax:
    pop rax
    ret
g_pop_rdi:
    pop rdi
    ret
g_pop_rsi:
    pop rsi
    ret
g_pop_rdx:
    pop rdx
    ret
g_write:
    mov [rdi+0], rsi
    ret
g_syscall:
    syscall
    ret
"""


def test_mprotect_chain_found_and_validated():
    report, image = plan_on(RICH_GADGETS, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    assert payload.event.number == Sys.MPROTECT
    assert payload.event.addr == 0x600000
    assert payload.event.prot == 7


def test_mmap_chain():
    report, _ = plan_on(RICH_GADGETS, goals=[mmap_goal()])
    assert report.per_goal["mmap"] >= 1
    assert all(p.validated for p in report.payloads)


def test_execve_chain_plants_bin_sh():
    """No "/bin/sh" in the binary: the planner must write it to scratch
    with the write-what-where gadget, then call execve."""
    report, image = plan_on(RICH_GADGETS, goals=[execve_goal()])
    assert report.per_goal["execve"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    assert payload.event.is_shell_spawn()
    # The chain must include the memory-write gadget.
    assert any(g.has_side_memory_writes for g in payload.chain)


def test_execve_uses_existing_string_when_present():
    data = b"/bin/sh\x00"
    report, image = plan_on(RICH_GADGETS, goals=[execve_goal()], data=data)
    assert report.per_goal["execve"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    # No write gadget needed: the string already lives in .data.
    assert not any(g.has_side_memory_writes for g in payload.chain)


def test_no_syscall_gadget_no_payloads():
    report, _ = plan_on("pop rax\nret\npop rdi\nret")
    assert report.total_payloads == 0


def test_missing_register_setter_blocks_goal():
    # No way to set rdx → mprotect (needs rdx=7) must fail...
    source = """
        hlt
    g1:
        pop rax
        ret
    g2:
        pop rdi
        ret
    g3:
        pop rsi
        ret
    g4:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] == 0


def test_value_through_register_move():
    """rdx can only be set via rax: pop rax; ret + mov rdx, rax; ret —
    the regression machinery must chain them (the paper's Fig. 6 point:
    a missing pop rdx; ret is not fatal)."""
    source = """
        hlt
    g1:
        pop rax
        ret
    g2:
        mov rdx, rax
        ret
    g3:
        pop rdi
        ret
    g4:
        pop rsi
        ret
    g5:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    mnemonic_chains = ["/".join(i.info.mnemonic for i in g.insns) for g in payload.chain]
    assert any("mov" in c for c in mnemonic_chains)


def test_arithmetic_register_derivation():
    """rax must be derived: pop rbx; ret + mov rax, rbx; add rax, 1; ret."""
    source = """
        hlt
    g1:
        pop rbx
        ret
    g2:
        mov rax, rbx
        add rax, 1
        ret
    g3:
        pop rdi
        ret
    g4:
        pop rsi
        ret
    g5:
        pop rdx
        ret
    g6:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] >= 1
    assert report.payloads[0].validated


def test_conditional_gadget_in_chain():
    """The pop rdx path is guarded by a conditional jump that requires
    rcx == 0 — the planner must discharge the precondition (Fig. 4)."""
    source = """
        hlt
    g1:
        pop rax
        ret
    g2:
        pop rdi
        ret
    g3:
        pop rsi
        ret
    g_pop_rcx:
        pop rcx
        ret
    g_cond:
        pop rdx
        cmp rcx, 0
        jne bad
        ret
    bad:
        hlt
    g6:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)], max_nodes=8000)
    assert report.per_goal["mprotect"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    assert any(g.conditional_jumps > 0 for g in payload.chain)


def test_jmp_reg_gadget_with_controlled_target():
    """A gadget ending `jmp rbx` where rbx was just popped in-gadget:
    the planner must bind the popped word to the next gadget address."""
    source = """
        hlt
    g1:
        pop rdi
        pop rbx
        jmp rbx
    g2:
        pop rax
        ret
    g3:
        pop rsi
        ret
    g4:
        pop rdx
        ret
    g5:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)], max_nodes=8000)
    assert report.per_goal["mprotect"] >= 1
    # At least one validated payload; ideally one through the jmp gadget.
    assert any(p.validated for p in report.payloads)


def test_multiple_plans_emitted():
    """Gadget-Planner "keeps searching for more diverse gadget chains":
    with two distinct rdi setters, expect >1 mprotect payload."""
    # A semantically distinct second rdi setter (different clobbers &
    # stack shape) — identical variants are merged by subsumption.
    source = RICH_GADGETS + """
g_pop_rdi_2:
    pop rdi
    pop rcx
    ret
"""
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)], max_plans=8)
    assert report.per_goal["mprotect"] >= 2


def test_payload_words_contain_goal_values():
    report, _ = plan_on(RICH_GADGETS, goals=[mprotect_goal(addr=0x600000)])
    payload = report.payloads[0]
    assert 0x600000 in payload.words
    assert 10 in payload.words  # SYS_mprotect
    assert 7 in payload.words


def test_report_timings_populated():
    report, _ = plan_on(RICH_GADGETS, goals=[mmap_goal()])
    t = report.timings
    assert t.extraction > 0
    assert t.subsumption > 0
    assert t.planning >= 0
    assert t.total > 0


def test_subsumption_reduces_pool():
    report, _ = plan_on(RICH_GADGETS)
    assert report.gadgets_after_subsumption < report.gadgets_total


def test_resolve_goal_pointer_modes():
    image = image_for(RICH_GADGETS, data=b"/bin/sh\x00")
    resolved = resolve_goal(image, execve_goal())
    assert not resolved.memory_goals  # found in image
    image2 = image_for(RICH_GADGETS)
    resolved2 = resolve_goal(image2, execve_goal())
    assert resolved2.memory_goals
    assert resolved2.memory_goals[0].data == b"/bin/sh\x00"
    words = resolved2.memory_goals[0].words()
    assert words[0][1] == int.from_bytes(b"/bin/sh\x00", "little")


def test_describe_chain_renders():
    report, _ = plan_on(RICH_GADGETS, goals=[mmap_goal()])
    text = report.payloads[0].describe()
    assert "payload[mmap]" in text
    assert "goal:" in text


def test_rejected_assemblies_are_counted_per_goal(monkeypatch):
    import repro.planner as planner_mod
    from repro.planner import AssemblyError

    clean, _ = plan_on(RICH_GADGETS, goals=[mprotect_goal(addr=0x600000), mmap_goal()])
    assert clean.assembly_errors == {"mprotect": 0, "mmap": 0}

    def reject(plan, resolved, **kwargs):
        raise AssemblyError("orderings admit no valid linearization")

    monkeypatch.setattr(planner_mod, "assemble_payload", reject)
    report, _ = plan_on(RICH_GADGETS, goals=[mprotect_goal(addr=0x600000), mmap_goal()])
    assert report.payloads == []
    for goal in ("mprotect", "mmap"):
        plans = report.search_stats[goal].plans_emitted
        assert plans >= 1
        assert report.assembly_errors[goal] == plans
