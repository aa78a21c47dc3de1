"""Tests for the differential-fuzzing subsystem (repro.fuzz).

Covers campaign determinism, every oracle's green path, the injected
emulator off-by-one being caught and auto-shrunk to a tiny reproducer,
an injected unsound solver refutation being caught and shrunk, and the
DEC/Jcc carry-flag regression the fuzzer surfaced.
"""

import json

from repro.binfmt.image import make_image
from repro.emulator.cpu import Emulator
from repro.fuzz import (
    Case,
    case_from_dict,
    case_to_dict,
    check_prefilter,
    check_roundtrip,
    check_solver,
    check_window,
    gen_bytes,
    gen_constraints,
    gen_program,
    gen_window,
    load_corpus,
    relayout,
    run_case,
    run_fuzz,
    save_case,
    shrink_case,
    spec_of,
    window_insn_count,
)
from repro.fuzz.campaign import ORACLE_NAMES
from repro.isa.encoding import decode_window, encode_program
from repro.isa.instructions import Instruction, Op
from repro.isa.registers import MASK64, Reg
from repro.obfuscation.pipeline import CONFIGS, build_program
from repro.pipeline import constraints_from_bytes, constraints_to_bytes
from repro.solver import Solver
from repro.symex.executor import SymbolicExecutor
from repro.symex.expr import free_symbols


class OffByOneEmulator(Emulator):
    """Deliberately broken: pop advances rsp by 16 instead of 8."""

    def pop(self) -> int:
        rsp = self.cpu.get(Reg.RSP)
        value = self.memory.read_u64(rsp)
        self.cpu.set(Reg.RSP, (rsp + 16) & MASK64)
        return value


def _window(spec):
    return encode_program(relayout(spec, base=0))


I = Instruction
R = Reg

_DEC_JB = _window(
    [
        (I(op=Op.DEC_R, dst=R.RAX), None),
        (I(op=Op.JB, rel=0), 3),
        (I(op=Op.MOV_RI, dst=R.RAX, imm=7), None),
        (I(op=Op.RET), None),
    ]
)

_POP_RET = _window([(I(op=Op.POP1, dst=R.RAX), None), (I(op=Op.RET), None)])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_window_is_wellformed_and_seed_stable():
    import random

    for seed in range(30):
        a = gen_window(random.Random(f"s{seed}"))
        b = gen_window(random.Random(f"s{seed}"))
        assert [str(i) for i in a] == [str(i) for i in b]
        assert a[-1].op in (Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL)
        blob = encode_program(a)
        chain = list(decode_window(blob, 0, base_addr=0, max_insns=100))
        assert len(chain) == len(a)  # every generated window decodes fully


def test_gen_program_compiles_and_runs_everywhere():
    import random

    source = gen_program(random.Random("prog"))
    from repro.emulator.cpu import run_image

    reference = None
    for name in ("none", "substitution", "flattening"):
        program = build_program(source, CONFIGS[name], seed=3)
        result = run_image(program.image, step_limit=2_000_000)
        if reference is None:
            reference = result
        assert result == reference


def test_spec_relayout_roundtrip_preserves_targets():
    spec = [
        (I(op=Op.CMP_RR, dst=R.RAX, src=R.RBX), None),
        (I(op=Op.JNE, rel=0), 3),
        (I(op=Op.INC_R, dst=R.RCX), None),
        (I(op=Op.RET), None),
    ]
    insns = relayout(spec, base=0)
    assert insns[1].target == insns[3].addr
    again = relayout(spec_of(insns), base=0)
    assert [str(i) for i in again] == [str(i) for i in insns]


# ---------------------------------------------------------------------------
# oracles: green paths
# ---------------------------------------------------------------------------


def test_roundtrip_oracle_green_on_generated_inputs():
    import random

    rng = random.Random(0)
    assert check_roundtrip(encode_program(gen_window(rng))) == []
    assert check_roundtrip(gen_bytes(rng, 64)) == []


def test_window_oracle_green_on_fixed_windows():
    for text in (_DEC_JB, _POP_RET):
        for env_seed in range(4):
            assert check_window(text, 0, env_seed) == []


def test_prefilter_oracle_green():
    import random

    rng = random.Random(5)
    text = encode_program(gen_window(rng)) + gen_bytes(rng, 24)
    assert check_prefilter(text, max_insns=6, max_paths=6) == []


def test_campaign_deterministic_and_green():
    first = run_fuzz(seed=11, iters=12)
    second = run_fuzz(seed=11, iters=12)
    assert first.summary() == second.summary()
    assert first.total_failures == 0
    assert first.stats["roundtrip"].runs == 12
    assert first.stats["emu_symex"].runs == 12


def test_campaign_rejects_unknown_oracle():
    import pytest

    with pytest.raises(ValueError):
        run_fuzz(seed=0, iters=1, oracles=["nope"])
    assert set(ORACLE_NAMES) >= {"roundtrip", "emu_symex", "prefilter", "winnow"}


# ---------------------------------------------------------------------------
# the injected bug: caught, shrunk, banked, replayable
# ---------------------------------------------------------------------------


def test_injected_off_by_one_is_caught():
    messages = check_window(_POP_RET, 0, env_seed=1, emulator_factory=OffByOneEmulator)
    assert messages, "broken pop must diverge from symex"
    assert any("rsp" in m for m in messages)


def test_injected_off_by_one_shrinks_to_tiny_reproducer(tmp_path):
    # A long window whose failing core is a single trailing ret.
    spec = [
        (I(op=Op.MOV_RI, dst=R.RBX, imm=5), None),
        (I(op=Op.ADD_RR, dst=R.RBX, src=R.RAX), None),
        (I(op=Op.POP1, dst=R.RCX), None),
        (I(op=Op.XOR_RR, dst=R.RDX, src=R.RDX), None),
        (I(op=Op.RET), None),
    ]
    case = Case(oracle="emu_symex", kind="window", text=_window(spec), offset=0, env_seed=2)
    assert run_case(case, emulator_factory=OffByOneEmulator)
    shrunk = shrink_case(case, emulator_factory=OffByOneEmulator)
    assert window_insn_count(shrunk) <= 3  # acceptance: ≤ 3 instructions
    # Still a reproducer under the buggy emulator, green under the real one.
    assert run_case(shrunk, emulator_factory=OffByOneEmulator)
    assert run_case(shrunk) == []
    # Banked and replayable through the corpus JSON round-trip.
    path = save_case(tmp_path, shrunk, description="injected off-by-one")
    [loaded] = load_corpus(tmp_path)
    assert loaded.text == shrunk.text and loaded.offset == shrunk.offset
    assert run_case(loaded, emulator_factory=OffByOneEmulator)


def test_campaign_catches_and_banks_injected_bug(tmp_path):
    report = run_fuzz(
        seed=0,
        iters=6,
        oracles=["emu_symex"],
        emulator_factory=OffByOneEmulator,
        corpus_dir=tmp_path,
    )
    assert report.total_failures > 0
    banked = list(tmp_path.glob("*.json"))
    assert banked, "failures must be banked into the corpus"
    for failure in report.failures:
        assert failure.banked is not None
        assert window_insn_count(failure.shrunk) <= 3
    # Every banked case replays red on the buggy emulator.
    for case in load_corpus(tmp_path):
        assert run_case(case, emulator_factory=OffByOneEmulator)


# ---------------------------------------------------------------------------
# the real bug the fuzzer surfaced: DEC/Jcc carry-flag staleness
# ---------------------------------------------------------------------------


def test_dec_jb_regression_symex_uses_preserved_cf():
    """DEC preserves CF (as on x86); an unsigned Jcc after DEC must
    depend on the *initial* carry, never on the DEC borrow rax < 1."""
    image = make_image(_DEC_JB)
    base = image.text.addr
    executor = SymbolicExecutor(_DEC_JB, base, max_insns=8, max_paths=4)
    paths = [p for p in executor.execute_paths(base) if p.is_usable]
    assert len(paths) == 2
    for path in paths:
        syms = set()
        for constraint in path.state.constraints:
            syms |= free_symbols(constraint)
        assert "flag_cf" in syms, "branch must read the preserved initial CF"
        assert "rax0" not in syms, "branch must not read the stale DEC borrow"
    # And the differential oracle agrees with the concrete emulator.
    for env_seed in range(8):
        assert check_window(_DEC_JB, 0, env_seed) == []


def test_prefilter_mirrors_cf_patch():
    """The abstract-flags mirror must not claim a definite unsigned
    branch direction from stale sub operands after a DEC."""
    from repro.staticanalysis.window import AbsFlags, Tribool, Const

    flags = AbsFlags.from_sub(Const(5), Const(1), Const(4)).with_cf(Tribool.UNKNOWN)
    assert flags.condition("jb") is Tribool.UNKNOWN
    assert flags.condition("jae") is Tribool.UNKNOWN
    # Equality conditions may still use the precise operands.
    assert flags.condition("jne") is Tribool.TRUE


# ---------------------------------------------------------------------------
# corpus serialization
# ---------------------------------------------------------------------------


def test_case_json_roundtrip():
    case = Case(
        oracle="emu_symex",
        kind="window",
        text=_DEC_JB,
        offset=0,
        env_seed=3,
        note="dec jb",
        configs=("none",),
    )
    data = json.loads(json.dumps(case_to_dict(case, "desc")))
    back = case_from_dict(data)
    assert back.text == case.text
    assert back.oracle == case.oracle
    assert back.configs == case.configs
    assert back.note == "desc"


# ---------------------------------------------------------------------------
# solver oracle
# ---------------------------------------------------------------------------


def _query(seed):
    import random

    return gen_constraints(random.Random(f"{seed}:solver"))


def test_gen_constraints_seed_stable_and_hides_complementary_pairs():
    assert _query(3) == _query(3)
    refuted = 0
    for seed in range(60):
        query = _query(seed)
        assert constraints_from_bytes(constraints_to_bytes(query)) == query
        solver = Solver()
        solver.check(query)
        refuted += solver.atom_refutations
    assert 20 <= refuted < 60  # most queries hide a pair, some do not


def test_solver_oracle_green_on_generated_queries():
    # Seed 0 is left out for time: its direct bit-blast alone takes ~2.5 s.
    for seed in range(1, 6):
        assert check_solver(_query(seed)) == []


def test_solver_oracle_catches_unsound_refutation(monkeypatch, tmp_path):
    import repro.solver.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_has_complementary_atoms", lambda conjuncts: True)
    report = run_fuzz(seed=0, iters=8, oracles=["solver"], corpus_dir=tmp_path)
    assert report.total_failures > 0
    for failure in report.failures:
        assert "direct bit-blast" in failure.messages[0]
        shrunk = constraints_from_bytes(failure.shrunk.text)
        assert len(shrunk) <= len(constraints_from_bytes(failure.case.text))
    for case in load_corpus(tmp_path):
        assert run_case(case)
    monkeypatch.undo()
    for case in load_corpus(tmp_path):
        assert run_case(case) == []


def test_solver_oracle_catches_wrong_model(monkeypatch):
    monkeypatch.setattr(Solver, "_try_sampling", lambda self, conjuncts, symbols: {})
    from repro.symex.expr import CmpOp, bv_const, bv_sym, cmp

    query = [cmp(CmpOp.ULT, bv_const(5), bv_sym("rax0"))]
    assert Solver().check(query).is_sat
    assert "violates" in check_solver(query)[0]
