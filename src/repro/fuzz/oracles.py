"""The cross-layer oracle bank.

Every oracle is a pure function from a replayable :class:`Case` (or
its raw ingredients) to a list of failure messages — empty means
"agreed or inconclusive".  Inconclusive situations (wild writes the
symbolic side cannot bind, division traps, path-budget truncation,
unmapped wild reads) are deliberately *skipped*, never reported: a
differential oracle must only fire when both sides made a checkable
claim about the same execution.

The oracles:

``roundtrip``
    ``encode(decode(data, off))`` reproduces the canonical bytes at
    every offset of an image, and ``decode_window`` chains are
    self-consistent at unaligned offsets.
``emu_symex``
    For a window's feasible symbolic path (constraints evaluated under
    a concrete seeded machine), the concrete emulator follows the same
    instruction trace and lands on the same post-registers and jump
    target.
``prefilter``
    Static-analysis soundness: any window the
    :class:`~repro.staticanalysis.window.WindowAnalyzer` culls yields
    zero usable symbolic paths.
``winnow``
    Subsumption only drops records with a same-fingerprint survivor
    that agrees under fresh concrete probes (trial keys disjoint from
    the ones the winnower itself used).
``serialize``
    ``pool_from_bytes(pool_to_bytes(pool))`` is byte-stable.
``pipeline``
    A warm :class:`~repro.pipeline.ResultCache` run returns pools
    byte-identical to the cold run that filled the cache.
``planner``
    A defenses-off policy produces the same payloads as no policy.
``obfuscation``
    Every obfuscation config preserves a program's concrete output.
``solver``
    Every SAT model the :class:`~repro.solver.Solver` returns satisfies
    each constraint under ``eval_bool``, and no query it answers UNSAT
    is satisfiable under a direct bit-blast of the same constraints.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..binfmt.image import TEXT_BASE, make_image
from ..emulator.cpu import DivideError, Emulator, EmulatorError, run_image
from ..emulator.memory import MemoryFault
from ..gadgets.extract import ExtractionConfig
from ..gadgets.record import GadgetRecord
from ..gadgets.subsumption import fingerprint
from ..isa.encoding import DecodeError, decode, decode_window, encode
from ..isa.instructions import opcode_operands
from ..isa.registers import ALL_REGS, MASK64, Flag, Reg
from ..obfuscation.pipeline import CONFIGS, build_program
from ..pipeline import (
    ResultCache,
    constraints_from_bytes,
    extract_pool,
    pool_from_bytes,
    pool_to_bytes,
    run_pipeline,
    winnow_pool,
)
from ..solver.bitblast import BitBlaster, BlastError
from ..solver.sat import SATBudgetExceeded, SATSolver
from ..solver.solver import Solver
from ..symex.executor import EndKind, SymbolicExecutor
from ..symex.expr import Bool, eval_bool, eval_bv
from ..symex.state import FLAG_SYM_PREFIX, reg_sym, stack_sym_offset
from ..staticanalysis.decode_graph import shared_decode_graph
from ..staticanalysis.window import WindowAnalyzer

EmulatorFactory = Callable[..., Emulator]


class Inconclusive(Exception):
    """The two sides did not make a comparable claim; skip the case."""


@dataclass(frozen=True)
class Case:
    """One replayable fuzz case (what the corpus serializes)."""

    oracle: str
    kind: str  # "window" | "image" | "program" | "constraints"
    text: bytes = b""
    offset: int = 0
    env_seed: int = 0
    max_insns: int = 8
    max_paths: int = 4
    source: str = ""
    configs: Tuple[str, ...] = ()
    note: str = ""


@dataclass
class OracleOutcome:
    """A single oracle invocation's result."""

    failures: List[str] = field(default_factory=list)
    inconclusive: bool = False


# ---------------------------------------------------------------------------
# encode/decode round-trip
# ---------------------------------------------------------------------------


def check_roundtrip(data: bytes) -> List[str]:
    """Canonical re-encoding and window self-consistency at every offset."""
    failures: List[str] = []
    for off in range(len(data)):
        try:
            insn = decode(data, off)
        except DecodeError:
            continue
        encoded = encode(insn)
        canonical = bytes([data[off] & 0x7F]) + data[off + 1 : off + insn.size]
        if encoded != canonical:
            failures.append(
                f"roundtrip: encode(decode) at +{off} gave {encoded.hex()} "
                f"!= canonical {canonical.hex()}"
            )
            continue
        if len(encoded) != insn.size:
            failures.append(f"roundtrip: size mismatch at +{off}: {len(encoded)} != {insn.size}")
        again = decode(encoded, 0, addr=insn.addr)
        if opcode_operands(again) != opcode_operands(insn):
            failures.append(f"roundtrip: re-decode at +{off} changed operands")
    # decode_window must agree with pointwise decode and chain addresses.
    for off in range(len(data)):
        cursor = off
        for insn in decode_window(data, off, base_addr=0):
            if insn.addr != cursor:
                failures.append(f"decode_window: non-contiguous chain at +{off}")
                break
            point = decode(data, cursor)
            if opcode_operands(point) != opcode_operands(insn):
                failures.append(f"decode_window: disagrees with decode at +{cursor}")
                break
            cursor += insn.size
    return failures


# ---------------------------------------------------------------------------
# emulator vs symbolic executor
# ---------------------------------------------------------------------------

#: Stack bytes seeded on each side of rsp0 (both machine copies see
#: the same pseudo-random payload; everything else is zero-fill).
_STACK_SALT_LO = -0x200
_STACK_SALT_HI = 0x400

_FLAG_ORDER = (Flag.ZF, Flag.SF, Flag.CF, Flag.OF)


def _seed_machine(emu: Emulator, env_seed: int) -> None:
    rng = random.Random(f"fuzzenv:{env_seed}")
    rsp0 = emu.cpu.get(Reg.RSP)
    for off in range(_STACK_SALT_LO, _STACK_SALT_HI, 8):
        emu.memory.write_u64((rsp0 + off) & MASK64, rng.getrandbits(64))
    for reg in ALL_REGS:
        if reg == Reg.RSP:
            continue
        roll = rng.random()
        if roll < 0.20:
            value = (rsp0 + rng.randrange(_STACK_SALT_LO // 8, _STACK_SALT_HI // 8) * 8) & MASK64
        elif roll < 0.35:
            value = rng.randrange(0, 16)
        else:
            value = rng.getrandbits(64)
        emu.cpu.set(reg, value)
    for flag in _FLAG_ORDER:
        emu.cpu.flags[flag] = bool(rng.getrandbits(1))


class _PathEnv(dict):
    """Lazy symbol → concrete-value binding against a machine snapshot.

    Registers and flags are eagerly bound; ``stk<n>`` payload symbols
    and ``mem<n>`` wild-read symbols resolve on demand against the
    *initial* memory image (the snapshot machine is never stepped, so
    later stores cannot contaminate entry-state symbols).
    """

    def __init__(self, snapshot: Emulator, mem_reads: Sequence) -> None:
        super().__init__()
        self._memory = snapshot.memory
        self._rsp0 = snapshot.cpu.get(Reg.RSP)
        for reg in ALL_REGS:
            self[str(reg_sym(reg))] = snapshot.cpu.get(reg)
        for flag in _FLAG_ORDER:
            self[f"{FLAG_SYM_PREFIX}{flag.value}"] = int(snapshot.cpu.flags[flag])
        self._wild = {str(r.value_sym): r for r in mem_reads}

    def __missing__(self, name: str) -> int:
        offset = stack_sym_offset(name)
        if offset is not None:
            value = self._read((self._rsp0 + offset) & MASK64, 8)
        else:
            read = self._wild.get(name)
            if read is None:
                raise Inconclusive(f"unbindable symbol {name}")
            addr = eval_bv(read.addr, self) & MASK64
            value = self._read(addr, read.width)
        self[name] = value
        return value

    def _read(self, addr: int, width: int) -> int:
        try:
            if width == 8:
                return self._memory.read_u64(addr)
            return self._memory.read_u8(addr)
        except MemoryFault:
            raise Inconclusive(f"unmapped concrete read at {addr:#x}") from None


def check_window(
    text: bytes,
    offset: int,
    env_seed: int,
    *,
    max_insns: int = 8,
    max_paths: int = 4,
    emulator_factory: EmulatorFactory = Emulator,
) -> List[str]:
    """Differential emulator-vs-symex check of one window.

    Picks the (unique) symbolic path whose constraints hold under a
    seeded concrete machine, then drives the emulator down the same
    window and compares the instruction trace, all sixteen
    post-registers, and the jump target.
    """
    outcome = _check_window_outcome(
        text, offset, env_seed,
        max_insns=max_insns, max_paths=max_paths, emulator_factory=emulator_factory,
    )
    return outcome.failures


def _check_window_outcome(
    text: bytes,
    offset: int,
    env_seed: int,
    *,
    max_insns: int,
    max_paths: int,
    emulator_factory: EmulatorFactory,
) -> OracleOutcome:
    image = make_image(text)
    base = image.text.addr
    addr = base + offset
    executor = SymbolicExecutor(text, base, max_insns=max_insns, max_paths=max_paths)
    paths = [p for p in executor.execute_paths(addr) if p.is_usable]
    if not paths:
        return OracleOutcome()

    snapshot = emulator_factory(image, stop_on_attack=False)
    _seed_machine(snapshot, env_seed)

    feasible = []
    inconclusive = False
    for path in paths:
        if path.state.stack_smashed:
            inconclusive = True
            continue
        if any(w.stack_offset is None for w in path.state.mem_writes):
            inconclusive = True  # wild write: concrete side effects unmodeled
            continue
        env = _PathEnv(snapshot, path.state.mem_reads)
        try:
            if all(eval_bool(c, env) for c in path.state.constraints):
                feasible.append((path, env))
        except Inconclusive:
            inconclusive = True
    if not feasible:
        return OracleOutcome(inconclusive=inconclusive)
    if len(feasible) > 1:
        traces = {tuple(i.addr for i in p.insns) for p, _ in feasible}
        if len(traces) > 1:
            return OracleOutcome(
                failures=[
                    f"symex: {len(feasible)} distinct paths of window {offset:+#x} are "
                    "simultaneously feasible (constraints not mutually exclusive)"
                ]
            )
    path, env = feasible[0]

    # Pre-evaluate every claim; any unbindable symbol → inconclusive.
    try:
        expect_regs = {r: eval_bv(path.state.get(r), env) & MASK64 for r in ALL_REGS}
        expect_target = (
            eval_bv(path.jump_target, env) & MASK64 if path.end is not EndKind.SYSCALL else None
        )
    except Inconclusive:
        return OracleOutcome(inconclusive=True)

    live = emulator_factory(image, stop_on_attack=False)
    _seed_machine(live, env_seed)
    live.cpu.rip = addr
    steps = len(path.insns) - (1 if path.end is EndKind.SYSCALL else 0)
    for k in range(steps):
        expected = path.insns[k].addr
        if live.cpu.rip != expected:
            return OracleOutcome(
                failures=[
                    f"divergence at step {k}: emulator rip {live.cpu.rip:#x} != "
                    f"symex {expected:#x} ({path.insns[k]})"
                ]
            )
        try:
            live.step()
        except DivideError:
            return OracleOutcome(inconclusive=True)
        except (EmulatorError, MemoryFault) as exc:
            return OracleOutcome(
                failures=[f"emulator fault at step {k} ({path.insns[k]}): {exc}"]
            )
    failures: List[str] = []
    for reg in ALL_REGS:
        got = live.cpu.get(reg)
        if got != expect_regs[reg]:
            failures.append(
                f"post-reg {reg}: emulator {got:#x} != symex {expect_regs[reg]:#x}"
            )
    if expect_target is not None and live.cpu.rip != expect_target:
        failures.append(
            f"jump target: emulator rip {live.cpu.rip:#x} != symex {expect_target:#x}"
        )
    if path.end is EndKind.SYSCALL and live.cpu.rip != path.insns[-1].addr:
        failures.append(
            f"syscall path: emulator rip {live.cpu.rip:#x} != {path.insns[-1].addr:#x}"
        )
    return OracleOutcome(failures=failures)


# ---------------------------------------------------------------------------
# static-prefilter soundness
# ---------------------------------------------------------------------------


def check_prefilter(text: bytes, *, max_insns: int = 6, max_paths: int = 6) -> List[str]:
    """Nothing the WindowAnalyzer culls may have a usable symbolic path."""
    base = TEXT_BASE
    graph = shared_decode_graph(text, base)
    analyzer = WindowAnalyzer(graph, max_insns=max_insns)
    executor = SymbolicExecutor(text, base, max_insns=max_insns, max_paths=max_paths)
    failures: List[str] = []
    for off in range(len(text)):
        if analyzer.reaches_transfer(base + off):
            continue
        usable = [p for p in executor.execute_paths(base + off) if p.is_usable]
        if usable:
            failures.append(
                f"prefilter: culled {base + off:#x} but symex found "
                f"{len(usable)} usable path(s) ending {usable[0].end.name}"
            )
    return failures


# ---------------------------------------------------------------------------
# winnow subsumption vs fresh concrete probes
# ---------------------------------------------------------------------------


class _FreshProbeEnv(dict):
    """Deterministic symbol valuation keyed off-track from the
    winnower's own probe trials (blake2b domain ``fuzzprobe``)."""

    def __init__(self, trial: int) -> None:
        super().__init__()
        self._trial = trial

    def __missing__(self, name: str) -> int:
        digest = blake2b(f"fuzzprobe:{self._trial}:{name}".encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        self[name] = value
        return value


def _probe_claims(record: GadgetRecord, trial: int) -> Optional[Tuple]:
    env = _FreshProbeEnv(trial)
    try:
        if not all(eval_bool(c, env) for c in record.pre_cond):
            return None
        regs = tuple(eval_bv(record.post_regs[r], env) & MASK64 for r in ALL_REGS)
        target = eval_bv(record.jump_target, env) & MASK64
    except KeyError:
        return None
    return regs + (target,)


def check_winnow(text: bytes, *, config: Optional[ExtractionConfig] = None) -> List[str]:
    """Winnow validity: survivors ⊆ records, and every dropped record
    has a same-fingerprint survivor agreeing under fresh probes."""
    image = make_image(text)
    config = config or ExtractionConfig(max_insns=5, max_paths=4, max_candidates=64)
    records = extract_pool(image, config)
    if not records:
        return []
    survivors = winnow_pool(records)
    failures: List[str] = []
    record_ids = {id(r) for r in records}
    surv_ids = {id(s) for s in survivors}
    for s in survivors:
        if id(s) not in record_ids:
            failures.append(f"winnow: survivor #{s.gadget_id} is not one of the input records")
    by_fp: Dict[Tuple, List[GadgetRecord]] = {}
    for s in survivors:
        by_fp.setdefault(fingerprint(s), []).append(s)
    for r in records:
        if id(r) in surv_ids:
            continue
        group = by_fp.get(fingerprint(r))
        if not group:
            failures.append(
                f"winnow: dropped #{r.gadget_id} @ {r.location:#x} with no "
                "same-fingerprint survivor"
            )
            continue
        trials = range(100, 104)
        matched = any(
            all(
                _probe_claims(r, t) is None or _probe_claims(r, t) == _probe_claims(s, t)
                for t in trials
            )
            for s in group
        )
        if not matched:
            failures.append(
                f"winnow: dropped #{r.gadget_id} @ {r.location:#x} but no survivor "
                "agrees under fresh concrete probes"
            )
    return failures


# ---------------------------------------------------------------------------
# serialization / cached pipeline / planner identities
# ---------------------------------------------------------------------------


def check_serialize(records: Sequence[GadgetRecord]) -> List[str]:
    blob = pool_to_bytes(list(records))
    back = pool_from_bytes(blob)
    if pool_to_bytes(back) != blob:
        return ["serialize: pool_to_bytes(pool_from_bytes(blob)) != blob"]
    if len(back) != len(records):
        return [f"serialize: {len(records)} records in, {len(back)} out"]
    return []


def check_pipeline(text: bytes, *, config: Optional[ExtractionConfig] = None) -> List[str]:
    image = make_image(text)
    config = config or ExtractionConfig(max_insns=5, max_paths=4, max_candidates=48)
    with tempfile.TemporaryDirectory(prefix="nfl-fuzz-cache-") as root:
        cache = ResultCache(root=root)
        cold_records, cold_surv = run_pipeline(image, config, cache=cache)
        warm_records, warm_surv = run_pipeline(image, config, cache=cache)
    failures: List[str] = []
    if pool_to_bytes(cold_records) != pool_to_bytes(warm_records):
        failures.append("pipeline: cold vs warm-cache extraction pools differ")
    if pool_to_bytes(cold_surv) != pool_to_bytes(warm_surv):
        failures.append("pipeline: cold vs warm-cache winnowed pools differ")
    return failures


def check_planner(text: bytes, *, config: Optional[ExtractionConfig] = None) -> List[str]:
    from ..defenses.policy import POLICIES
    from ..planner import GadgetPlanner
    from ..planner.search import PlannerConfig

    image = make_image(text)
    config = config or ExtractionConfig(max_insns=5, max_paths=4, max_candidates=48)
    pcfg = PlannerConfig(max_nodes=400, max_plans=2, max_steps=6)
    base = GadgetPlanner(image, extraction=config, planner=pcfg, validate=False).run()
    off = GadgetPlanner(
        image, extraction=config, planner=pcfg, validate=False, defense=POLICIES["none"]
    ).run()
    failures: List[str] = []
    if base.per_goal != off.per_goal:
        failures.append(f"planner: per_goal differs: {base.per_goal} != {off.per_goal}")
    base_payloads = [p.describe() for p in base.payloads]
    off_payloads = [p.describe() for p in off.payloads]
    if base_payloads != off_payloads:
        failures.append("planner: defenses-off payloads differ from no-policy payloads")
    return failures


# ---------------------------------------------------------------------------
# cross-config behavioral equivalence
# ---------------------------------------------------------------------------


def check_obfuscation(source: str, configs: Sequence[str], *, seed: int = 0) -> List[str]:
    reference: Optional[Tuple[int, bytes]] = None
    ref_name = ""
    failures: List[str] = []
    for name in configs:
        program = build_program(source, CONFIGS[name], seed=seed)
        status, stdout = run_image(program.image, step_limit=2_000_000)
        if reference is None:
            reference, ref_name = (status, stdout), name
        elif (status, stdout) != reference:
            failures.append(
                f"obfuscation: config {name} output {(status, stdout)!r} != "
                f"{ref_name} {reference!r}"
            )
    return failures


# ---------------------------------------------------------------------------
# solver verdicts vs concrete evaluation and a direct bit-blast
# ---------------------------------------------------------------------------

#: Conflict budget of both the solver under test and the direct encoding;
#: a query that exhausts either is inconclusive.
_SOLVER_CONFLICTS = 300


class _ZeroFill(dict):
    """A model in which symbols the solver left unconstrained read 0."""

    def __missing__(self, name: str) -> int:
        return 0


def check_solver(conjuncts: Sequence[Bool]) -> List[str]:
    """A SAT model satisfies every conjunct; an UNSAT verdict survives a
    direct bit-blast of the same conjuncts.

    Symbols missing from a model were simplified away (e.g. by equality
    propagation), so any value for them must do.
    """
    result = Solver(max_conflicts=_SOLVER_CONFLICTS).check(conjuncts)
    if result.is_sat:
        env = _ZeroFill(result.model)
        for c in conjuncts:
            if not eval_bool(c, env):
                return [f"solver: SAT model {dict(env)} violates {c}"]
    elif result.is_unsat:
        sat = SATSolver()
        blaster = BitBlaster(sat)
        try:
            for c in conjuncts:
                blaster.assert_bool(c)
            direct = sat.solve(max_conflicts=_SOLVER_CONFLICTS)
        except (BlastError, SATBudgetExceeded):
            return []
        if direct.satisfiable:
            return ["solver: UNSAT, but a direct bit-blast of the query is satisfiable"]
    return []


# ---------------------------------------------------------------------------
# case dispatch (corpus replay + shrinker re-checks)
# ---------------------------------------------------------------------------


def run_case(case: Case, *, emulator_factory: EmulatorFactory = Emulator) -> List[str]:
    """Re-run the oracle a case names; empty list = green/inconclusive."""
    if case.oracle == "roundtrip":
        return check_roundtrip(case.text)
    if case.oracle == "emu_symex":
        return check_window(
            case.text,
            case.offset,
            case.env_seed,
            max_insns=case.max_insns,
            max_paths=case.max_paths,
            emulator_factory=emulator_factory,
        )
    if case.oracle == "prefilter":
        return check_prefilter(case.text, max_insns=case.max_insns, max_paths=case.max_paths)
    if case.oracle == "winnow":
        return check_winnow(case.text)
    if case.oracle == "serialize":
        image = make_image(case.text)
        records = extract_pool(
            image, ExtractionConfig(max_insns=5, max_paths=4, max_candidates=64)
        )
        return check_serialize(records)
    if case.oracle == "pipeline":
        return check_pipeline(case.text)
    if case.oracle == "planner":
        return check_planner(case.text)
    if case.oracle == "obfuscation":
        return check_obfuscation(case.source, case.configs or ("none",), seed=case.env_seed)
    if case.oracle == "solver":
        return check_solver(constraints_from_bytes(case.text))
    raise ValueError(f"unknown oracle {case.oracle!r}")


def clone_case(case: Case, **changes) -> Case:
    return replace(case, **changes)
