"""Bit-vector constraint solver frontend (the Z3 stand-in).

Layered decision procedure:

1. **Syntactic**: smart-constructor folding already reduced each
   constraint; a ``FALSE`` conjunct is UNSAT, all-``TRUE`` is SAT.
2. **Equality propagation**: ``sym == const`` conjuncts are substituted
   through the rest and the system re-simplified to a fixpoint.  This
   alone discharges the vast majority of plan-binding queries
   ("stack slot 3 must equal 59").
3. **Complementary atoms**: each residual conjunct is mapped to a
   canonical ``(atom, polarity)`` — ``NOT`` flips the polarity,
   ``a != b`` is ``not (a == b)`` with ``==`` unordered, ``a u<= b`` is
   ``not (b u< a)`` and ``a s<= b`` is ``not (b s< a)`` — and an atom
   asserted with both polarities is UNSAT at the word level.  This step
   only ever answers UNSAT, so every SAT verdict and model is the one
   the later layers give.  It discharges winnowing's costliest queries,
   e.g. ``(x udiv y) != 0 and (x udiv y) == 0``, without bit-blasting
   a 64-bit divider.
4. **Random sampling**: a handful of random assignments to the free
   variables; any hit is a model.  Catches loose constraint systems
   without touching CNF.
5. **Bit-blasting + CDCL SAT** (:mod:`repro.solver.bitblast`,
   :mod:`repro.solver.sat`) as the complete fallback, with a conflict
   budget so pathological queries return UNKNOWN instead of hanging.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..symex.expr import (
    BV,
    BVConst,
    BVSym,
    Bool,
    BoolConn,
    BoolConst,
    BoolExpr,
    Cmp,
    CmpOp,
    bool_and,
    bool_not,
    bv_eq,
    eval_bool,
    free_symbols,
    substitute,
)
from ..obs import metrics
from .bitblast import BitBlaster, BlastError
from .sat import SATBudgetExceeded, SATSolver


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverResult:
    status: Status
    model: Dict[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT


def _flatten_conjuncts(constraints: Iterable[Bool]) -> List[Bool]:
    out: List[Bool] = []
    stack = list(constraints)
    while stack:
        c = stack.pop()
        if isinstance(c, BoolExpr) and c.conn is BoolConn.AND:
            stack.extend(c.args)
        else:
            out.append(c)
    return out


def _propagate_equalities(conjuncts: List[Bool]) -> tuple[List[Bool], Dict[str, int], bool]:
    """Substitute ``sym == const`` bindings to a fixpoint.

    Returns (residual conjuncts, bindings, consistent?).
    """
    bindings: Dict[str, int] = {}
    work = list(conjuncts)
    changed = True
    while changed:
        changed = False
        residual: List[Bool] = []
        for c in work:
            if isinstance(c, BoolConst):
                if not c.value:
                    return [], bindings, False
                continue
            if isinstance(c, Cmp) and c.op is CmpOp.EQ:
                sym, const = None, None
                if isinstance(c.lhs, BVSym) and isinstance(c.rhs, BVConst):
                    sym, const = c.lhs.name, c.rhs.value
                elif isinstance(c.rhs, BVSym) and isinstance(c.lhs, BVConst):
                    sym, const = c.rhs.name, c.lhs.value
                if sym is not None:
                    if sym in bindings and bindings[sym] != const:
                        return [], bindings, False
                    if sym not in bindings:
                        bindings[sym] = const
                        changed = True
                    continue
            residual.append(c)
        if changed and bindings:
            subs = {name: BVConst(value) for name, value in bindings.items()}
            work = []
            for c in residual:
                simplified = substitute(c, subs)
                if isinstance(simplified, BoolConst) and not simplified.value:
                    return [], bindings, False
                work.append(simplified)
        else:
            work = residual
    final = [c for c in work if not (isinstance(c, BoolConst) and c.value)]
    return final, bindings, True


def _polar_atom(conjunct: Bool) -> Tuple[object, bool]:
    """``conjunct`` as a canonical ``(atom, polarity)`` pair.

    Two conjuncts with the same atom and opposite polarities are
    complementary: no assignment satisfies both.
    """
    polarity = True
    while isinstance(conjunct, BoolExpr) and conjunct.conn is BoolConn.NOT:
        conjunct = conjunct.args[0]
        polarity = not polarity
    if not isinstance(conjunct, Cmp):
        return conjunct, polarity
    op, lhs, rhs = conjunct.op, conjunct.lhs, conjunct.rhs
    if op is CmpOp.EQ or op is CmpOp.NE:
        return (CmpOp.EQ, frozenset((lhs, rhs))), polarity == (op is CmpOp.EQ)
    if op is CmpOp.ULE:
        return (CmpOp.ULT, rhs, lhs), not polarity
    if op is CmpOp.SLE:
        return (CmpOp.SLT, rhs, lhs), not polarity
    return (op, lhs, rhs), polarity


def _has_complementary_atoms(conjuncts: List[Bool]) -> bool:
    polarities: Dict[object, bool] = {}
    for c in conjuncts:
        atom, polarity = _polar_atom(c)
        if polarities.setdefault(atom, polarity) != polarity:
            return True
    return False


class Solver:
    """Stateless checker over conjunctions of :class:`Bool` constraints.

    "Stateless" semantically: every :meth:`check` answer depends only on
    the constraints.  That makes the instance-level memo sound — repeat
    queries (common during winnowing, where the same pre-condition pairs
    recur across buckets) return the first answer verbatim.
    """

    def __init__(
        self,
        *,
        max_conflicts: int = 200_000,
        sample_attempts: int = 24,
        rng_seed: int = 0x5EED,
        memoize: bool = True,
        memo_limit: int = 100_000,
    ) -> None:
        self.max_conflicts = max_conflicts
        self.sample_attempts = sample_attempts
        self._rng = random.Random(rng_seed)
        self.memoize = memoize
        self.memo_limit = memo_limit
        self._memo: Dict[tuple, SolverResult] = {}
        self.queries = 0
        self.memo_hits = 0
        self.atom_refutations = 0  # checks refuted by complementary atoms
        self.sat_calls = 0  # checks that fell through to bit-blasting
        self.sat_conflicts = 0  # CDCL conflicts spent across those calls
        self.unknowns = 0  # budget/blast failures answered UNKNOWN

    # -- public API -----------------------------------------------------------

    def check(self, constraints: Sequence[Bool]) -> SolverResult:
        """Decide satisfiability of the conjunction of ``constraints``."""
        self.queries += 1
        key = None
        if self.memoize:
            try:
                key = tuple(constraints)
            except TypeError:  # pragma: no cover - defensive
                key = None
            if key is not None and key in self._memo:
                self.memo_hits += 1
                cached = self._memo[key]
                return SolverResult(cached.status, dict(cached.model))
        result = self._check_uncached(constraints)
        if key is not None:
            if len(self._memo) >= self.memo_limit:
                self._memo.clear()
            self._memo[key] = SolverResult(result.status, dict(result.model))
        return result

    @property
    def memo_hit_rate(self) -> float:
        return self.memo_hits / self.queries if self.queries else 0.0

    def _check_uncached(self, constraints: Sequence[Bool]) -> SolverResult:
        conjuncts = _flatten_conjuncts(constraints)
        residual, bindings, consistent = _propagate_equalities(conjuncts)
        if not consistent:
            return SolverResult(Status.UNSAT)
        if not residual:
            return SolverResult(Status.SAT, model=dict(bindings))
        symbols = sorted(set().union(*(free_symbols(c) for c in residual)))
        if _has_complementary_atoms(residual):
            self.atom_refutations += 1
            metrics().counter("solver.atom_refutations").inc()
            # Sampling would have drawn (and rejected) all its samples;
            # draw them too, so the models of later checks are unchanged.
            for _ in self._samples(symbols):
                pass
            return SolverResult(Status.UNSAT)
        sampled = self._try_sampling(residual, symbols)
        if sampled is not None:
            sampled.update(bindings)
            return SolverResult(Status.SAT, model=sampled)
        return self._check_with_sat(residual, symbols, bindings)

    def prove(self, formula: Bool) -> bool:
        """True iff ``formula`` is valid (its negation is UNSAT)."""
        return self.check([bool_not(formula)]).is_unsat

    def equivalent(self, a: BV, b: BV, assuming: Optional[Sequence[Bool]] = None) -> bool:
        """True iff ``a == b`` under the (optional) assumptions."""
        if a == b:
            return True
        goal = bv_eq(a, b)
        if assuming:
            hypothesis = bool_and(*assuming)
            query = [hypothesis, bool_not(goal)]
        else:
            query = [bool_not(goal)]
        return self.check(query).is_unsat

    def satisfiable(self, constraints: Sequence[Bool]) -> bool:
        return self.check(constraints).is_sat

    # -- internals ---------------------------------------------------------------

    def _samples(self, symbols: List[str]) -> Iterator[Dict[str, int]]:
        """The assignments sampling tries, in order (drawing advances the RNG)."""
        if len(symbols) > 64:
            return
        special = [0, 1, (1 << 64) - 1, 59, 0x600000]
        for attempt in range(self.sample_attempts):
            env = {}
            for s in symbols:
                if attempt < len(special):
                    env[s] = special[attempt]
                else:
                    env[s] = self._rng.getrandbits(64)
            yield env

    def _try_sampling(self, conjuncts: List[Bool], symbols: List[str]) -> Optional[Dict[str, int]]:
        for env in self._samples(symbols):
            try:
                if all(eval_bool(c, env) for c in conjuncts):
                    return env
            except Exception:  # pragma: no cover - defensive
                return None
        return None

    def _check_with_sat(
        self, conjuncts: List[Bool], symbols: List[str], bindings: Dict[str, int]
    ) -> SolverResult:
        self.sat_calls += 1
        registry = metrics()
        registry.counter("solver.sat_calls").inc()
        sat = SATSolver()
        blaster = BitBlaster(sat)
        try:
            for c in conjuncts:
                blaster.assert_bool(c)
        except BlastError:
            self.unknowns += 1
            registry.counter("solver.unknowns").inc()
            return SolverResult(Status.UNKNOWN)
        try:
            result = sat.solve(max_conflicts=self.max_conflicts)
        except SATBudgetExceeded as budget:
            self.unknowns += 1
            self.sat_conflicts += budget.conflicts
            registry.counter("solver.unknowns").inc()
            registry.histogram("solver.conflicts_per_check").observe(budget.conflicts)
            return SolverResult(Status.UNKNOWN)
        self.sat_conflicts += result.conflicts
        registry.histogram("solver.conflicts_per_check").observe(result.conflicts)
        if not result.satisfiable:
            return SolverResult(Status.UNSAT)
        model = {name: blaster.extract_value(name, result.model) for name in symbols}
        model.update(bindings)
        return SolverResult(Status.SAT, model=model)


#: A module-level default solver for casual callers.
DEFAULT_SOLVER = Solver()


def check(constraints: Sequence[Bool]) -> SolverResult:
    return DEFAULT_SOLVER.check(constraints)


def prove(formula: Bool) -> bool:
    return DEFAULT_SOLVER.prove(formula)
