"""Tests for the BV solver frontend: fast paths, bit-blasting, models."""

from hypothesis import given, settings, strategies as st

import pytest

import repro.solver.solver as solver_mod
from repro.obs import metrics
from repro.solver import Solver, Status
from repro.symex.expr import (
    MASK64,
    BoolConn,
    BoolExpr,
    Cmp,
    CmpOp,
    bool_or,
    bv_add,
    bv_and,
    bv_const,
    bv_eq,
    bv_ite,
    bv_mul,
    bv_ne,
    bv_not,
    bv_shl,
    bv_sub,
    bv_sym,
    bv_udiv,
    bv_umod,
    bv_xor,
    cmp,
    eval_bool,
)

S = Solver()
X = bv_sym("x")
Y = bv_sym("y")
Z = bv_sym("z")


def test_trivial_sat():
    assert S.check([]).is_sat


def test_binding_fast_path():
    result = S.check([bv_eq(X, bv_const(59)), bv_eq(Y, bv_const(0))])
    assert result.is_sat
    assert result.model["x"] == 59
    assert result.model["y"] == 0


def test_conflicting_bindings_unsat():
    assert S.check([bv_eq(X, bv_const(1)), bv_eq(X, bv_const(2))]).is_unsat


def test_propagation_through_expressions():
    # x == 5 and x + y == 9 → y == 4
    result = S.check([bv_eq(X, bv_const(5)), bv_eq(bv_add(X, Y), bv_const(9))])
    assert result.is_sat
    assert (result.model["x"] + result.model["y"]) & MASK64 == 9


def test_sat_needs_bitblasting():
    # x ^ y == 0xff and x & y == 0 → e.g. x=0xff, y=0
    result = S.check([bv_eq(bv_xor(X, Y), bv_const(0xFF)), bv_eq(bv_and(X, Y), bv_const(0))])
    assert result.is_sat
    m = result.model
    assert m["x"] ^ m["y"] == 0xFF
    assert m["x"] & m["y"] == 0


def test_unsat_arithmetic():
    # x + 1 == x is unsatisfiable in BV arithmetic
    assert S.check([bv_eq(bv_add(X, bv_const(1)), X)]).is_unsat


def test_overflow_wraps_makes_sat():
    # x + 1 == 0 has the solution x == 2^64-1
    result = S.check([bv_eq(bv_add(X, bv_const(1)), bv_const(0))])
    assert result.is_sat
    assert result.model["x"] == MASK64


def test_unsigned_vs_signed_bounds():
    big = bv_const(1 << 63)
    result = S.check([cmp(CmpOp.SLT, X, bv_const(0)), cmp(CmpOp.ULT, X, bv_add(big, bv_const(1)))])
    assert result.is_sat
    assert result.model["x"] == 1 << 63


def test_prove_valid_identity():
    # x ^ y == (~x & y) | (x & ~y) — the paper's instruction-substitution identity
    from repro.symex.expr import bv_or

    lhs = bv_xor(X, Y)
    identity = bv_or(bv_and(bv_not(X), Y), bv_and(X, bv_not(Y)))
    assert S.prove(bv_eq(lhs, identity))


def test_prove_invalid_rejected():
    assert not S.prove(bv_eq(bv_add(X, Y), bv_sub(X, Y)))


def test_equivalent_api():
    assert S.equivalent(bv_add(X, X), bv_mul(X, bv_const(2)))
    assert S.equivalent(bv_shl(X, 1), bv_mul(X, bv_const(2)))
    assert not S.equivalent(X, Y)


def test_equivalent_under_assumptions():
    # x == y is not valid, but it is under the assumption x == y.
    assert S.equivalent(X, Y, assuming=[bv_eq(X, Y)])


def test_opaque_predicate_always_true():
    """x*(x+1) % 2 == 0 — the canonical opaque predicate is valid."""
    expr = bv_umod(bv_mul(X, bv_add(X, bv_const(1))), bv_const(2))
    assert S.prove(bv_eq(expr, bv_const(0)))


def test_opaque_predicate_7x2_neq_y2_plus_1():
    """7x² != y²+1 stays valid mod 2⁶⁴ (squares mod 8 rule it out) —
    the solver must prove this quadratic opaque predicate UNSAT."""
    seven_x2 = bv_mul(bv_const(7), bv_mul(X, X))
    y2_plus_1 = bv_add(bv_mul(Y, Y), bv_const(1))
    assert S.check([bv_eq(seven_x2, y2_plus_1)]).is_unsat


def test_ite_constraint():
    e = bv_ite(bv_eq(X, bv_const(0)), bv_const(10), bv_const(20))
    result = S.check([bv_eq(e, bv_const(20))])
    assert result.is_sat
    assert result.model["x"] != 0


def test_division_constraint():
    result = S.check([bv_eq(bv_udiv(X, Y), bv_const(3)), bv_eq(Y, bv_const(5))])
    assert result.is_sat
    assert result.model["x"] // 5 == 3


def test_div_by_zero_semantics():
    # x / 0 == 0 in our semantics: so x/0 == 1 is unsat.
    zero = bv_const(0)
    assert S.check([bv_eq(bv_udiv(X, zero), bv_const(1))]).is_unsat
    # x % 0 == x: always true.
    assert S.prove(bv_eq(bv_umod(X, zero), X))


def test_disjunction():
    result = S.check([bool_or(bv_eq(X, bv_const(1)), bv_eq(X, bv_const(2))), bv_ne(X, bv_const(1))])
    assert result.is_sat
    assert result.model["x"] == 2


def test_unknown_on_tiny_budget():
    tiny = Solver(max_conflicts=1, sample_attempts=0)
    # A constraint that needs real search: multiplication inversion.
    result = tiny.check([bv_eq(bv_mul(X, X), bv_const(0x123456789))])
    assert result.status in (Status.UNKNOWN, Status.UNSAT)


U64 = st.integers(min_value=0, max_value=MASK64)


@settings(deadline=None, max_examples=30)
@given(a=U64, b=st.integers(min_value=0, max_value=1 << 16))
def test_property_linear_equations_solved(a, b):
    """x + a == b always has the unique model x = b - a."""
    result = S.check([bv_eq(bv_add(X, bv_const(a)), bv_const(b))])
    assert result.is_sat
    assert (result.model["x"] + a) & MASK64 == b


@settings(deadline=None, max_examples=20)
@given(a=U64)
def test_property_model_satisfies_constraints(a):
    constraints = [
        bv_eq(bv_xor(X, bv_const(a)), Y),
        cmp(CmpOp.ULE, Z, bv_const(100)),
        bv_eq(bv_and(Z, bv_const(1)), bv_const(1)),
    ]
    result = S.check(constraints)
    assert result.is_sat
    env = dict(result.model)
    for c in constraints:
        assert eval_bool(c, env)


# ---------------------------------------------------------------------------
# complementary-atom refutation
# ---------------------------------------------------------------------------

Q = bv_udiv(X, Y)


def _not(arg):
    return BoolExpr(BoolConn.NOT, (arg,))


COMPLEMENTARY = {
    "eq_ne": [Cmp(CmpOp.NE, Q, bv_const(0)), Cmp(CmpOp.EQ, Q, bv_const(0))],
    "eq_ne_swapped": [Cmp(CmpOp.EQ, Q, Z), Cmp(CmpOp.NE, Z, Q)],
    "eq_eq_not_swapped": [Cmp(CmpOp.EQ, X, bv_mul(Y, Z)), _not(Cmp(CmpOp.EQ, bv_mul(Y, Z), X))],
    "ult_ule": [Cmp(CmpOp.ULT, X, Y), Cmp(CmpOp.ULE, Y, X)],
    "slt_sle": [Cmp(CmpOp.SLT, bv_umod(X, Y), Z), Cmp(CmpOp.SLE, Z, bv_umod(X, Y))],
    "double_not": [_not(_not(Cmp(CmpOp.ULE, X, Y))), _not(Cmp(CmpOp.ULE, X, Y))],
    "inside_and": [
        BoolExpr(BoolConn.AND, (Cmp(CmpOp.ULT, Z, bv_const(9)), Cmp(CmpOp.EQ, Q, bv_const(0)))),
        Cmp(CmpOp.NE, Q, bv_const(0)),
    ],
}


@pytest.mark.parametrize("name", sorted(COMPLEMENTARY))
def test_complementary_atoms_refuted_without_bitblasting(name):
    solver = Solver()
    before = metrics().counter("solver.atom_refutations").value
    assert solver.check(COMPLEMENTARY[name]).is_unsat
    assert solver.atom_refutations == 1 and solver.sat_calls == 0
    assert metrics().counter("solver.atom_refutations").value == before + 1


def test_non_complementary_atoms_are_not_refuted():
    solver = Solver()
    # Same operands, but u< and s< are different atoms; x u< y and
    # y u< x are both strict, so not each other's negation; x u< y and
    # x u<= y agree.
    for query in (
        [Cmp(CmpOp.ULT, X, Y), Cmp(CmpOp.SLE, Y, X)],
        [Cmp(CmpOp.ULT, X, Y), Cmp(CmpOp.ULT, bv_add(Y, bv_const(5)), X)],
        [Cmp(CmpOp.ULT, X, Y), Cmp(CmpOp.ULE, X, Y)],
        [Cmp(CmpOp.SLT, X, Y), Cmp(CmpOp.SLE, X, Y)],
    ):
        assert solver.check(query).is_sat
    assert solver.atom_refutations == 0


def test_refutation_leaves_later_models_unchanged(monkeypatch):
    """A refuted query draws the samples sampling would have drawn, so
    the models of later queries match a solver that samples and blasts."""
    queries = [
        [Cmp(CmpOp.EQ, X, Y), Cmp(CmpOp.NE, Y, X)],
        [Cmp(CmpOp.ULT, bv_const(0x1000), X), bv_ne(Y, X), bv_ne(Y, bv_const(0))],
    ]
    refuting = Solver()
    models = [refuting.check(q) for q in queries]
    assert refuting.atom_refutations == 1

    monkeypatch.setattr(solver_mod, "_has_complementary_atoms", lambda conjuncts: False)
    blasting = Solver()
    assert [blasting.check(q) for q in queries] == models
    assert blasting.atom_refutations == 0 and blasting.sat_calls >= 1
