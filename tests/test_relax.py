"""Relaxation construction."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given

from modsat.cnf import Formula, clause_of
from modsat.errors import UnsupportedFormulaError
from modsat.relax import (
    AFFINE,
    BOUND_K,
    BOUND_K_MINUS_1,
    FAITHFUL,
    build_relaxation,
)
from modsat.simplex import FEASIBLE, LinearConstraint, max_violation, solve

from conftest import formulas


def test_faithful_shape():
    f = Formula(3, (clause_of(1, -2), clause_of(2, 3)))
    system = build_relaxation(f, FAITHFUL, BOUND_K)
    assert system.num_vars == 3
    assert system.constraints == (
        LinearConstraint({0: 1, 1: 1}, 2),
        LinearConstraint({1: 1, 2: 1}, 2),
    )
    tighter = build_relaxation(f, FAITHFUL, BOUND_K_MINUS_1)
    assert [c.bound for c in tighter.constraints] == [1, 1]


def test_faithful_ignores_polarity():
    plain = build_relaxation(Formula(2, (clause_of(1, 2),)), FAITHFUL, BOUND_K)
    negated = build_relaxation(Formula(2, (clause_of(-1, -2),)), FAITHFUL, BOUND_K)
    assert plain.constraints == negated.constraints


def test_affine_shape_with_box_rows():
    f = Formula(2, (clause_of(-1, 2),))
    system = build_relaxation(f, AFFINE, BOUND_K_MINUS_1)
    # (1 - X0) + X1 <= 1 folds to -X0 + X1 <= 0 with offset 1, then boxes.
    assert system.constraints == (
        LinearConstraint({0: -1, 1: 1}, 0, offset=1),
        LinearConstraint({0: 1}, 1),
        LinearConstraint({1: 1}, 1),
    )


def test_affine_all_negated_constant_bound():
    f = Formula(2, (clause_of(-1, -2),))
    system = build_relaxation(f, AFFINE, BOUND_K)
    con = system.constraints[0]
    assert con.coefficients == {0: -1, 1: -1}
    assert con.bound == 0
    assert con.offset == 2


def test_affine_allows_mixed_widths():
    f = Formula(3, (clause_of(1, 2), clause_of(-1, 2, 3)))
    system = build_relaxation(f, AFFINE, BOUND_K_MINUS_1)
    assert system.constraints[0].bound == 1
    assert system.constraints[1].bound == 2 - 1  # width 3, one negation folded


def test_faithful_rejects_mixed_widths():
    f = Formula(3, (clause_of(1, 2), clause_of(1, 2, 3)))
    with pytest.raises(UnsupportedFormulaError):
        build_relaxation(f, FAITHFUL, BOUND_K)
    # Affine accepts the same formula.
    build_relaxation(f, AFFINE, BOUND_K)


def test_empty_formula_allowed():
    system = build_relaxation(Formula(3, ()), FAITHFUL, BOUND_K)
    assert system.constraints == ()
    affine = build_relaxation(Formula(2, ()), AFFINE, BOUND_K)
    assert len(affine.constraints) == 2  # box rows only


def test_mode_validation():
    f = Formula(1, ())
    with pytest.raises(ValueError):
        build_relaxation(f, "other", BOUND_K)
    with pytest.raises(ValueError):
        build_relaxation(f, FAITHFUL, "loose")


def test_tautological_clause_cancels_to_constant_row():
    # x1 or not x1: coefficients cancel, leaving 0 <= bound - 1.
    f = Formula(1, (clause_of(1, -1),))
    system = build_relaxation(f, AFFINE, BOUND_K)
    con = system.constraints[0]
    assert con.coefficients == {}
    assert con.bound == 1
    assert con.offset == 1
    assert solve(system).status == FEASIBLE


def test_faithful_rows_cost_what_the_clauses_cost():
    # Two clauses over variable numbers up to 2,000,000: a table sized by
    # num_vars would take tens of MiB.  Variable 3's x and not x share one
    # key, with coefficient 2.
    f = Formula(2_000_000, (clause_of(1_999_999, -2_000_000, 7), clause_of(3, -3, 5)))
    tracemalloc.start()
    try:
        system = build_relaxation(f, FAITHFUL, BOUND_K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert system.num_vars == 2_000_000
    rows = [
        (tuple(c.coefficients.items()), c.bound, c.offset) for c in system.constraints
    ]
    assert rows == [
        (((6, 1), (1_999_998, 1), (1_999_999, 1)), 3, 0),
        (((2, 2), (4, 1)), 3, 0),
    ]


@given(f=formulas(max_vars=5, max_clauses=5, min_width=2))
def test_zero_vector_always_feasible_in_faithful_mode(f):
    if f.uniform_width is None or not f.clauses:
        return
    for bound_mode in (BOUND_K, BOUND_K_MINUS_1):
        system = build_relaxation(f, FAITHFUL, bound_mode)
        zero = tuple(0 for _ in range(f.num_vars))
        assert max_violation(system, zero) <= 0


@given(f=formulas(max_vars=5, max_clauses=5, min_width=2))
def test_half_vector_always_feasible_in_affine_mode(f):
    # Every clause has >= 2 literals, so the affine row evaluates to at most
    # k/2 <= k - 1 at X = 1/2: the relaxation can never be infeasible.
    for bound_mode in (BOUND_K, BOUND_K_MINUS_1):
        system = build_relaxation(f, AFFINE, bound_mode)
        half = tuple(Fraction(1, 2) for _ in range(f.num_vars))
        assert max_violation(system, half) <= 0
