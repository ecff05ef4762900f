"""LP relaxations of CNF formulas, one constraint per clause.

Two treatments of negated literals are built:

* faithful: polarity is ignored and each clause contributes the plain sum of
  its variables, sum(X_v) <= bound.  With X >= 0 the zero vector always
  satisfies such a system, so it can never certify unsatisfiability.
* affine: a negated literal contributes 1 - X_v; the constants are folded
  into the bound (recorded in the constraint's offset) and X_v <= 1 box rows
  are added so complements stay nonnegative.

The bound is the clause width k or k - 1.  Faithful mode requires a uniform
width; affine mode bounds each clause by its own width.
"""

from __future__ import annotations

from itertools import repeat

from .cnf import Formula, require_uniform
from .simplex import LinearConstraint, LpSystem

FAITHFUL = "faithful"
AFFINE = "affine"
BOUND_K = "k"
BOUND_K_MINUS_1 = "k-1"

NEGATION_MODES = (FAITHFUL, AFFINE)
BOUND_MODES = (BOUND_K, BOUND_K_MINUS_1)


def _check_modes(negation_mode: str, bound_mode: str) -> None:
    if negation_mode not in NEGATION_MODES:
        raise ValueError(f"unknown negation mode {negation_mode!r}")
    if bound_mode not in BOUND_MODES:
        raise ValueError(f"unknown bound mode {bound_mode!r}")


def build_relaxation(
    formula: Formula,
    negation_mode: str = FAITHFUL,
    bound_mode: str = BOUND_K,
) -> LpSystem:
    """Build the relaxation; constraint i corresponds to clause i.

    In affine mode the m clause rows are followed by one X_v <= 1 box row
    per variable.
    """
    _check_modes(negation_mode, bound_mode)
    if negation_mode == FAITHFUL:
        # Clause column passes: sorted variables become keys of coefficient 1.
        k = require_uniform(formula, 1) if formula.clauses else 0
        columns = [[abs(code) - 1 for code in col] for col in zip(*formula.clauses)]
        maps = list(map(dict.fromkeys, map(sorted, zip(*columns)), repeat(1)))
        if min(map(len, maps), default=k) < k:  # x and not x: coefficient 2
            for clause, row in zip(formula.clauses, maps):
                both = set(clause).intersection(-code for code in clause)
                row.update(dict.fromkeys((abs(code) - 1 for code in both), 2))
        rows = zip(maps, repeat(k if bound_mode == BOUND_K else k - 1), repeat(0))
        constraints = map(tuple.__new__, repeat(LinearConstraint), rows)
        return LpSystem._make(formula.num_vars, tuple(constraints))
    constraints = []
    for clause in formula.clauses:
        bound = len(clause) if bound_mode == BOUND_K else len(clause) - 1
        coeffs: dict[int, int] = {}
        offset = 0
        for code in sorted(clause, key=abs):
            var = abs(code) - 1
            if code < 0:
                coeffs[var] = coeffs.get(var, 0) - 1
                offset += 1
            else:
                coeffs[var] = coeffs.get(var, 0) + 1
        if len(coeffs) < len(clause):  # x and not x: an affine 0 drops out
            coeffs = {var: c for var, c in coeffs.items() if c}
        row = (coeffs, bound - offset, offset)
        constraints.append(tuple.__new__(LinearConstraint, row))
    for var in range(formula.num_vars):
        constraints.append(tuple.__new__(LinearConstraint, ({var: 1}, 1, 0)))
    return LpSystem._make(formula.num_vars, tuple(constraints))
