"""Linear programs over nonnegative variables with <= constraints, solved by
a two-phase tableau simplex.

Arithmetic is exact by default: Python ints over one common denominator, the
basis determinant, with fraction-free pivots (Edmonds 1967; Bareiss 1968)
whose divisions are all exact.  Float mode (``exact=False``), called only by
perfbench's lp-pivot check and the tests, has a 1e-9 tolerance.  Pivot
selection follows Bland's rule (lowest eligible index for entering, lowest
basis index on ratio ties), which rules out cycling.  Rows with a negative
right-hand side get an artificial variable; phase 1 drives the artificial sum
to zero or reports its positive minimum, the phase-1 infeasibility value.  A
solve needing more than PIVOT_BUDGET pivots raises BudgetExceededError.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BudgetExceededError

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FLOAT_TOL = 1e-9

# Far above any count seen: 140, 627 and 3,156 pivots for the affine k-1
# max-sum relaxation of random_kcnf(n, round(4.27 * n), 3, 7), n = 20, 40, 80.
PIVOT_BUDGET = 100_000


def _finite(value, what: str):
    """``value``, if it is an int (not a bool), a Fraction or a finite float;
    ints and Fractions are always finite (and ``math.isfinite`` overflows on
    huge Fractions)."""
    if type(value) not in (int, Fraction, float):
        raise TypeError(f"{what} must be an int, a Fraction or a float, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


class LinearConstraint(namedtuple("LinearConstraint", "coefficients bound offset")):
    """sum(coefficients[v] * X_v) <= bound, variables 0-based.

    ``offset`` records a constant that was folded out of the left side (used
    when complemented literals 1 - X are rewritten); the modeled quantity is
    offset + sum(...).  An empty coefficient map is a constant row.  The
    constructor takes ints as indices and ints, Fractions and finite floats
    as data, no bools, and makes the map canonical
    (variables ascending, no zero coefficient);
    ``tuple.__new__(LinearConstraint, (coefficients, bound, offset))`` takes
    finite, canonical data as it is.
    """

    __slots__ = ()

    def __new__(cls, coefficients: Mapping[int, int | Fraction], bound, offset=0):
        if not isinstance(coefficients, Mapping):
            raise TypeError(
                f"coefficients must be a mapping of index to value, got {coefficients!r}"
            )
        canon = {}
        for var, coeff in coefficients.items():
            if type(var) is not int or var < 0:
                raise ValueError(f"variable index must be an int >= 0, got {var!r}")
            if _finite(coeff, "coefficient") != 0:
                canon[var] = coeff
        canon = dict(sorted(canon.items()))
        return super().__new__(
            cls, canon, _finite(bound, "bound"), _finite(offset, "offset")
        )


@dataclass(frozen=True)
class LpSystem:
    """Constraints plus implicit X >= 0, with an optional maximize objective."""

    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[int | Fraction, ...] | None = None

    def __post_init__(self):
        if type(self.num_vars) is not int or self.num_vars < 0:
            raise ValueError(f"num_vars must be an int >= 0, got {self.num_vars!r}")
        if type(self.constraints) is not tuple:
            raise TypeError("constraints must be a tuple of LinearConstraint")
        for con in self.constraints:
            if not isinstance(con, LinearConstraint):
                raise TypeError("constraints must be a tuple of LinearConstraint")
            for var in con.coefficients:
                if var >= self.num_vars:
                    raise ValueError(
                        f"constraint references variable {var} "
                        f"but only {self.num_vars} exist"
                    )
        if self.objective is not None and type(self.objective) is not tuple:
            raise TypeError("objective must be a tuple or None")
        if self.objective is not None and len(self.objective) != self.num_vars:
            raise ValueError(
                f"objective length {len(self.objective)} != {self.num_vars}"
            )
        for c in self.objective or ():
            _finite(c, "objective entry")

    @classmethod
    def _make(cls, num_vars: int, rows: tuple, objective=None) -> LpSystem:
        """LpSystem(num_vars, rows, objective) unchecked, for checked data."""
        self = object.__new__(cls)
        self.__dict__.update(num_vars=num_vars, constraints=rows, objective=objective)
        return self


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome.

    ``point`` is present exactly when status is feasible.  For an infeasible
    system ``infeasibility`` holds the phase-1 infeasibility value: the
    positive minimum of the artificial sum.
    """

    status: str
    point: tuple | None
    objective_value: Fraction | float | None
    pivot_steps: int
    infeasibility: Fraction | float | None = None


def max_violation(system: LpSystem, point: Sequence) -> Fraction | float:
    """Largest amount by which ``point`` breaks any constraint or X >= 0.

    Zero or negative means the point satisfies the whole system.
    """
    if len(point) != system.num_vars:
        raise ValueError("point length does not match num_vars")
    worst = -min(point, default=0)
    for con in system.constraints:
        lhs = sum(coeff * point[var] for var, coeff in con.coefficients.items())
        gap = lhs - con.bound
        if gap > worst:
            worst = gap
    return worst


def _integer_scaling(values: Iterable) -> tuple[int, Callable]:
    """The lcm L of the denominators of ``values`` and the map v -> v * L,
    exact on them and int-valued (plain int() when L is 1)."""
    scale = math.lcm(*(Fraction(v).denominator for v in values if type(v) is not int))
    return scale, int if scale == 1 else lambda v: int(Fraction(v) * scale)


class _Tableau:
    """Mutable simplex tableau shared by both phases: per row the structural
    columns, one slack per row and the right-hand side at index ``rhs``.  A
    negative-bound row is negated and made basic in an artificial variable,
    which never enters and so has no column, only the basis label nx + m + k
    of the k-th such row (for phase 1's cost and Bland's ratio tie-break).

    Exact entries are ints, the true entry ``row[j] / d``, from data scaled
    by the lcm ``scale`` of their denominators (the objective by its own):
    one positive factor scales every slack, artificial and reduced cost, so
    no pivot choice changes.  Float entries are true values, with d = 1."""

    def __init__(self, system: LpSystem, exact: bool):
        self.exact = exact
        self.zero, self.one = zero, one = (0, 1) if exact else (0.0, 1.0)
        self.tol = 0 if exact else FLOAT_TOL
        self.scaling = _integer_scaling if exact else lambda values: (1, float)
        self.d = 1
        cons = system.constraints
        self.nx, self.rhs = nx, rhs = system.num_vars, system.num_vars + len(cons)
        self.nart = self.pivots = 0
        data = [con.bound for con in cons], *[con.coefficients.values() for con in cons]
        self.scale, conv = self.scaling(itertools.chain(*data))
        self.rows: list[list] = []
        self.basis: list[int] = []
        for i, con in enumerate(cons):
            row = [zero] * (rhs + 1)
            for var, c in con.coefficients.items():
                row[var] = conv(c)
            b, slack = conv(con.bound), one
            if con.bound < 0:  # scaling by a positive lcm keeps signs
                # Only the structural columns: their float zeros turn to -0.0.
                row[:nx] = [-c for c in row[:nx]]
                b, slack = -b, -slack
                self.basis.append(rhs + self.nart)
                self.nart += 1
            else:
                self.basis.append(nx + i)
            row[nx + i] = slack
            row[rhs] = b
            self.rows.append(row)

    def _value(self, x, scale: int = 1):
        """The true value of a tableau entry, undoing the exact scaling."""
        return Fraction(x, self.d * scale) if self.exact else x

    def _pivot(self, r: int, c: int) -> None:
        if self.pivots >= PIVOT_BUDGET:
            raise BudgetExceededError(f"simplex needs more than {PIVOT_BUDGET} pivots")
        prow = self.rows[r]
        p = prow[c]
        if self.exact:
            if p < 0:  # only in drive-out; keeps d > 0
                prow, p = [-y for y in prow], -p
            d, self.d = self.d, p
            # Where the pivot row is 0, (p * x - f * 0) // d is x rescaled
            # from d to p: x itself when p == d, and 0 stays 0.
            nonzero = [(j, y) for j, y in enumerate(prow) if y]

            def update(row):
                f = row[c]
                if f == 0 and p == d:
                    return row
                new = row[:] if p == d else [x and p * x // d for x in row]
                for j, y in nonzero:
                    new[j] = (p * row[j] - f * y) // d
                return new

        else:
            prow = [x / p for x in prow]

            def update(row):
                f = row[c]
                return row if f == 0 else [x - f * y for x, y in zip(row, prow)]

        self.rows = [prow if i == r else update(row) for i, row in enumerate(self.rows)]
        self.zrow = update(self.zrow)
        self.basis[r] = c
        self.pivots += 1

    def _build_zrow(self, costs: list) -> None:
        """zrow[j] = sum over basic rows of cost(basic) * row[j], minus cost(j)."""
        zrow = [self.zero] * (self.rhs + 1)
        for i, bcol in enumerate(self.basis):
            cb = costs[bcol]
            if cb != 0:
                zrow = [z + cb * x for z, x in zip(zrow, self.rows[i])]
        for j in range(self.rhs):
            zrow[j] -= costs[j] * self.d
        self.zrow = zrow

    def _iterate(self) -> bool:
        """Run pivots until optimal (True) or unbounded (False)."""
        tol, basis = self.tol, self.basis
        while True:
            zrow = self.zrow
            enter = next((j for j in range(self.rhs) if zrow[j] < -tol), -1)
            if enter < 0:
                return True
            leave = -1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > tol:
                    if leave >= 0:
                        # Bland's ratio test: row[rhs] / a against the best
                        # so far; exact ratios cross-multiply, as a > 0.
                        b, best = row[-1], self.rows[leave]
                        if self.exact:
                            lhs, rhs = b * best[enter], best[-1] * a
                        else:
                            lhs, rhs = b / a, best[-1] / best[enter]
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave = i
            if leave < 0:
                return False
            self._pivot(leave, enter)

    def phase_one(self) -> Fraction | float | None:
        """Minimize the artificial sum.  Returns the phase-1 infeasibility
        value when positive, else None with a basic feasible solution."""
        if self.nart == 0:
            return None
        self._build_zrow([self.zero] * self.rhs + [-self.one] * self.nart)
        self._iterate()
        value = self.zrow[self.rhs]  # max of -(artificial sum), always <= 0
        if value < -self.tol:
            return self._value(-value, self.scale)
        # Drive any zero-level artificial out of the basis.  [A | +-I] has
        # full row rank, so exact rows always have a pivot column; a float
        # row whose entries all fall within FLOAT_TOL has none and is dropped.
        for i in range(len(self.basis)):
            if self.basis[i] >= self.rhs:
                row = self.rows[i]  # each pivot replaces self.rows
                col = next((j for j in range(self.rhs) if abs(row[j]) > self.tol), -1)
                if col >= 0:
                    self._pivot(i, col)
        kept = [i for i, bcol in enumerate(self.basis) if bcol < self.rhs]
        self.rows = [self.rows[i] for i in kept]
        self.basis = [self.basis[i] for i in kept]
        return None

    def phase_two(self, objective: Sequence) -> Fraction | float | None:
        """Maximize ``objective``: its optimal value, or None if unbounded."""
        cost_scale, conv = self.scaling(objective)
        slacks = self.rhs - self.nx
        self._build_zrow([conv(c) for c in objective] + [self.zero] * slacks)
        if self._iterate():
            return self._value(self.zrow[self.rhs], cost_scale)
        return None

    def point(self) -> tuple:
        xs = [self._value(self.zero)] * self.nx
        for i, bcol in enumerate(self.basis):
            if bcol < self.nx:
                xs[bcol] = self._value(self.rows[i][self.rhs])
        return tuple(xs)


def solve(system: LpSystem, *, exact: bool = True) -> LpSolution:
    """Two-phase simplex.

    Without an objective the phase-1 basic feasible point is returned as-is:
    the origin, with no tableau built, when no bound is negative.  With one,
    phase 2 maximizes it and reports the optimal vertex or unboundedness.
    ``pivot_steps`` counts every pivot across both phases.
    """
    if system.objective is None and all(con.bound >= 0 for con in system.constraints):
        origin = (Fraction(0) if exact else 0.0,) * system.num_vars
        return LpSolution(FEASIBLE, origin, None, 0)
    tab = _Tableau(system, exact)
    infeasibility = tab.phase_one()
    if infeasibility is not None:
        return LpSolution(INFEASIBLE, None, None, tab.pivots, infeasibility)
    if system.objective is None:
        return LpSolution(FEASIBLE, tab.point(), None, tab.pivots)
    value = tab.phase_two(system.objective)
    if value is None:
        return LpSolution(UNBOUNDED, None, None, tab.pivots)
    return LpSolution(FEASIBLE, tab.point(), value, tab.pivots)
