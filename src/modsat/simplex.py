"""Linear programs over nonnegative variables with <= constraints, solved by
a two-phase simplex on a condensed tableau: it stores only the nonbasic
columns, each with its reduced cost as its last entry, so a pivot updates one
column per nonbasic variable by one rule.

Arithmetic is exact by default: Python ints over one common denominator, the
basis determinant, with fraction-free pivots (Edmonds 1967; Bareiss 1968)
whose divisions are all exact.  A pivot is one pass over the stored columns
for both number types.  Exact columns take the cheapest form the old and new
determinants allow: a column with pivot-row entry 0 is kept or rescaled, and
x - f * y (both determinants 1) or x - f * y // d (equal ones) replace
(p * x - f * y) // d.  Float mode (``exact=False``), called only by
perfbench's lp-pivot check and the tests, has a 1e-9 tolerance and divides
in its ratio test.  Pivot selection follows Bland's rule (lowest eligible
label for entering, lowest basis label on ratio ties), which rules out
cycling.  Rows with a negative right-hand side get an artificial variable;
phase 1 drives the artificial sum to zero or reports its positive minimum,
the phase-1 infeasibility value.  A solve needing more than PIVOT_BUDGET
pivots, or a tableau that may need more than TABLEAU_BUDGET cells, raises
BudgetExceededError.
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

# Far above any tableau solved: that relaxation stores 209,312 cells at
# n = 160, where (num_vars + rows + 1) * (rows + 1), its bound, is 847,376.
TABLEAU_BUDGET = 10_000_000


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
    """Condensed tableau shared by both phases (the dictionary method's
    layout; Chvátal 1983): ``cols`` holds the nonbasic columns, column by
    column, and the right-hand side last, ``labels`` the label of each.  A
    column has one entry per row and then its reduced cost; the right-hand
    side's last entry is the objective value.  A basic column is d times a
    unit vector, so it is not stored; ``basis`` labels each row's.
    Labels are structural 0..nx-1, slack nx + i of row i, and ``art`` + k for
    the artificial of the k-th negative-bound row, which is negated and made
    basic in it; an artificial never enters, so it never has a column.

    Exact entries are ints, the true entry ``x / d``, from data scaled by the
    lcm ``scale`` of their denominators (the objective by its own): one
    positive factor scales every slack, artificial and reduced cost, so no
    pivot choice changes.  Float entries are true values, with d = 1.  A
    pivot replaces columns within ``cols`` and never rebinds it."""

    def __init__(self, system: LpSystem, exact: bool):
        self.exact = exact
        self.zero, self.one = zero, one = (0, 1) if exact else (0.0, 1.0)
        self.tol = 0 if exact else FLOAT_TOL
        self.scaling = _integer_scaling if exact else lambda values: (1, float)
        self.d = one
        cons = system.constraints
        m = len(cons)
        if (system.num_vars + m + 1) * (m + 1) > TABLEAU_BUDGET:
            raise BudgetExceededError(
                f"simplex tableau may exceed {TABLEAU_BUDGET} cells"
            )
        self.nx, self.art = nx, art = system.num_vars, system.num_vars + m
        self.nart = self.pivots = 0
        data = [con.bound for con in cons], *[con.coefficients.values() for con in cons]
        self.scale, conv = self.scaling(itertools.chain(*data))
        self.cols, self.labels = [[zero] * (m + 1) for _ in range(nx)], [*range(nx)]
        self.basis, rhs = [], []
        for i, con in enumerate(cons):
            b, sign = conv(con.bound), 1
            if con.bound < 0:  # scaling by a positive lcm keeps signs
                b, sign = -b, -1
                self.cols.append([zero] * i + [-one] + [zero] * (m - i))
                self.labels.append(nx + i)
                self.basis.append(art + self.nart)
                self.nart += 1
            else:
                self.basis.append(nx + i)
            for var, c in con.coefficients.items():
                self.cols[var][i] = sign * conv(c)
            rhs.append(b)
        self.cols.append([*rhs, zero])

    def _value(self, x, scale: int = 1):
        """The true value of a tableau entry, undoing the exact scaling."""
        return Fraction(x, self.d * scale) if self.exact else x

    def _pivot(self, r: int, c: int) -> None:
        if self.pivots >= PIVOT_BUDGET:
            raise BudgetExceededError(f"simplex needs more than {PIVOT_BUDGET} pivots")
        cols, d = self.cols, self.d
        fcol, p = cols[c], cols[c][r]
        leaving, self.basis[r] = self.basis[r], self.labels[c]
        if leaving >= self.art:  # an artificial leaves no column behind
            del cols[c], self.labels[c]
        else:  # the leaving column, d * e_r, takes slot c and is updated below
            cols[c] = [self.zero] * len(fcol)
            cols[c][r], self.labels[c] = d, leaving
        exact, s = self.exact, -1 if p < 0 else 1  # p < 0 only in drive-out
        if exact:
            p = self.d = s * p  # keeps d > 0
        # One pass: each column's new pivot-row entry y, then its entries and
        # reduced cost, x - f * y in floats (f == 0 keeps x, signed zeros too)
        # and (p * x - f * y) // d in the cheapest exact form.
        for j, col in enumerate(cols):
            y = s * col[r] if exact else col[r] / p
            if not exact:
                col = [x - f * y if f else x for x, f in zip(col, fcol)]
            elif not y:  # x rescaled from d to p, kept when they are equal
                if p != d:
                    cols[j] = [p * x // d for x in col]
                continue
            elif p != d:
                col = [(p * x - f * y) // d for x, f in zip(col, fcol)]
            elif d == 1:
                col = [x - f * y for x, f in zip(col, fcol)]
            else:  # d divides d * x - f * y, so it divides f * y
                col = [x - f * y // d for x, f in zip(col, fcol)]
            col[r], cols[j] = y, col
        self.pivots += 1

    def _build_costs(self, costs: list) -> None:
        """Each column's last entry: the sum over basic rows of cost(basic) *
        col[row], minus cost(labels[j]) * d for a stored column j; the
        right-hand side's, the objective value, has no cost of its own."""
        zs = [self.zero] * len(self.cols)
        for i, bcol in enumerate(self.basis):
            cb = costs[bcol]
            if cb != 0:
                zs = [z + cb * col[i] for z, col in zip(zs, self.cols)]
        for col, z, j in zip(self.cols, zs, [*self.labels, None]):
            col[-1] = z if j is None else z - costs[j] * self.d

    def _iterate(self) -> bool:
        """Run pivots until optimal (True) or unbounded (False)."""
        tol, basis, labels = self.tol, self.basis, self.labels
        while True:
            # Bland's rule: the lowest label with a negative reduced cost.
            eligible = [j for j, col in enumerate(self.cols[:-1]) if col[-1] < -tol]
            if not eligible:
                return True
            enter = min(eligible, key=labels.__getitem__)
            col, rhs = self.cols[enter], self.cols[-1]
            leave = -1
            for i, a in zip(range(len(basis)), col):
                if a > tol:
                    if leave >= 0:
                        # Bland's ratio test: rhs[i] / a against the best so
                        # far; exact ratios cross-multiply, as a > 0.
                        if self.exact:
                            lhs, best = rhs[i] * col[leave], rhs[leave] * a
                        else:  # divide: floats cross-multiplied round apart
                            lhs, best = rhs[i] / a, rhs[leave] / col[leave]
                        if lhs > best or (lhs == best and basis[i] > basis[leave]):
                            continue
                    leave = i
            if leave < 0:
                return False
            self._pivot(leave, enter)

    def phase_one(self) -> Fraction | float | None:
        """Minimize the artificial sum.  Returns the phase-1 infeasibility
        value when positive, else None with a basic feasible solution."""
        self._build_costs([self.zero] * self.art + [-self.one] * self.nart)
        self._iterate()
        value = self.cols[-1][-1]  # max of -(artificial sum), always <= 0
        if value < -self.tol:
            return self._value(-value, self.scale)
        # Drive any zero-level artificial out of the basis on the lowest label
        # with a nonzero entry in its row.  There is always one: while the
        # artificial of row i is basic, the slack of row i, which can enter
        # only at row i, is stored with entry -d there.
        for i in range(len(self.basis)):
            if self.basis[i] >= self.art:
                cols = self.cols[:-1]  # the right-hand side never enters
                js = [j for j, col in enumerate(cols) if abs(col[i]) > self.tol]
                self._pivot(i, min(js, key=self.labels.__getitem__))
        return None

    def phase_two(self, objective: Sequence) -> Fraction | float | None:
        """Maximize ``objective``: its optimal value, or None if unbounded."""
        cost_scale, conv = self.scaling(objective)
        slacks = self.art - self.nx
        self._build_costs([conv(c) for c in objective] + [self.zero] * slacks)
        if self._iterate():
            return self._value(self.cols[-1][-1], cost_scale)
        return None

    def point(self) -> tuple:
        xs = [self._value(self.zero)] * self.nx
        for i, bcol in enumerate(self.basis):
            if bcol < self.nx:
                xs[bcol] = self._value(self.cols[-1][i])
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
