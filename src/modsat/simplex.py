"""Linear programs over nonnegative variables with <= constraints, solved by
a two-phase tableau simplex.

Arithmetic is exact (fractions.Fraction) by default; float mode uses a 1e-9
tolerance.  Pivot selection follows Bland's rule (lowest eligible index for
entering, lowest basis index on ratio ties), which rules out cycling.  Rows
with a negative right-hand side get an artificial variable; phase 1 drives
the artificial sum to zero or reports its positive minimum, the phase-1
infeasibility value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coefficients[v] * X_v) <= bound, variables 0-based.

    ``offset`` records a constant that was folded out of the left side (used
    when complemented literals 1 - X are rewritten); the modeled quantity is
    offset + sum(...).  An empty coefficient map is a constant row.
    """

    coefficients: Mapping[int, int | Fraction]
    bound: int | Fraction
    offset: int = 0

    def __post_init__(self):
        canon = {}
        for var, coeff in sorted(self.coefficients.items()):
            if not isinstance(var, int) or var < 0:
                raise ValueError(f"variable index must be >= 0, got {var!r}")
            if coeff != 0:
                canon[var] = coeff
        object.__setattr__(self, "coefficients", canon)


@dataclass(frozen=True)
class LpSystem:
    """Constraints plus implicit X >= 0, with an optional maximize objective."""

    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[int | Fraction, ...] | None = None

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {self.num_vars}")
        for con in self.constraints:
            for var in con.coefficients:
                if var >= self.num_vars:
                    raise ValueError(
                        f"constraint references variable {var} "
                        f"but only {self.num_vars} exist"
                    )
        if self.objective is not None and len(self.objective) != self.num_vars:
            raise ValueError(
                f"objective length {len(self.objective)} != {self.num_vars}"
            )


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


class _Tableau:
    """Mutable simplex tableau shared by both phases: per row the structural
    columns, one slack per row and the right-hand side at index ``rhs``.  A
    negative-bound row is negated and made basic in an artificial variable,
    which never enters and so has no column, only the basis label nx + m + k
    of the k-th such row (for phase 1's cost and Bland's ratio tie-break)."""

    def __init__(self, system: LpSystem, exact: bool):
        self.conv = Fraction if exact else float
        self.zero = self.conv(0)
        self.tol = Fraction(0) if exact else FLOAT_TOL
        self.zrow: list | None = None
        nx = system.num_vars
        m = len(system.constraints)
        self.nx = nx
        self.rhs = nx + m  # index of the right-hand-side column
        self.nart = 0
        self.pivots = 0
        conv, zero = self.conv, self.zero
        one = conv(1)
        self.rows = [[zero] * (self.rhs + 1) for _ in range(m)]
        self.basis: list[int] = []
        for i, (con, row) in enumerate(zip(system.constraints, self.rows)):
            for var, c in con.coefficients.items():
                row[var] = conv(c)
            b = conv(con.bound)
            if b < zero:
                # Only the structural columns: the float zeros there turn
                # to -0.0, the rest of the row keeps +0.0.
                row[:nx] = [-c for c in row[:nx]]
                b = -b
                slack = -one
                self.basis.append(self.rhs + self.nart)
                self.nart += 1
            else:
                slack = one
                self.basis.append(nx + i)
            row[nx + i] = slack
            row[self.rhs] = b

    def _pivot(self, r: int, c: int) -> None:
        piv = self.rows[r][c]
        self.rows[r] = [x / piv for x in self.rows[r]]
        prow = self.rows[r]
        for i, row in enumerate(self.rows):
            if i != r and row[c] != 0:
                f = row[c]
                self.rows[i] = [x - f * p for x, p in zip(row, prow)]
        if self.zrow is not None and self.zrow[c] != 0:
            f = self.zrow[c]
            self.zrow = [x - f * p for x, p in zip(self.zrow, prow)]
        self.basis[r] = c
        self.pivots += 1

    def _build_zrow(self, costs: list) -> None:
        """zrow[j] = sum over basic rows of cost(basic) * row[j], minus cost(j)."""
        width = self.rhs + 1
        zrow = [self.zero] * width
        for i, bcol in enumerate(self.basis):
            cb = costs[bcol]
            if cb != 0:
                row = self.rows[i]
                zrow = [z + cb * x for z, x in zip(zrow, row)]
        for j in range(self.rhs):
            zrow[j] -= costs[j]
        self.zrow = zrow

    def _iterate(self) -> str:
        """Run pivots until optimal or unbounded."""
        tol = self.tol
        while True:
            enter = -1
            for j in range(self.rhs):
                if self.zrow[j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > tol:
                    ratio = row[self.rhs] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)

    def phase_one(self) -> Fraction | float | None:
        """Minimize the artificial sum.  Returns the phase-1 infeasibility
        value when positive, else None with a basic feasible solution."""
        if self.nart == 0:
            return None
        self._build_zrow([self.zero] * self.rhs + [-self.conv(1)] * self.nart)
        self._iterate()
        value = self.zrow[self.rhs]  # max of -(artificial sum), always <= 0
        if value < -self.tol:
            return -value
        # Drive any zero-level artificial out of the basis.  [A | +-I] has
        # full row rank, so exact rows always have a pivot column; a float
        # row whose entries all fall within FLOAT_TOL has none and is dropped.
        dropped = set()
        for i in range(len(self.basis)):
            if self.basis[i] < self.rhs:
                continue
            pivot_col = -1
            for j in range(self.rhs):
                if abs(self.rows[i][j]) > self.tol:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                self._pivot(i, pivot_col)
            else:
                dropped.add(i)
        self.rows = [r for i, r in enumerate(self.rows) if i not in dropped]
        self.basis = [b for i, b in enumerate(self.basis) if i not in dropped]
        return None

    def phase_two(self, objective: Sequence) -> str:
        costs = [self.zero] * self.rhs
        for j, c in enumerate(objective):
            costs[j] = self.conv(c)
        self._build_zrow(costs)
        return self._iterate()

    def point(self) -> tuple:
        xs = [self.zero] * self.nx
        for i, bcol in enumerate(self.basis):
            if bcol < self.nx:
                xs[bcol] = self.rows[i][self.rhs]
        return tuple(xs)


def solve(system: LpSystem, *, exact: bool = True) -> LpSolution:
    """Two-phase simplex.

    Without an objective the phase-1 basic feasible point is returned as-is.
    With one, phase 2 maximizes it and reports the optimal vertex or
    unboundedness.  ``pivot_steps`` counts every pivot across both phases.
    """
    tab = _Tableau(system, exact)
    infeasibility = tab.phase_one()
    if infeasibility is not None:
        return LpSolution(
            INFEASIBLE, None, None, tab.pivots, infeasibility=infeasibility
        )
    if system.objective is None:
        return LpSolution(FEASIBLE, tab.point(), None, tab.pivots)
    outcome = tab.phase_two(system.objective)
    if outcome == "unbounded":
        return LpSolution(UNBOUNDED, None, None, tab.pivots)
    value = tab.zrow[tab.rhs]
    return LpSolution(FEASIBLE, tab.point(), value, tab.pivots)
