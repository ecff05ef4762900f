"""Linear programs over nonnegative variables with <= constraints, solved by
a two-phase simplex on a condensed tableau: it stores only the nonbasic
columns, each with its reduced cost as its last entry, so a pivot updates one
column per nonbasic variable by one rule.

Arithmetic is exact by default: Python ints over one common denominator, the
basis determinant, with fraction-free pivots (Edmonds 1967; Bareiss 1968)
whose divisions are all exact.  An exact column is one int with a signed
field per entry (broadword arithmetic; Knuth, TAOCP 4A 7.1.3), 32 bits wide
while every entry fits 14 bits and wider when one outgrows them, so a pivot
updates it in a few big-int operations: a column with pivot-row entry 0 is
kept or rescaled, and x - f * y (both determinants 1) or x - f * y // d
(equal ones) replace (p * x - f * y) // d.  Float mode (``exact=False``),
called only by perfbench's lp-pivot check and the tests, keeps a list per
column, has a 1e-9 tolerance and divides in its ratio test; it shares the
rest of the solver.  Pivot selection follows Bland's rule (lowest eligible
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
import struct
import sys
from array import array
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BudgetExceededError, check_int, check_real

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
            check_int(var, "variable index", 0)
            if check_real(coeff, "coefficient") != 0:
                canon[var] = coeff
        canon = dict(sorted(canon.items()))
        return super().__new__(
            cls, canon, check_real(bound, "bound"), check_real(offset, "offset")
        )


@dataclass(frozen=True)
class LpSystem:
    """Constraints plus implicit X >= 0, with an optional maximize objective."""

    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[int | Fraction, ...] | None = None

    def __post_init__(self):
        check_int(self.num_vars, "num_vars", 0)
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
            check_real(c, "objective entry")

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
    pivot choice changes.  An exact column is one int, the sum of v << W * i
    over its entries v, the reduced cost in the top field (``_read`` decodes
    it, through ``array('i')`` at W = 32).  W is 32 while every entry is
    below 2^14 in size, else the least multiple of 64 whose t = W / 2 - 2
    bounds them: a pivot's new entries, below 2^(2t + 1), still decode, and
    one at 2^t or above repacks.  Float entries are true values in lists,
    with d = 1."""

    def __init__(self, system: LpSystem, exact: bool):
        self.exact = exact
        self.zero, self.one = zero, one = (0, 1) if exact else (0.0, 1.0)
        self.tol, self.neg = (0, None) if exact else (FLOAT_TOL, -FLOAT_TOL)
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
        cols, self.labels = [[zero] * (m + 1) for _ in range(nx)], [*range(nx)]
        self.basis, rhs = [], []
        for i, con in enumerate(cons):
            b, sign = conv(con.bound), 1
            if con.bound < 0:  # scaling by a positive lcm keeps signs
                b, sign = -b, -1
                cols.append([zero] * i + [-one] + [zero] * (m - i))
                self.labels.append(nx + i)
                self.basis.append(art + self.nart)
                self.nart += 1
            else:
                self.basis.append(nx + i)
            for var, c in con.coefficients.items():
                cols[var][i] = sign * conv(c)
            rhs.append(b)
        cols.append([*rhs, zero])
        self._pack(cols)
        self._build_costs([zero] * art + [-one] * self.nart, cols)  # phase 1's

    def _pack(self, cols: list, bits: int = 14) -> None:
        """Store ``cols``, given as entry lists: float ones as they are,
        exact ones each as one int, in fields wide enough for ``bits``-bit
        entries, or for the widest entry when they are not: 32 bits for
        14-bit entries, else the least multiple of 64 bits that holds them."""
        if not self.exact:
            self.cols = cols
            return
        self.width = w = 32 if bits <= 14 else -(-(2 * bits + 4) // 64) * 64
        t, n, k = w // 2 - 2, len(cols[0]), w // 8
        self.code = code = {32: "i", 64: "q"}.get(w)  # for struct and array
        ones = ((1 << w * n) - 1) // ((1 << w) - 1)  # 1 in every field
        self.bias, self.low = bias, low = ones << w - 1, ones << t
        # (col + low) & high is 0 when every field is in [-2^t, 2^t); then
        # col < neg exactly when its top field, the reduced cost, is < 0.
        self.high = ones * ((1 << w) - (2 << t)) | -(1 << w * n)
        self.size, self.neg = k * n, -(1 << w * (n - 1) >> 1)
        try:
            raws = [struct.pack(f"<{n}{code}", *col) if code else b"".join(
                v.to_bytes(k, "little", signed=True) for v in col) for col in cols]
        except struct.error:  # an entry of 2^(W - 1) or more in size
            raws = []
        self.cols = [(int.from_bytes(raw, "little") ^ bias) - bias for raw in raws]
        if not raws or reduce(or_, map(low.__add__, self.cols)) & self.high:
            self._pack(cols, max(max(map(max, cols)), -min(map(min, cols))).bit_length())

    def _read(self, col) -> Sequence:
        """A stored column's entries, row by row and its reduced cost last."""
        if not self.exact:
            return col
        raw = ((col + self.bias) ^ self.bias).to_bytes(self.size, "little")
        if (k := self.width // 8) > 8:
            return [int.from_bytes(raw[i : i + k], "little", signed=True)
                    for i in range(0, len(raw), k)]
        items = array(self.code, raw)
        if sys.byteorder == "big":
            items.byteswap()
        return items

    def _value(self, x, scale: int = 1):
        """The true value of a tableau entry, undoing the exact scaling."""
        return Fraction(x, self.d * scale) if self.exact else x

    def _pivot(self, r: int, c: int) -> None:
        if self.pivots >= PIVOT_BUDGET:
            raise BudgetExceededError(f"simplex needs more than {PIVOT_BUDGET} pivots")
        cols, d, exact = self.cols, self.d, self.exact
        fcol = cols[c]
        if exact:  # field r of col is ((col + bias) >> shift & mask) - half
            w, bias, low = self.width, self.bias, self.low
            shift, half, mask = w * r, 1 << w - 1, (1 << w) - 1
        p = ((fcol + bias) >> shift & mask) - half if exact else fcol[r]
        leaving, self.basis[r] = self.basis[r], self.labels[c]
        if leaving >= self.art:  # an artificial leaves no column behind
            del cols[c], self.labels[c]
        else:  # the leaving column, d * e_r, takes slot c and is updated below
            col = d << shift if exact else [d * (i == r) for i in range(len(fcol))]
            cols[c], self.labels[c] = col, leaving
        s = -1 if p < 0 else 1  # p < 0 only in drive-out
        if exact:
            p = self.d = s * p  # keeps d > 0
            g = fcol - (d << shift)  # so that y * g // d also puts y in field r
        # One pass: each column's new pivot-row entry y, then its entries and
        # reduced cost: x - f * y in floats (f == 0 keeps x, signed zeros
        # too), and (p * x - f * y) // d in exact ints, on every field at
        # once and in the cheapest form the two determinants allow.
        grown = 0  # the OR of each new col + low, checked as in _pack
        for j, col in enumerate(cols):
            if not exact:
                y = col[r] / p
                col = [x - f * y if f else x for x, f in zip(col, fcol)]
                col[r], cols[j] = y, col
                continue
            y = s * (((col + bias) >> shift & mask) - half)
            if not y:  # x rescaled from d to p, kept when they are equal
                col = col if p == d else p * col // d
            elif p != d:
                col = (p * col - y * g) // d
            elif d == 1:
                col -= y * g
            else:  # d divides d * x - f * y, so it divides f * y
                col -= y * g // d
            cols[j] = col
            grown |= col + low
        if exact and grown & self.high:
            self._pack([self._read(col) for col in cols])
        self.pivots += 1

    def _build_costs(self, costs: list, cols: list) -> None:
        """Set each stored column's last entry from ``cols``, their entries:
        the sum over basic rows of cost(basic) * col[row], minus
        cost(labels[j]) * d for a stored column j; the right-hand side's,
        the objective value, has no cost of its own."""
        zs = [self.zero] * len(cols)
        for i, bcol in enumerate(self.basis):
            cb = costs[bcol]
            if cb != 0:
                zs = [z + cb * col[i] for z, col in zip(zs, cols)]
        labels = [*self.labels, None]
        zs = [z if j is None else z - costs[j] * self.d for z, j in zip(zs, labels)]
        if self.exact and max(max(zs), -min(zs)).bit_length() <= self.width // 2 - 2:
            top = self.width * len(self.basis)  # the field of the reduced cost
            olds = zip(self.cols, cols)
            self.cols = [x + (z - col[-1] << top) for (x, col), z in zip(olds, zs)]
        else:  # float lists, and exact costs too wide for the fields
            self._pack([[*col[:-1], z] for col, z in zip(cols, zs)])

    def _iterate(self) -> bool:
        """Run pivots until optimal (True) or unbounded (False)."""
        tol, basis, labels = self.tol, self.basis, self.labels
        while True:
            # Bland's rule: the lowest label with a negative reduced cost.
            zs = self.cols[:-1] if self.exact else [col[-1] for col in self.cols[:-1]]
            eligible = [j for j, z in enumerate(zs) if z < self.neg]
            if not eligible:
                return True
            enter = min(eligible, key=labels.__getitem__)
            col, rhs = self._read(self.cols[enter]), self._read(self.cols[-1])
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
        self._iterate()
        value = self._read(self.cols[-1])[-1]  # max of -(artificial sum), <= 0
        if value < -self.tol:
            return self._value(-value, self.scale)
        # Drive any zero-level artificial out of the basis on the lowest label
        # with a nonzero entry in its row.  There is always one: while the
        # artificial of row i is basic, the slack of row i, which can enter
        # only at row i, is stored with entry -d there.
        for i in range(len(self.basis)):
            if self.basis[i] >= self.art:
                cols = map(self._read, self.cols[:-1])  # the rhs never enters
                js = [j for j, col in enumerate(cols) if abs(col[i]) > self.tol]
                self._pivot(i, min(js, key=self.labels.__getitem__))
        return None

    def phase_two(self, objective: Sequence) -> Fraction | float | None:
        """Maximize ``objective``: its optimal value, or None if unbounded."""
        cost_scale, conv = self.scaling(objective)
        costs = [conv(c) for c in objective] + [self.zero] * (self.art - self.nx)
        self._build_costs(costs, [self._read(col) for col in self.cols])
        if self._iterate():
            return self._value(self._read(self.cols[-1])[-1], cost_scale)
        return None

    def point(self) -> tuple:
        xs = [self._value(self.zero)] * self.nx
        rhs = self._read(self.cols[-1])
        for i, bcol in enumerate(self.basis):
            if bcol < self.nx:
                xs[bcol] = self._value(rhs[i])
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
