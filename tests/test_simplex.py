"""Two-phase simplex: frozen examples, degenerate cases, and a brute-force
vertex-enumeration cross-check on small random systems."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from modsat import harness, pipeline, relax, simplex
from modsat.cli import main
from modsat.cnf import Formula, clause_of, random_kcnf, write_dimacs
from modsat.errors import BudgetExceededError
from modsat.simplex import (
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    LinearConstraint,
    LpSolution,
    LpSystem,
    max_violation,
    solve,
)
from test_identity import n20_system, simplex_systems

F = Fraction


def test_constraint_canonicalization():
    con = LinearConstraint({2: 0, 1: 5, 0: -1}, 3)
    assert con.coefficients == {0: -1, 1: 5}
    assert list(con.coefficients) == [0, 1]
    assert con.offset == 0
    assert LinearConstraint({}, 4).coefficients == {}
    with pytest.raises(ValueError):
        LinearConstraint({-1: 2}, 0)


def test_system_validation():
    with pytest.raises(ValueError, match="num_vars must be >= 0, got -1"):
        LpSystem(-1, ())
    with pytest.raises(ValueError):
        LpSystem(1, (LinearConstraint({1: 1}, 0),))
    with pytest.raises(ValueError):
        LpSystem(2, (), objective=(1,))
    for num_vars in (2.5, True):
        with pytest.raises(TypeError, match="num_vars must be an int"):
            LpSystem(num_vars, ())


def test_system_constraints_must_be_a_tuple():
    # A list could take a row on a variable the system lacks after the range
    # check, and a generator would be used up by the first pass over it.
    # Each element must be a LinearConstraint: a plain tuple, a dict or None
    # used to fail on its missing .coefficients with an AttributeError.
    con = LinearConstraint({0: 1}, 1)
    for constraints in (
        [con], (c for c in [con]), (({0: 1}, 1, 0),), (con, {0: 1}), (None,),
    ):
        with pytest.raises(TypeError, match="constraints must be a tuple"):
            LpSystem(1, constraints)


def test_system_objective_must_be_a_tuple():
    # A list could be changed after the checks, and a generator has no len().
    con = LinearConstraint({0: 1, 1: 1}, 1)
    for objective in ([1, 0], (c for c in [1, 0])):
        with pytest.raises(TypeError, match="objective must be a tuple or None"):
            LpSystem(2, (con,), objective)
    assert LpSystem(2, (con,), (1, 0)).objective == (1, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lp_data_must_be_finite(bad):
    for make in (
        lambda: LinearConstraint({0: bad}, 1),
        lambda: LinearConstraint({0: 1}, bad),
        lambda: LinearConstraint({0: 1}, 1, bad),
        lambda: LpSystem(1, (), objective=(bad,)),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()
    huge = F(10**400)  # finite, though math.isfinite overflows on it
    LpSystem(1, (LinearConstraint({0: huge}, huge, huge),), objective=(huge,))


@pytest.mark.parametrize("bad", ["1/2", "2", None, 1j, True, [1]])
def test_lp_data_must_be_numbers(bad):
    # A str would reach solve as Fraction(str), None and 1j fail inside it.
    for what, make in (
        ("coefficient", lambda: LinearConstraint({0: bad}, 1)),
        ("bound", lambda: LinearConstraint({0: 1}, bad)),
        ("offset", lambda: LinearConstraint({0: 1}, 1, bad)),
        ("objective entry", lambda: LpSystem(1, (), objective=(bad,))),
    ):
        with pytest.raises(TypeError, match=what):
            make()


@pytest.mark.parametrize("coefficients", [[1], (1,), None, {0: 1}.items()])
def test_coefficients_must_be_a_mapping(coefficients):
    with pytest.raises(TypeError, match="coefficients must be a mapping"):
        LinearConstraint(coefficients, 1)


@pytest.mark.parametrize("var", [True, False, 1.0, "0", None, -1])
def test_variable_indices_must_be_ints(var):
    # Beside an int index, so that the check must come before the sort.
    error, message = (
        (ValueError, "variable index must be >= 0, got -1")
        if var == -1
        else (TypeError, "variable index must be an int")
    )
    with pytest.raises(error, match=message):
        LinearConstraint({5: 1, var: 1}, 1)


def test_basic_maximization():
    # max x0 + x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6.
    system = LpSystem(
        2,
        (LinearConstraint({0: 1, 1: 2}, 4), LinearConstraint({0: 3, 1: 1}, 6)),
        objective=(1, 1),
    )
    sol = solve(system)
    assert sol.status == FEASIBLE
    assert sol.point == (F(8, 5), F(6, 5))
    assert sol.objective_value == F(14, 5)
    assert sol.pivot_steps > 0
    assert max_violation(system, sol.point) <= 0


def test_feasibility_only_returns_origin_when_trivial(monkeypatch):
    # No objective and no negative bound, as in every faithful relaxation:
    # solve answers the origin itself, in the types a tableau's point has.
    def refuse(*args):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(simplex._Tableau, "__init__", refuse)
    systems = [
        LpSystem(0, ()),
        LpSystem(2, (LinearConstraint({0: 1}, 2),)),
        LpSystem(
            3, (LinearConstraint({}, 0), LinearConstraint({0: F(1, 3), 2: -2.5}, 1))
        ),
        relax.build_relaxation(random_kcnf(12, 51, 3, seed=7)),
    ]
    for system in systems:
        for exact, zero in ((True, F(0)), (False, 0.0)):
            sol = solve(system, exact=exact)
            assert sol == LpSolution(FEASIBLE, (zero,) * system.num_vars, None, 0)
            assert all(type(x) is type(zero) for x in sol.point)
    assert repr(solve(systems[1])) == (
        "LpSolution(status='feasible', point=(Fraction(0, 1), Fraction(0, 1)), "
        "objective_value=None, pivot_steps=0, infeasibility=None)"
    )


def test_negative_bound_requires_phase_one():
    # x0 + x1 >= 1 encoded as -x0 - x1 <= -1.
    system = LpSystem(
        2,
        (LinearConstraint({0: -1, 1: -1}, -1), LinearConstraint({0: 1, 1: 1}, 3)),
    )
    sol = solve(system)
    assert sol.status == FEASIBLE
    assert max_violation(system, sol.point) <= 0
    assert sol.pivot_steps >= 1


def test_infeasible_certificate():
    # x0 <= 1 and x0 >= 2 cannot both hold.
    system = LpSystem(
        1, (LinearConstraint({0: 1}, 1), LinearConstraint({0: -1}, -2))
    )
    sol = solve(system)
    assert sol.status == INFEASIBLE
    assert sol.point is None
    assert sol.infeasibility is not None
    assert sol.infeasibility > 0


def test_constant_rows():
    assert solve(LpSystem(1, (LinearConstraint({}, 1),))).status == FEASIBLE
    sol = solve(LpSystem(1, (LinearConstraint({}, -1),)))
    assert sol.status == INFEASIBLE
    assert sol.infeasibility == 1


def test_unbounded_objective():
    system = LpSystem(2, (LinearConstraint({0: 1}, 1),), objective=(0, 1))
    sol = solve(system)
    assert sol.status == UNBOUNDED
    assert sol.point is None
    assert sol.objective_value is None


def test_equality_via_inequality_pair():
    # x0 = 1 pinned from both sides, then maximize x1 under x1 <= 5.
    system = LpSystem(
        2,
        (
            LinearConstraint({0: -1}, -1),
            LinearConstraint({0: 1}, 1),
            LinearConstraint({1: 1}, 5),
        ),
        objective=(0, 1),
    )
    sol = solve(system)
    assert sol.status == FEASIBLE
    assert sol.point == (1, 5)
    assert sol.objective_value == 5


def test_beale_cycling_example_terminates():
    # Classic degenerate program that cycles under naive pivoting; Bland's
    # rule must reach the optimum.
    system = LpSystem(
        4,
        (
            LinearConstraint({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, 0),
            LinearConstraint({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, 0),
            LinearConstraint({2: 1}, 1),
        ),
        objective=(F(3, 4), -150, F(1, 50), -6),
    )
    sol = solve(system)
    assert sol.status == FEASIBLE
    assert sol.objective_value == F(1, 20)
    assert sol.point == (F(1, 25), 0, 1, 0)


def test_fraction_data_values_are_in_the_systems_own_units():
    # x <= 1/3 and x >= 1/2: the artificial sum bottoms out at 1/2 - 1/3,
    # although the tableau scales the constraint data by 6.
    system = LpSystem(
        1, (LinearConstraint({0: 1}, F(1, 3)), LinearConstraint({0: -1}, F(-1, 2)))
    )
    sol = solve(system)
    assert sol.status == INFEASIBLE
    assert sol.infeasibility == F(1, 6)
    assert abs(solve(system, exact=False).infeasibility - 1 / 6) < 1e-9
    # max 3/4 x0 + 1/6 x1 s.t. x0 + 2 x1 <= 5/2 and x0 / 3 <= 1/2: the vertex
    # (3/2, 1/2) gives 29/24, against 9/8 at (3/2, 0) and 5/24 at (0, 5/4).
    # The objective is scaled by 12, the constraints by 6.
    system = LpSystem(
        2,
        (
            LinearConstraint({0: 1, 1: 2}, F(5, 2)),
            LinearConstraint({0: F(1, 3)}, F(1, 2)),
        ),
        objective=(F(3, 4), F(1, 6)),
    )
    sol = solve(system)
    assert sol.status == FEASIBLE
    assert sol.point == (F(3, 2), F(1, 2))
    assert sol.objective_value == F(29, 24)


def test_drive_out_on_a_negative_pivot_entry(monkeypatch):
    # One of the seeded general systems of tests/test_identity.py: the
    # equality x1 - x2 = 2 leaves a zero-level artificial in the basis after
    # phase 1, and the entry of its row under the lowest nonbasic label with
    # one, where drive-out pivots, is negative.
    system = LpSystem(
        3,
        (LinearConstraint({1: -1, 2: 1}, -2), LinearConstraint({1: 1, 2: -1}, 2)),
        objective=(-2, -3, -3),
    )
    entries = []
    pivot = simplex._Tableau._pivot

    def spy(tab, r, c):
        entries.append(tab._read(tab.cols[c])[r])
        pivot(tab, r, c)

    monkeypatch.setattr(simplex._Tableau, "_pivot", spy)
    sol = solve(system)
    assert min(entries) < 0
    assert sol == LpSolution(FEASIBLE, (0, 2, 0), -6, 3)


def _dense(tab):
    """The full tableau a condensed one stands for: per row the columns of
    labels 0..art-1 and the right-hand side, the objective row last.  A
    basic label's column is d * e_i and its reduced cost 0.  Columns are
    read through the tableau's own decoder."""
    cols = [tab._read(col) for col in tab.cols]
    slot = {label: j for j, label in enumerate(tab.labels)}
    labels = range(tab.art)
    rows = [
        [cols[slot[j]][i] if j in slot else tab.d * (b == j) for j in labels]
        + [cols[-1][i]]
        for i, b in enumerate(tab.basis)
    ]
    zrow = [cols[slot[j]][-1] if j in slot else 0 for j in labels]
    return [*rows, zrow + [cols[-1][-1]]]


def test_exact_pivot_is_d_times_a_gauss_jordan_pivot(monkeypatch):
    # After each exact pivot, every row of the full tableau (the objective
    # row last) is the new determinant times the Fraction Gauss-Jordan pivot
    # of the previous tableau's true entries, the old rows over the old
    # determinant d.  Where f or y is 0, x - f * y is x, compared in ints to
    # spare time.  The labels name the update each stored column takes: the
    # determinant cases of a column with y != 0 and the rescale of one with
    # y == 0 under a new determinant.
    cases = set()
    pivot = simplex._Tableau._pivot

    def check(tab, r, c):
        p, d, col = tab._read(tab.cols[c])[r], tab.d, tab.labels[c]
        before = _dense(tab)
        ys = [tab._read(column)[r] for column in tab.cols]
        pivot(tab, r, c)
        q = tab.d
        assert q == abs(p)
        if q == d:
            cases.add("p == d == 1" if d == 1 else "p == d > 1")
        elif 0 in ys:
            cases.add("y == 0, p != d")
        prow = [F(y, p) for y in before[r]]  # (y / d) / (p / d)
        for i, (old, new) in enumerate(zip(before, _dense(tab), strict=True)):
            if i == r:
                assert new == [q * y for y in prow]
                continue
            f = F(old[col], d)
            if p == d:
                cases.add("p == d, f == 0" if f == 0 else "p == d, f != 0")
            else:
                cases.add("p != d")
            for x, y, z in zip(old, prow, new, strict=True):
                assert z == q * (F(x, d) - f * y) if f and y else z * d == q * x
        if p < 0:
            cases.add("negative pivot")

    monkeypatch.setattr(simplex._Tableau, "_pivot", check)
    for system in [*simplex_systems(), n20_system()]:
        solve(system)
    assert cases == {
        "p == d, f == 0",
        "p == d, f != 0",
        "p != d",
        "negative pivot",
        "p == d == 1",
        "p == d > 1",
        "y == 0, p != d",
    }


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_condensed_layout_holds_after_every_pivot(monkeypatch, exact):
    # Every structural and slack label is stored or basic, exactly once; an
    # artificial is only ever basic; each stored column, the right-hand side
    # included, has one entry per row and its reduced cost last.  While the
    # artificial of row i is basic, the slack of row i is stored with entry
    # -d in row i, so drive-out always finds a pivot there.
    pivots = artificial_rows = 0
    pivot = simplex._Tableau._pivot

    def check(tab, r, c):
        nonlocal pivots, artificial_rows
        pivot(tab, r, c)
        pivots += 1
        labels = sorted(j for j in [*tab.labels, *tab.basis] if j < tab.art)
        assert labels == list(range(tab.art))
        assert max(tab.labels, default=-1) < tab.art
        assert len(tab.cols) == len(tab.labels) + 1
        columns = [tab._read(column) for column in tab.cols]
        assert all(len(column) == len(tab.basis) + 1 for column in columns)
        assert not hasattr(tab, "zrow")
        for i, bcol in enumerate(tab.basis):
            if bcol >= tab.art:
                slack = columns[tab.labels.index(tab.nx + i)]
                assert slack[i] == -tab.d
                assert type(slack[i]) is type(tab.one)
                artificial_rows += 1

    monkeypatch.setattr(simplex._Tableau, "_pivot", check)
    for system in [*simplex_systems(), n20_system()]:
        solve(system, exact=exact)
    assert pivots > 140
    assert artificial_rows > 1000


def test_pivot_budget(monkeypatch, tmp_path, capsys):
    affine = pipeline.PipelineConfig(
        relax.AFFINE, relax.BOUND_K_MINUS_1, 2, pipeline.OBJECTIVE_NONE
    )
    contradiction = harness.contradiction_2cnf()  # 3 pivots under affine k-1
    system = pipeline.build_system(contradiction, affine)
    monkeypatch.setattr(simplex, "PIVOT_BUDGET", 3)
    assert solve(system).pivot_steps == 3
    monkeypatch.setattr(simplex, "PIVOT_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        solve(system)

    no_pivots = Formula(3, (clause_of(1, 2), clause_of(2, 3)))
    report = harness.diff_run(
        [("contradiction", contradiction), ("no-pivots", no_pivots)], affine
    )
    over, under = report.records
    assert over.category == harness.ERROR_CATEGORY
    assert over.error.startswith("BudgetExceededError:")
    assert under.category != harness.ERROR_CATEGORY
    assert under.lp_pivots == 0

    path = tmp_path / "contra.cnf"
    path.write_text(write_dimacs(contradiction), encoding="utf-8")
    assert main(["lp", str(path), "--negation", "affine", "--bound", "k-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: simplex needs more than 2 pivots")


def test_tableau_budget(monkeypatch):
    # The bound is variables + rows + 1 columns of rows + 1 entries, the
    # reduced cost last: the affine contradiction has 2 variables and 6
    # rows, so 9 * 7 cells.
    contradiction = harness.contradiction_2cnf()
    affine = pipeline.PipelineConfig(relax.AFFINE, relax.BOUND_K_MINUS_1)
    system = pipeline.build_system(contradiction, affine)
    monkeypatch.setattr(simplex, "TABLEAU_BUDGET", 63)
    assert solve(system).pivot_steps == 3
    monkeypatch.setattr(simplex, "TABLEAU_BUDGET", 62)
    with pytest.raises(BudgetExceededError, match="tableau may exceed 62 cells"):
        solve(system)
    # An origin answer builds no tableau, so it never meets the budget.
    monkeypatch.setattr(simplex, "TABLEAU_BUDGET", 0)
    faithful = pipeline.build_system(contradiction, pipeline.PipelineConfig())
    assert solve(faithful) == LpSolution(FEASIBLE, (0, 0), None, 0)


def test_float_mode_matches_exact_on_fixed_example():
    system = LpSystem(
        2,
        (LinearConstraint({0: 1, 1: 2}, 4), LinearConstraint({0: 3, 1: 1}, 6)),
        objective=(1, 1),
    )
    sol = solve(system, exact=False)
    assert sol.status == FEASIBLE
    assert isinstance(sol.objective_value, float)
    assert abs(sol.objective_value - 2.8) < 1e-9
    assert max_violation(system, sol.point) <= 1e-9


def test_float_ratio_test_divides():
    """Float mode compares ratios by division.  Cross-multiplied, the float
    products round apart from the quotients: this system then takes 15
    pivots, like the exact solve, and reaches another float point."""
    config = pipeline.PipelineConfig(
        relax.AFFINE, relax.BOUND_K_MINUS_1, 2, pipeline.OBJECTIVE_MAX_SUM
    )
    system = pipeline.build_system(random_kcnf(5, 21, 3, 24), config)
    assert solve(system).pivot_steps == 15
    assert solve(system, exact=False).pivot_steps == 16


def test_max_violation_reports_worst_break():
    system = LpSystem(2, (LinearConstraint({0: 1, 1: 1}, 1),))
    assert max_violation(system, (2, 1)) == 2
    assert max_violation(system, (F(1, 2), F(1, 2))) == 0
    assert max_violation(system, (-3, 0)) == 3
    with pytest.raises(ValueError):
        max_violation(system, (1,))


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(rows)
    aug = [[F(x) for x in row] + [F(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * p for x, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _enumerate_vertices(system):
    """All basic feasible points: every choice of num_vars active rows among
    the constraints and the X >= 0 bounds."""
    n = system.num_vars
    rows = []
    for con in system.constraints:
        coeffs = [F(con.coefficients.get(v, 0)) for v in range(n)]
        rows.append((coeffs, F(con.bound)))
    for v in range(n):
        coeffs = [F(0)] * n
        coeffs[v] = F(1)
        rows.append((coeffs, F(0)))
    vertices = []
    for combo in itertools.combinations(range(len(rows)), n):
        point = _solve_square([rows[i][0] for i in combo], [rows[i][1] for i in combo])
        if point is None:
            continue
        if max_violation(system, tuple(point)) <= 0:
            vertices.append(tuple(point))
    return vertices


def test_agrees_with_vertex_enumeration_on_random_boxed_systems():
    rng = random.Random(2024)
    for trial in range(40):
        n = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {v: rng.randint(-3, 3) for v in range(n)}
            cons.append(LinearConstraint(coeffs, rng.randint(-2, 4)))
        for v in range(n):
            cons.append(LinearConstraint({v: 1}, rng.randint(1, 3)))
        objective = tuple(rng.randint(-3, 3) for _ in range(n))
        system = LpSystem(n, tuple(cons), objective=objective)
        sol = solve(system)
        vertices = _enumerate_vertices(system)
        if sol.status == INFEASIBLE:
            assert vertices == [], f"trial {trial}: missed feasible vertex"
            continue
        # The boxes bound the region, so the optimum sits at a vertex.
        assert sol.status == FEASIBLE
        assert max_violation(system, sol.point) <= 0
        best = max(
            sum(c * x for c, x in zip(objective, vertex)) for vertex in vertices
        )
        assert sol.objective_value == best, f"trial {trial}"

        float_sol = solve(system, exact=False)
        assert float_sol.status == FEASIBLE
        assert abs(float_sol.objective_value - float(best)) < 1e-6


def test_phase_one_value_is_the_least_total_shortfall_over_vertices():
    """The phase-1 infeasibility value of an infeasible boxed system equals
    min sum(t) over the system with a t_k >= 0 per negative-bound row k,
    rewritten a.x - t_k <= b_k, found by vertex enumeration."""
    rng = random.Random(7)
    infeasible = 0
    for trial in range(100):
        n = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {v: rng.randint(-3, 3) for v in range(n)}
            cons.append(LinearConstraint(coeffs, rng.randint(-4, 4)))
        for v in range(n):
            cons.append(LinearConstraint({v: 1}, rng.randint(1, 3)))
        system = LpSystem(n, tuple(cons))
        sol = solve(system)
        if sol.status != INFEASIBLE:
            continue
        infeasible += 1
        rows, t = [], n  # variable t is the next t_k; equal rows get one each
        for con in cons:
            if con.bound < 0:
                con = LinearConstraint({**con.coefficients, t: -1}, con.bound)
                t += 1
            rows.append(con)
        shortfall = LpSystem(t, tuple(rows))
        least = min(sum(vertex[n:]) for vertex in _enumerate_vertices(shortfall))
        assert least > 0, f"trial {trial}"
        assert sol.infeasibility == least, f"trial {trial}"
        float_sol = solve(system, exact=False)
        assert float_sol.status == INFEASIBLE, f"trial {trial}"
        assert abs(float_sol.infeasibility - float(least)) < 1e-9, f"trial {trial}"
    assert infeasible >= 30


def test_solution_shape():
    sol = LpSolution(FEASIBLE, (1,), None, 0)
    assert sol.infeasibility is None


def _record_widths(monkeypatch):
    """The field width of each exact tableau when it is packed, and the width
    before and after each exact pivot, as the solver runs.  A packing that
    retries at a wider width inside ``_pack`` is recorded once."""
    packed, pivots, depth = [], [], [0]
    pack, pivot = simplex._Tableau._pack, simplex._Tableau._pivot

    def pack_spy(tab, cols, *args):
        depth[0] += 1
        pack(tab, cols, *args)
        depth[0] -= 1
        if tab.exact and not depth[0]:
            packed.append(tab.width)

    def pivot_spy(tab, r, c):
        before = tab.exact and tab.width
        pivot(tab, r, c)
        if tab.exact:
            pivots.append((before, tab.width))

    monkeypatch.setattr(simplex._Tableau, "_pack", pack_spy)
    monkeypatch.setattr(simplex._Tableau, "_pivot", pivot_spy)
    return packed, pivots


def _check_against_vertices_and_floats(system):
    """The exact solve of a boxed system reaches the best vertex, and the
    float solve the same value up to rounding."""
    sol = solve(system)
    vertices = _enumerate_vertices(system)
    if sol.status == INFEASIBLE:
        assert vertices == []
        return sol
    assert sol.status == FEASIBLE
    assert max_violation(system, sol.point) <= 0
    best = max(sum(c * x for c, x in zip(system.objective, v)) for v in vertices)
    assert sol.objective_value == best
    float_sol = solve(system, exact=False)
    assert float_sol.status == FEASIBLE
    assert abs(float_sol.objective_value - float(best)) <= 1e-6 * max(1, abs(best))
    return sol


def test_small_data_start_in_32_bit_fields(monkeypatch):
    # lp-pivot's systems (affine k-1 max-sum, n=5) keep every entry below
    # 2^14, so they are packed in 32-bit fields and no pivot widens them.
    packed, pivots = _record_widths(monkeypatch)
    for system in simplex_systems()[:30]:
        assert solve(system).pivot_steps > 0
    assert set(packed) == {32}
    assert len(pivots) >= 300 and set(pivots) == {(32, 32)}
    # Coefficients of about 10 bits fit 32-bit fields too, but a pivot's
    # Bareiss entries pass 2^14, so the tableau repacks into 64-bit fields.
    rng = random.Random(31)

    def mid():
        return rng.choice([-1, 1]) * rng.randint(2**9, 2**10)

    feasible = widened = 0
    for _ in range(30):
        del packed[:], pivots[:]
        n = rng.randint(3, 4)
        cons = [
            LinearConstraint({v: mid() for v in range(n)}, mid())
            for _ in range(rng.randint(3, 4))
        ]
        cons += [LinearConstraint({v: 1}, rng.randint(1, 2**10)) for v in range(n)]
        objective = tuple(rng.randint(-3, 3) for _ in range(n))
        sol = _check_against_vertices_and_floats(LpSystem(n, tuple(cons), objective))
        feasible += sol.status == FEASIBLE
        assert packed[0] == 32
        widened += (32, 64) in pivots
    assert feasible >= 15
    assert widened >= 20


@pytest.mark.parametrize(
    "system",
    [
        LpSystem(2, (
            LinearConstraint({0: 2**40, 1: 2**40 + 1}, 3 * 2**40),
            LinearConstraint({0: 1, 1: -1}, 1),
            LinearConstraint({0: 1}, 2),
            LinearConstraint({1: 1}, 2),
        ), objective=(1, 2)),
        # Floats in exact mode: 0.1 and 0.7 scale by their lcm, 2^55.
        LpSystem(2, (
            LinearConstraint({0: 0.1, 1: 0.7}, 0.9),
            LinearConstraint({0: -0.3, 1: -0.1}, -0.2),
            LinearConstraint({0: 1}, 4),
            LinearConstraint({1: 1}, 4),
        ), objective=(2, 1)),
    ],
    ids=["2^40", "floats"],
)
def test_data_wider_than_30_bits_start_in_wider_fields(monkeypatch, system):
    packed, pivots = _record_widths(monkeypatch)
    sol = _check_against_vertices_and_floats(system)
    assert sol.pivot_steps > 0
    assert packed[0] > 64  # the first tableau is already packed wide
    assert all(after >= 128 for _, after in pivots)


def test_fields_widen_when_entries_outgrow_them_mid_solve(monkeypatch):
    # Coefficients of about 20 bits: each pivot's Bareiss entries are minors
    # one order larger, so after a pivot they pass 2^30 and the tableau
    # repacks into 128-bit fields, and later ones into wider fields still.
    packed, pivots = _record_widths(monkeypatch)
    rng = random.Random(29)

    def big():
        return rng.choice([-1, 1]) * rng.randint(2**19, 2**20)

    feasible = 0
    for _ in range(30):
        n = rng.randint(3, 4)
        cons = [
            LinearConstraint({v: big() for v in range(n)}, big())
            for _ in range(rng.randint(3, 4))
        ]
        cons += [LinearConstraint({v: 1}, rng.randint(1, 2**20)) for v in range(n)]
        objective = tuple(rng.randint(-3, 3) for _ in range(n))
        sol = _check_against_vertices_and_floats(LpSystem(n, tuple(cons), objective))
        feasible += sol.status == FEASIBLE
    assert feasible >= 15
    assert packed.count(64) == 30  # each system's data fit 64-bit fields
    widened = [(before, after) for before, after in pivots if after > before]
    assert len(widened) >= 20
    assert {(64, 128), (128, 192), (192, 256)} <= set(widened)
