"""Exact oracles: brute force and DPLL must agree with each other and with
the reference evaluator on every verdict and witness."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from modsat.cnf import Formula, clause_of, evaluate, random_kcnf
from modsat.errors import BudgetExceededError
from modsat.oracle import (
    SAT,
    UNSAT,
    OracleVerdict,
    brute_force_sat,
    dpll_sat,
)

from conftest import formulas

CONTRADICTION = Formula(
    2,
    (clause_of(1, 2), clause_of(1, -2), clause_of(-1, 2), clause_of(-1, -2)),
)


def test_brute_force_simple_sat():
    f = Formula(2, (clause_of(1, 2),))
    verdict = brute_force_sat(f)
    assert verdict.status == SAT
    # Assignment 0b01 is the first satisfying integer.
    assert verdict.witness == (True, False)
    assert verdict.nodes_explored == 2  # tried 0b00 then 0b01
    assert evaluate(f, verdict.witness)


def test_brute_force_unsat_tries_everything():
    verdict = brute_force_sat(CONTRADICTION)
    assert verdict.status == UNSAT
    assert verdict.witness is None
    assert verdict.nodes_explored == 4


def test_brute_force_ascending_order():
    # not x1 is satisfied by 0b00 immediately.
    verdict = brute_force_sat(Formula(2, (clause_of(-1),)))
    assert verdict.witness == (False, False)
    assert verdict.nodes_explored == 1


def test_brute_force_empty_formula():
    verdict = brute_force_sat(Formula(0, ()))
    assert verdict.status == SAT
    assert verdict.witness == ()


def test_brute_force_respects_cap():
    with pytest.raises(BudgetExceededError):
        brute_force_sat(Formula(27, (clause_of(1, 2),)))
    assert brute_force_sat(Formula(26, (clause_of(1),))).status == SAT


def test_dpll_unit_propagation_alone():
    # Chain of implications collapses without branching.
    f = Formula(3, (clause_of(1), clause_of(-1, 2), clause_of(-2, 3)))
    verdict = dpll_sat(f)
    assert verdict.status == SAT
    assert verdict.witness == (True, True, True)
    assert verdict.nodes_explored == 1


def test_dpll_pure_literals_alone():
    f = Formula(2, (clause_of(1, 2), clause_of(1, -2)))
    verdict = dpll_sat(f)
    assert verdict.status == SAT
    assert verdict.nodes_explored == 1
    assert evaluate(f, verdict.witness)


def test_dpll_contradiction():
    verdict = dpll_sat(CONTRADICTION)
    assert verdict.status == UNSAT
    assert verdict.witness is None
    assert verdict.nodes_explored >= 1


def test_dpll_unassigned_variables_default_false():
    f = Formula(4, (clause_of(2),))
    verdict = dpll_sat(f)
    assert verdict.witness == (False, True, False, False)


def test_dpll_budget_raises_instead_of_guessing():
    f = random_kcnf(30, 128, 3, seed=5)
    with pytest.raises(BudgetExceededError):
        dpll_sat(f, node_budget=2)


def test_dpll_budget_boundary_is_exact():
    f = random_kcnf(30, 128, 3, seed=5)
    verdict = dpll_sat(f, node_budget=99)
    assert verdict.status == UNSAT
    assert verdict.nodes_explored == 99
    with pytest.raises(BudgetExceededError):
        dpll_sat(f, node_budget=98)


def test_dpll_tautology_is_not_a_unit():
    # x1 or not x1 has one variable but two literals: no unit, no pure
    # literal, so the root branches and the false child satisfies it.
    verdict = dpll_sat(Formula(1, (clause_of(1, -1),)))
    assert verdict == OracleVerdict(SAT, (False,), 2)


def test_dpll_depth_is_bounded_only_by_the_budget():
    # 1,200 disjoint pairs (a or b)(not a or not b): one branch per pair,
    # 1,200 levels deep, each false branch satisfying its pair at once.
    clauses = []
    for a in range(1, 2401, 2):
        clauses += [clause_of(a, a + 1), clause_of(-a, -a - 1)]
    f = Formula(2400, tuple(clauses))
    verdict = dpll_sat(f)
    assert verdict.status == SAT
    assert verdict.nodes_explored == 1201
    assert evaluate(f, verdict.witness)


@pytest.mark.parametrize(
    "num_vars, num_clauses, count, sat, nodes, digest",
    [
        (12, 51, 500, 364, 6345,
         "37fc5cdff09280d93614598c3b26582c33d28290f721831429a233260a8ff08a"),
        (24, 102, 400, 263, 18076,
         "ce66ee9a8d0e2f35644de4d0b388fc7993843b6940180610688f8801a6ee43b6"),
    ],
)
def test_dpll_outputs_are_pinned(num_vars, num_clauses, count, sat, nodes, digest):
    # Verdicts, witnesses and node counts of the recursive list-based DPLL
    # this search replaced; the digest is sha256 of repr() of the rows.
    rows = []
    for seed in range(count):
        v = dpll_sat(random_kcnf(num_vars, num_clauses, 3, seed))
        rows.append((v.status, v.witness, v.nodes_explored))
    assert sum(status == SAT for status, _, _ in rows) == sat
    assert sum(n for _, _, n in rows) == nodes
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def _mixed_formula(seed):
    """Up to 18 used and 2 unused variables; each clause samples distinct
    codes, so it may hold v and -v together; widths 1 to 9, or none."""
    rng = random.Random(seed)
    n = rng.randrange(19)
    top = rng.randint(1, min(9, 2 * n)) if n else 0
    low = rng.randint(1, min(top, 4)) if n else 0
    codes = [code for v in range(1, n + 1) for code in (v, -v)]
    clauses = tuple(
        clause_of(*rng.sample(codes, rng.randint(low, top)))
        for _ in range(rng.randrange(n << low | 1))
    )
    return Formula(n + rng.randrange(3), clauses)


def test_dpll_outputs_on_mixed_formulas_are_pinned():
    # Widths 1 to 9 (one to four bits of a clause's literal count),
    # tautologies, unit clauses, unused variables and empty formulas, as
    # the clause-list DPLL answered them; sha256 of repr() of the rows.
    rows = []
    for seed in range(2000):
        v = dpll_sat(_mixed_formula(seed))
        rows.append((v.status, v.witness, v.nodes_explored))
    assert sum(status == SAT for status, _, _ in rows) == 1686
    assert sum(n for _, _, n in rows) == 7477
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "886bc75edba4b06a3fb0d87a0194cf986da735829397046e32c21c2a18bb2893"
    )


def test_dpll_w_oracle_node_count():
    # The n=80 instance the oracle's speed is quoted on.
    verdict = dpll_sat(random_kcnf(80, 341, 3, seed=5))
    assert verdict == OracleVerdict(UNSAT, None, 8891)


def test_verdict_shape():
    v = OracleVerdict(SAT, (True,), 1)
    assert v.nodes_explored == 1


@given(f=formulas(max_vars=8, max_clauses=8))
def test_oracles_agree_on_random_formulas(f):
    bf = brute_force_sat(f)
    dp = dpll_sat(f)
    assert bf.status == dp.status
    if bf.status == SAT:
        assert evaluate(f, bf.witness)
        assert evaluate(f, dp.witness)


@st.composite
def formulas_with_tautologies(draw, max_vars=7, max_clauses=10):
    """Clauses of distinct signed codes, so v and -v may share a clause."""
    n = draw(st.integers(1, max_vars))
    codes = [code for v in range(1, n + 1) for code in (v, -v)]
    clause = st.lists(
        st.sampled_from(codes), min_size=1, max_size=2 * n, unique=True
    ).map(lambda c: clause_of(*c))
    return Formula(n, tuple(draw(st.lists(clause, max_size=max_clauses))))


@settings(max_examples=300)
@given(f=formulas_with_tautologies())
def test_oracles_agree_on_formulas_with_tautologies(f):
    bf = brute_force_sat(f)
    dp = dpll_sat(f)
    assert bf.status == dp.status
    if dp.status == SAT:
        assert evaluate(f, dp.witness)


def test_oracles_agree_on_seeded_kcnf_batch():
    # 200 instances around and past the 3-SAT threshold ratio.
    checked = 0
    for seed in range(200):
        n = 4 + seed % 9  # 4..12 variables
        m = int(4.3 * n) + seed % 3
        f = random_kcnf(n, m, 3, seed=seed)
        bf = brute_force_sat(f)
        dp = dpll_sat(f)
        assert bf.status == dp.status, f"seed {seed}"
        if bf.status == SAT:
            assert evaluate(f, bf.witness)
            assert evaluate(f, dp.witness)
        checked += 1
    assert checked == 200


def test_dpll_node_count_grows_with_branching():
    easy = dpll_sat(Formula(2, (clause_of(1, 2),)))
    hard = dpll_sat(random_kcnf(12, 52, 3, seed=1))
    assert easy.nodes_explored <= hard.nodes_explored
