"""Exact oracles: brute force and DPLL must agree with each other and with
the reference evaluator on every verdict and witness."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from modsat import oracle
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


@pytest.mark.parametrize("num_vars, clauses, verdict", [
    # x2 and -11 are pure in (-11, 2, 12) only until the unit 12 is set, so
    # setting them first would give another witness.
    (14, ((-3,), (-11, 2, 12), (12,), (-12, 1), (8, -12)), OracleVerdict(
        SAT, tuple(v in (1, 8, 12) for v in range(1, 15)), 1
    )),
    (1, ((1,), (-1,)), OracleVerdict(UNSAT, None, 1)),
], ids=["pure-after-units", "opposite-units"])
def test_dpll_sets_root_units_before_pure_literals(num_vars, clauses, verdict):
    f = Formula(num_vars, tuple(clause_of(*clause) for clause in clauses))
    assert dpll_sat(f) == verdict


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


PINNED = [
    (12, 51, 500, 364, 6345,
     "37fc5cdff09280d93614598c3b26582c33d28290f721831429a233260a8ff08a"),
    (24, 102, 400, 263, 18076,
     "ce66ee9a8d0e2f35644de4d0b388fc7993843b6940180610688f8801a6ee43b6"),
]


@pytest.mark.parametrize("num_vars, num_clauses, count, sat, nodes, digest", PINNED)
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


@pytest.mark.parametrize(
    "limit", [0, 10**5], ids=["occurrence-rank", "clause-index"]
)
def test_both_field_numberings_hold_the_pins(monkeypatch, limit):
    # The size rule picks one numbering per formula.  Forcing each one on
    # every pinned formula (10**5 is past the W-oracle's 2 * 80 * 342 =
    # 54,720 bits, the largest pinned size) holds both to every digest.
    monkeypatch.setattr(oracle, "FIELD_INDEX_MAX_BITS", limit)
    for args in PINNED:
        test_dpll_outputs_are_pinned(*args)
    test_dpll_outputs_on_mixed_formulas_are_pinned()
    test_dpll_w_oracle_node_count()


def _shifted(formula, by):
    """The formula with every variable v renamed v + by."""
    return Formula(formula.num_vars + by, tuple(
        clause_of(*(code + by if code > 0 else code - by for code in clause))
        for clause in formula.clauses
    ))


@pytest.mark.parametrize("seed", [5, 9])
def test_dpll_search_does_not_depend_on_variable_numbers(seed):
    # Variables 1,000,001 to 1,000,060: the same search as over 1 to 60,
    # with the witness shifted (seed 5 is unsat, seed 9 sat).
    f = random_kcnf(60, 240, 3, seed)
    plain, shifted = dpll_sat(f), dpll_sat(_shifted(f, 10**6))
    assert shifted.status == plain.status
    assert shifted.nodes_explored == plain.nodes_explored
    if plain.witness is None:
        assert shifted.witness is None
    else:
        assert shifted.witness == (False,) * 10**6 + plain.witness


def test_dpll_memory_does_not_grow_with_variable_numbers():
    # Dense numbering keeps every set of literals 120 bits wide and occ is
    # keyed by the codes that occur, so the traced peak is 0.09 MiB
    # measured.  With masks as wide as the variable numbers the peak
    # reached 27.1 MiB within the first 20 nodes.
    f = _shifted(random_kcnf(60, 240, 3, 5), 10**6)
    tracemalloc.start()
    try:
        dpll_sat(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_dpll_set_up_does_not_grow_with_variable_numbers():
    # One node: occ is keyed by the 120 codes that occur, so nothing but
    # the witness is sized by the 1,000,060 declared variables.  The traced
    # peak is 0.08 MiB measured; a list of 2n + 1 occurrence masks and a
    # scan of range(1, n + 1) for the variables that occur took 15.3 MiB.
    f = _shifted(random_kcnf(60, 240, 3, 5), 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            dpll_sat(f, node_budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dpll_memory_does_not_grow_with_one_frequent_literal():
    # x1 in all 800 clauses, two other literals of x2..x200 in each.  Each
    # pair of fields is only as wide as its own variable's occurrences, so
    # the traced peak is 0.47 MiB measured; with every field as wide as x1's
    # 800 it was 38.7 MiB.
    rng = random.Random(3)
    f = Formula(200, tuple(
        clause_of(1, *(rng.choice((v, -v)) for v in rng.sample(range(2, 201), 2)))
        for _ in range(800)
    ))
    tracemalloc.start()
    try:
        verdict = dpll_sat(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == SAT and evaluate(f, verdict.witness)
    assert peak < 2**20


@pytest.mark.parametrize(
    "budget, error", [(-1, ValueError), (True, TypeError), (1.0, TypeError)]
)
def test_dpll_refuses_a_budget_that_is_not_a_count(budget, error):
    with pytest.raises(error, match="node budget must be"):
        dpll_sat(CONTRADICTION, node_budget=budget)


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
