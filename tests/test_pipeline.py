"""Relax-solve-round pipeline behavior and its documented unsoundness."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modsat import relax, simplex
from modsat.cnf import Formula, clause_of, evaluate, random_kcnf
from modsat.errors import UnsupportedFormulaError
from modsat.mvlogic import mod_shift
from modsat.oracle import dpll_sat
from modsat.pipeline import (
    OBJECTIVE_MAX_SUM,
    OBJECTIVE_NONE,
    SAT_CLAIM,
    UNSAT_CLAIM,
    PipelineConfig,
    PipelineResult,
    RoundAnomaly,
    build_system,
    round_assignment,
    run,
)
from modsat.simplex import FEASIBLE, INFEASIBLE, LpSolution, LpSystem, max_violation

from conftest import formulas
from test_identity import relaxation_formulas


def contradiction():
    return Formula(
        2,
        (clause_of(1, 2), clause_of(1, -2), clause_of(-1, 2), clause_of(-1, -2)),
    )


def test_config_validation():
    PipelineConfig()  # defaults are valid
    PipelineConfig(rounding_base="k")
    with pytest.raises(ValueError):
        PipelineConfig(negation_mode="other")
    with pytest.raises(ValueError):
        PipelineConfig(bound_mode="loose")
    with pytest.raises(ValueError, match="rounding base other than 'k' must be >= 2, got 1"):
        PipelineConfig(rounding_base=1)
    with pytest.raises(TypeError, match="rounding base other than 'k' must be an int"):
        PipelineConfig(rounding_base=2.0)
    with pytest.raises(ValueError):
        PipelineConfig(objective="min")


def test_round_assignment_zero_is_true():
    values, anomalies = round_assignment((0, 1, Fraction(1, 2)), 2)
    assert values == (True, False, True)  # floor(1/2) = 0
    assert anomalies == ()


def test_round_assignment_records_anomalies():
    values, anomalies = round_assignment((2, 0), 3)
    assert values == (False, True)
    assert anomalies == (RoundAnomaly(var=1, raw=2.0, rounded=2),)


def test_round_assignment_rejects_floats():
    with pytest.raises(TypeError, match="ints or Fractions"):
        round_assignment((Fraction(1, 2), 0.0), 2)


def test_round_assignment_floors_fractions_as_mod_shift_does():
    point = tuple(Fraction(p, q) for p in range(-7, 8) for q in (1, 2, 3))
    for base in (2, 3, 5):
        rounded = [mod_shift(base, 0, x) for x in point]
        assert round_assignment(point, base) == (
            tuple(r == 0 for r in rounded),
            tuple(
                RoundAnomaly(i, x, r)
                for i, (x, r) in enumerate(zip(point, rounded), 1)
                if r > 1
            ),
        )
    with pytest.raises(ValueError, match="arity"):
        round_assignment((Fraction(1, 2),), 1)


def test_built_systems_pass_the_public_checks():
    # build_system's systems skip LpSystem's checks; they must pass them.
    modes = itertools.product(
        relax.NEGATION_MODES, relax.BOUND_MODES, (OBJECTIVE_NONE, OBJECTIVE_MAX_SUM)
    )
    built = 0
    for (negation, bound, objective), formula in itertools.product(
        modes, relaxation_formulas()
    ):
        try:
            s = build_system(formula, PipelineConfig(negation, bound, 2, objective))
        except UnsupportedFormulaError:
            continue
        assert LpSystem(s.num_vars, s.constraints, s.objective) == s
        built += 1
    assert built > 1000


def test_faithful_pipeline_claims_sat_at_origin():
    # Zero vector is always feasible, rounds to all-true.
    f = Formula(3, (clause_of(1, 2), clause_of(2, 3)))
    result = run(f)
    assert result.claimed_status == SAT_CLAIM
    assert result.rounded == (True, True, True)
    assert result.anomalies == ()
    assert evaluate(f, result.rounded) is True  # all-positive: genuinely sound


def test_contradiction_yields_unsound_sat_claim():
    result = run(contradiction())
    assert result.claimed_status == SAT_CLAIM
    assert result.rounded == (True, True)
    assert evaluate(contradiction(), result.rounded) is False


def test_affine_contradiction_rounds_half_to_true():
    config = PipelineConfig(negation_mode="affine", bound_mode="k-1")
    result = run(contradiction(), config)
    assert result.claimed_status == SAT_CLAIM
    assert result.lp.point == (Fraction(1, 2), Fraction(1, 2))
    # floor(1/2) mod 2 = 0 -> true; the integrality gap hides the conflict.
    assert result.rounded == (True, True)
    assert evaluate(contradiction(), result.rounded) is False


def test_maximize_sum_moves_off_origin():
    f = Formula(2, (clause_of(1, 2),))
    config = PipelineConfig(
        negation_mode="affine", bound_mode="k-1", objective=OBJECTIVE_MAX_SUM
    )
    result = run(f, config)
    assert result.claimed_status == SAT_CLAIM
    assert result.lp.status == FEASIBLE
    assert result.lp.objective_value == 1
    assert sum(result.lp.point) == 1


def test_maximize_sum_unbounded_falls_back_to_feasibility():
    # Variable 3 appears in no clause, so its sum is unbounded in faithful
    # mode (no box rows); the pipeline must still produce a claim.
    f = Formula(3, (clause_of(1, 2),))
    config = PipelineConfig(objective=OBJECTIVE_MAX_SUM)
    result = run(f, config)
    assert result.claimed_status == SAT_CLAIM
    assert result.rounded is not None
    assert result.lp.status == FEASIBLE


def test_round_base_k_uses_clause_width():
    f = Formula(3, (clause_of(1, 2, 3),))
    result = run(f, PipelineConfig(rounding_base="k"))
    assert result.claimed_status == SAT_CLAIM
    assert result.rounded == (True, True, True)


def test_empty_formula_claims_sat():
    result = run(Formula(2, ()))
    assert result.claimed_status == SAT_CLAIM
    assert result.rounded == (True, True)
    assert result.steps == 0 + 0 + 2


def test_rejects_nonuniform_and_narrow():
    with pytest.raises(UnsupportedFormulaError):
        run(Formula(3, (clause_of(1, 2), clause_of(1, 2, 3))))
    with pytest.raises(UnsupportedFormulaError):
        run(Formula(1, (clause_of(1),)))


def test_steps_accounting():
    f = Formula(2, (clause_of(1, 2),))
    result = run(f)
    assert (
        result.steps
        == 1 + result.lp.pivot_steps + 2  # constraints + pivots + roundings
    )
    affine = run(f, PipelineConfig(negation_mode="affine"))
    assert affine.steps == 3 + affine.lp.pivot_steps + 2  # box rows count


def test_deterministic():
    f = contradiction()
    config = PipelineConfig(negation_mode="affine", bound_mode="k-1")
    assert run(f, config) == run(f, config)


@given(f=formulas(max_vars=5, max_clauses=5, min_width=2))
def test_unsat_claim_unreachable_for_valid_input(f):
    # Documented property: every width >= 2 relaxation is feasible (the zero
    # vector in faithful mode, the all-half vector in affine mode), so the
    # pipeline can only ever claim sat.
    if f.clauses and f.uniform_width is None:
        return
    for config in (
        PipelineConfig(),
        PipelineConfig(bound_mode="k-1"),
        PipelineConfig(negation_mode="affine"),
        PipelineConfig(negation_mode="affine", bound_mode="k-1"),
    ):
        result = run(f, config)
        assert result.claimed_status == SAT_CLAIM
        assert result.claimed_status != UNSAT_CLAIM


ORIGIN_CONFIGS = [
    PipelineConfig(negation_mode=negation, bound_mode=bound, rounding_base=base)
    for negation, bound in (("faithful", "k"), ("faithful", "k-1"), ("affine", "k"))
    for base in (2, "k")
]


@given(f=st.integers(2, 4).flatmap(lambda w: formulas(max_vars=6, width=w)))
def test_origin_configurations_answer_at_the_origin(f):
    # No row of these six relaxations has a negative bound, so solve returns
    # the origin without a pivot, whatever the formula: the candidate is
    # all-true. The default configuration is one of them.
    assert PipelineConfig() in ORIGIN_CONFIGS
    for config in ORIGIN_CONFIGS:
        result = run(f, config)
        assert result.lp.pivot_steps == 0
        assert result.lp.point == (0,) * f.num_vars
        assert result.rounded == (True,) * f.num_vars


def test_infeasible_relaxation_yields_unsat_claim(monkeypatch):
    # Unreachable for valid input (above), so a stub solve reports infeasible.
    infeasible = LpSolution(INFEASIBLE, None, None, 3, Fraction(1, 2))
    monkeypatch.setattr(simplex, "solve", lambda system: infeasible)
    result = run(contradiction(), PipelineConfig(negation_mode="affine"))
    # steps: 4 clause rows + 2 box rows + 3 pivots, and no rounding.
    assert result == PipelineResult(UNSAT_CLAIM, None, infeasible, (), 4 + 2 + 3)


@given(f=st.integers(2, 4).flatmap(lambda w: formulas(max_vars=6, width=w)))
def test_affine_rounding_base_never_matters(f):
    # The box rows keep every affine coordinate in [0, 1], where floor(X)
    # mod 2 and floor(X) mod k agree, so base 2 and base k give equal results.
    modes = itertools.product(relax.BOUND_MODES, (OBJECTIVE_NONE, OBJECTIVE_MAX_SUM))
    for bound, objective in modes:
        base_2, base_k = (
            run(f, PipelineConfig(relax.AFFINE, bound, base, objective))
            for base in (2, "k")
        )
        assert base_2 == base_k


@given(f=formulas(max_vars=6, max_clauses=6))
def test_affine_k_minus_1_zero_one_points_are_the_models(f):
    # A clause row sums X over its positive literals and 1 - X over its
    # negated ones: with X = 0 read as true, the count of its false literals.
    # Bounded by k - 1, at least one literal is true.
    system = relax.build_relaxation(f, relax.AFFINE, relax.BOUND_K_MINUS_1)
    for point in itertools.product((0, 1), repeat=f.num_vars):
        model = evaluate(f, tuple(x == 0 for x in point))
        assert (max_violation(system, point) <= 0) == model


def relabel(formula: Formula, seed: int) -> Formula:
    """``formula`` with its variables permuted and its clauses shuffled."""
    rng = random.Random(seed)
    perm = rng.sample(range(1, formula.num_vars + 1), formula.num_vars)
    clauses = [
        clause_of(*(perm[abs(code) - 1] * (1 if code > 0 else -1) for code in clause))
        for clause in formula.clauses
    ]
    rng.shuffle(clauses)
    return Formula(formula.num_vars, tuple(clauses))


ALL_CONFIGS = [
    PipelineConfig(*config)
    for config in itertools.product(
        relax.NEGATION_MODES,
        relax.BOUND_MODES,
        (2, "k"),
        (OBJECTIVE_NONE, OBJECTIVE_MAX_SUM),
    )
]


def test_relabeling_keeps_claims_lp_values_and_verdicts():
    # Renumbering variables and reordering clauses changes neither the
    # formula's satisfiability nor an LP's status and optimal value.  The
    # vertex reached and its pivot count are Bland's-rule label draws, so
    # they are not compared.
    assert len(ALL_CONFIGS) == 16
    rng = random.Random(20261020)
    for _ in range(200):
        width = rng.choice((2, 3))
        n = rng.randint(width + 1, 8)
        f = random_kcnf(n, rng.randint(1, 5 * n), width, rng.randrange(2**32))
        g = relabel(f, rng.randrange(2**32))
        assert dpll_sat(g).status == dpll_sat(f).status
        for config in ALL_CONFIGS:
            a, b = run(f, config), run(g, config)
            assert (a.claimed_status, a.lp.status, a.lp.objective_value) == (
                b.claimed_status, b.lp.status, b.lp.objective_value
            )
