"""LP-and-round decision pipeline for uniform-width CNF.

The pipeline builds the clause relaxation, solves it, and rounds the LP
point coordinatewise with floor-mod: X -> floor(X) mod base.  A rounded 0
decodes to true (zero-is-true), 1 to false, anything else is recorded as an
anomaly and decoded to false.  A feasible system yields a sat claim with the
rounded candidate, an infeasible one an unsat claim.  No oracle is consulted
here; the claims are exactly as trustworthy as the relaxation, which is the
point of measuring them downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import relax, simplex
from .cnf import Formula, require_uniform
from .errors import check_int

SAT_CLAIM = "sat_claim"
UNSAT_CLAIM = "unsat_claim"

OBJECTIVE_NONE = "none"
OBJECTIVE_MAX_SUM = "maximize_sum"
_OBJECTIVES = (OBJECTIVE_NONE, OBJECTIVE_MAX_SUM)

ROUND_BASE_WIDTH = "k"


@dataclass(frozen=True)
class PipelineConfig:
    negation_mode: str = relax.FAITHFUL
    bound_mode: str = relax.BOUND_K
    rounding_base: int | str = 2
    objective: str = OBJECTIVE_NONE

    def __post_init__(self):
        relax._check_modes(self.negation_mode, self.bound_mode)
        base = self.rounding_base
        if base != ROUND_BASE_WIDTH:
            check_int(base, f"rounding base other than {ROUND_BASE_WIDTH!r}", 2)
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class RoundAnomaly:
    """An LP coordinate whose floor-mod landed outside {0, 1}."""

    var: int  # 1-based
    raw: Fraction
    rounded: int


@dataclass(frozen=True)
class PipelineResult:
    """``rounded`` is present exactly for sat claims.  ``lp`` is the solution
    whose point was rounded (or the infeasible one).  ``steps`` counts
    constraint rows built, simplex pivots, and one rounding step per
    variable."""

    claimed_status: str
    rounded: tuple[bool, ...] | None
    lp: simplex.LpSolution
    anomalies: tuple[RoundAnomaly, ...]
    steps: int


def round_assignment(
    point: Sequence, base: int
) -> tuple[tuple[bool, ...], tuple[RoundAnomaly, ...]]:
    """Round exact LP coordinates to booleans via floor(X) mod base."""
    check_int(base, "arity", 2)
    try:
        mods = [x.numerator // x.denominator % base for x in point]
    except AttributeError:  # floats have no numerator
        raise TypeError("LP coordinates must be ints or Fractions") from None
    return tuple(r == 0 for r in mods), tuple(
        RoundAnomaly(v, x, r) for v, (x, r) in enumerate(zip(point, mods), 1) if r > 1
    )


def build_system(formula: Formula, config: PipelineConfig) -> simplex.LpSystem:
    """The relaxation ``config`` selects, with the coordinate-sum objective
    when it asks for maximize_sum.  Applies no width rule beyond the
    relaxation's own, so affine mode accepts mixed widths here."""
    system = relax.build_relaxation(
        formula, config.negation_mode, config.bound_mode
    )
    if config.objective == OBJECTIVE_MAX_SUM and formula.num_vars > 0:
        system = replace(system, objective=(1,) * formula.num_vars)
    return system


def run(formula: Formula, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Run relax, solve, round; claim sat or unsat accordingly.

    With the maximize_sum objective an unbounded LP (possible when some
    variable appears in no constraint) falls back to the plain feasibility
    point, since unbounded still means feasible.
    """
    width = require_uniform(formula, 2) if formula.clauses else None
    system = build_system(formula, config)
    sol = simplex.solve(system)
    pivots = sol.pivot_steps
    if sol.status == simplex.UNBOUNDED:
        sol = simplex.solve(replace(system, objective=None))
        pivots += sol.pivot_steps
    if sol.status == simplex.INFEASIBLE:
        return PipelineResult(
            claimed_status=UNSAT_CLAIM,
            rounded=None,
            lp=sol,
            anomalies=(),
            steps=len(system.constraints) + pivots,
        )
    base = config.rounding_base
    if base == ROUND_BASE_WIDTH:
        base = width if width is not None else 2
    rounded, anomalies = round_assignment(sol.point, base)
    return PipelineResult(
        claimed_status=SAT_CLAIM,
        rounded=rounded,
        lp=sol,
        anomalies=anomalies,
        steps=len(system.constraints) + pivots + formula.num_vars,
    )
