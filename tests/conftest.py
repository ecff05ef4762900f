"""Shared test configuration and strategies."""

from hypothesis import HealthCheck, settings, strategies as st

from modsat.cnf import Formula, clause_of

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def formulas(draw, max_vars=6, max_clauses=5, width=None, min_width=1):
    """Random formulas; distinct variables per clause, free polarity.

    ``width`` pins every clause to one width, otherwise widths vary per
    clause between min_width and the variable count.
    """
    if width is not None:
        n = draw(st.integers(max(width, 1), max(width, max_vars)))
    else:
        n = draw(st.integers(max(min_width, 1), max_vars))
    m = draw(st.integers(1, max_clauses))
    clauses = []
    for _ in range(m):
        w = width if width is not None else draw(
            st.integers(min_width, n)
        )
        chosen = draw(st.permutations(range(1, n + 1)))[:w]
        codes = (-v if draw(st.booleans()) else v for v in sorted(chosen))
        clauses.append(clause_of(*codes))
    return Formula(n, tuple(clauses))


@st.composite
def assignments_for(draw, formula):
    return tuple(
        draw(st.booleans()) for _ in range(formula.num_vars)
    )
