"""Clause-sum fold evaluation of uniform-width CNF.

Each clause is collapsed to the integer sum of its literal codes in the
zero-is-true encoding (a satisfied-by-all clause sums to 0).  The sums are
then folded right to left through the join table, which is 0 wherever either
operand is 0.  The result is therefore 0 exactly when some clause sum is 0,
which is NOT standard CNF semantics; ``cnf.evaluate`` is the ground truth
and the differential harness measures the gap.

Operation accounting: every addition, table lookup, and literal negation is
counted as performed.  A table lookup is charged two additions for the row
and column offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .cnf import Clause, Formula, require_assignment, require_uniform
from .mvlogic import clause_join_table


@dataclass(frozen=True)
class OpCount:
    additions: int = 0
    table_calls: int = 0
    negations: int = 0


@dataclass(frozen=True)
class FoldResult:
    value: int  # 0 or 1; 0 means true in the zero-is-true encoding
    ops: OpCount


def clause_sum(clause: Clause, assignment: Sequence[bool]) -> int:
    """Sum of the clause's literal truth codes in the zero-is-true encoding.

    A positive literal contributes the truth code of its variable, a negated
    one the complement.  0 means every literal in the clause is true.
    """
    top = max(map(abs, clause))
    if top > len(assignment):
        raise ValueError(f"assignment too short for variable {top}")
    return sum((not assignment[abs(code) - 1]) != (code < 0) for code in clause)


@lru_cache(maxsize=None)
def _join_values(width: int) -> tuple[tuple[int, ...], ...]:
    return clause_join_table(width).values()


def fold_eval(formula: Formula, assignment: Sequence[bool]) -> FoldResult:
    """Evaluate by folding clause sums through the join table.

    The fold is right-nested: join(s1, join(s2, ... join(s_{m-1}, s_m))).
    It starts from s_m mapped to 0/1, which the join reads the same way as
    s_m, since the table only asks whether an operand is 0.  Returns the
    final value plus exact operation counts.
    """
    width = require_uniform(formula, 2)
    require_assignment(formula, assignment)
    table = _join_values(width)
    additions = 0
    negations = 0
    table_calls = 0
    sums = []
    for clause in formula.clauses:
        total = -1
        for code in clause:
            value = 0 if assignment[abs(code) - 1] else 1
            if code < 0:
                value = 1 - value
                negations += 1
            if total < 0:
                total = value
            else:
                total += value
                additions += 1
        sums.append(total)
    acc = 0 if sums[-1] == 0 else 1
    for j in range(len(sums) - 2, -1, -1):
        # row and column offset arithmetic for the lookup
        additions += 2
        table_calls += 1
        acc = table[sums[j]][acc]
    return FoldResult(acc, OpCount(additions, table_calls, negations))


def closed_form(formula: Formula, assignment: Sequence[bool]) -> int:
    """Closed form of the fold: 0 iff some clause sum is 0, else 1.

    Computed without the join table; must agree with fold_eval everywhere.
    """
    require_uniform(formula, 2)
    require_assignment(formula, assignment)
    if any(clause_sum(c, assignment) == 0 for c in formula.clauses):
        return 0
    return 1


def predicted_ops(formula: Formula) -> OpCount:
    """Operation counts implied by the formula shape alone.

    For m uniform clauses of width k with p negated literal occurrences:
    (k-1)*m sum additions plus 2*(m-1) lookup additions, m-1 table calls,
    p negations.
    """
    width = require_uniform(formula, 2)
    m = formula.num_clauses
    return OpCount(
        additions=(width - 1) * m + 2 * (m - 1),
        table_calls=m - 1,
        negations=formula.negated_occurrences,
    )
