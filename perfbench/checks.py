"""Checks on modsat's outputs that do not call the code they check.

Formulas reach these functions as lists of signed DIMACS integer tuples,
taken from the DIMACS text the benchmark wrote, so a fault in modsat's
formula model cannot hide itself.  Each checker returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import functools
from fractions import Fraction


def clauses_of(text: str) -> list[tuple[int, ...]]:
    """Clauses of canonical DIMACS text, read without modsat's parser."""
    out = []
    for line in text.splitlines():
        if line and line[0] not in "cp":
            codes = tuple(int(tok) for tok in line.split())
            out.append(codes[:-1])
    return out


def satisfies(clauses, assignment) -> bool:
    """Standard CNF semantics; ``assignment[v - 1]`` is variable v."""
    return all(
        any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in clauses
    )


def some_clause_all_true(clauses, assignment) -> bool:
    """What the fold evaluator computes: some clause has every literal true."""
    return any(
        all(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in clauses
    )


@functools.lru_cache(maxsize=None)
def _var_masks(num_vars: int) -> tuple[int, tuple[int, ...]]:
    """All-assignments mask, and per variable v the set of assignments a
    (bit v-1 of a true) that make v true, as bit sets over a."""
    size = 1 << num_vars
    masks = [0]
    for v in range(num_vars):
        block = (1 << (1 << v)) - 1  # 2**v ones: the run where bit v is 1
        pattern = block << (1 << v)
        mask = 0
        for start in range(0, size, 1 << (v + 1)):
            mask |= pattern << start
        masks.append(mask)
    return (1 << size) - 1, tuple(masks)


def exhaustive_sat(num_vars: int, clauses) -> bool:
    """Satisfiability by checking all 2**n assignments at once, as bit sets."""
    full, masks = _var_masks(num_vars)
    models = full
    for clause in clauses:
        sat = 0
        for lit in clause:
            sat |= masks[lit] if lit > 0 else full ^ masks[-lit]
        models &= sat
        if not models:
            return False
    return True


def search_sat(num_vars: int, clauses) -> tuple[bool, ...] | None:
    """A satisfying assignment, or None when there is none.

    Plain DPLL with unit propagation that branches on the variable most
    frequent in the shortest open clauses, true first: deliberately another
    search order than ``modsat.oracle.dpll_sat``.
    """
    def assign(cls, lit):
        out = []
        for c in cls:
            if lit in c:
                continue
            if -lit in c:
                c = tuple(x for x in c if x != -lit)
                if not c:
                    return None
            out.append(c)
        return out

    def search(cls, model):
        while True:
            unit = next((c[0] for c in cls if len(c) == 1), None)
            if unit is None:
                break
            cls = assign(cls, unit)
            if cls is None:
                return None
            model = {**model, abs(unit): unit > 0}
        if not cls:
            return model
        shortest = min(len(c) for c in cls)
        counts: dict[int, int] = {}
        for c in cls:
            if len(c) == shortest:
                for lit in c:
                    counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        var = max(counts, key=lambda v: (counts[v], -v))
        for lit in (var, -var):
            reduced = assign(cls, lit)
            if reduced is not None:
                found = search(reduced, {**model, var: lit > 0})
                if found is not None:
                    return found
        return None

    model = search([tuple(c) for c in clauses], {})
    if model is None:
        return None
    witness = tuple(model.get(v, False) for v in range(1, num_vars + 1))
    if not satisfies(clauses, witness):
        raise AssertionError("search_sat produced a non-model")
    return witness


def check_diff_record(record: dict, num_vars: int, clauses, sat: bool) -> list[str]:
    """A canonical diff record of the default faithful pipeline.

    ``sat`` is the instance's satisfiability found by ``exhaustive_sat``.
    The faithful LP point is the zero vector, which rounds to all-true.
    """
    problems = []
    width = len(clauses[0])
    all_true = (True,) * num_vars
    expected = {
        "claim": "sat_claim",
        "candidate_verified": satisfies(clauses, all_true),
        "oracle_status": "sat" if sat else "unsat",
        "lp_pivots": 0,
        "fold_additions": (width + 1) * len(clauses) - 2,
        "num_clauses": len(clauses),
        "error": None,
    }
    expected["category"] = (
        "sound_sat" if expected["candidate_verified"] else "unsound_sat_claim"
    )
    for key, want in expected.items():
        if record.get(key) != want:
            problems.append(f"{key} is {record.get(key)!r}, expected {want!r}")
    return problems


def check_lp_point(
    num_vars: int, clauses, point, objective_value, float_objective
) -> list[str]:
    """An exact affine k-1 relaxation optimum under the max-sum objective.

    Feasibility is recomputed from the clauses: every coordinate lies in
    [0, 1] and each clause's literal values (X or 1 - X) sum to at most
    k - 1.  The all-1/2 point is feasible, so the optimum is at least n/2.
    """
    if point is None or len(point) != num_vars:
        return [f"point {point!r} does not have {num_vars} coordinates"]
    problems = []
    if any(not isinstance(x, (int, Fraction)) for x in point):
        problems.append("point is not exact")
    if any(x < 0 or x > 1 for x in point):
        problems.append("point leaves the unit box")
    for i, clause in enumerate(clauses):
        total = sum(point[abs(l) - 1] if l > 0 else 1 - point[abs(l) - 1] for l in clause)
        if total > len(clause) - 1:
            problems.append(f"clause {i} sums to {total} > {len(clause) - 1}")
    if objective_value != sum(point):
        problems.append(f"objective {objective_value} != sum of point {sum(point)}")
    if objective_value < Fraction(num_vars, 2):
        problems.append(f"objective {objective_value} below the all-1/2 value")
    if float_objective is None or abs(float_objective - objective_value) > 1e-6:
        problems.append(f"float objective {float_objective} != {objective_value}")
    return problems


def check_dpll_verdict(status: str, witness, clauses, own_witness) -> list[str]:
    """A DPLL verdict against ``search_sat``'s result for the same clauses."""
    if status == "sat":
        if witness is None or not satisfies(clauses, witness):
            return ["sat witness does not satisfy the formula"]
        return []
    if status == "unsat":
        if own_witness is not None:
            return ["unsat verdict on a satisfiable formula"]
        return []
    return [f"unknown status {status!r}"]


def check_solve(
    num_vars: int,
    clauses,
    claimed: str,
    rounded,
    steps: int,
    pivots: int,
    evaluated: bool,
    fold_value: int,
    fold_additions: int,
    relax_rows: int,
) -> list[str]:
    """One default faithful ``modsat solve`` plus ``modsat eval`` result."""
    problems = []
    all_true = (True,) * num_vars
    m = len(clauses)
    width = len(clauses[0])
    if claimed != "sat_claim" or tuple(rounded or ()) != all_true:
        problems.append("faithful pipeline did not claim sat with all-true")
    if pivots != 0 or steps != m + num_vars:
        problems.append(f"steps {steps} / pivots {pivots} != {m + num_vars} / 0")
    if relax_rows != m:
        problems.append(f"{relax_rows} relaxation rows for {m} clauses")
    if evaluated != satisfies(clauses, all_true):
        problems.append("cnf.evaluate disagrees with the reference semantics")
    want_fold = 0 if some_clause_all_true(clauses, all_true) else 1
    if fold_value != want_fold:
        problems.append(f"fold value {fold_value}, expected {want_fold}")
    if fold_additions != (width + 1) * m - 2:
        problems.append(f"fold additions {fold_additions} != {(width + 1) * m - 2}")
    return problems
