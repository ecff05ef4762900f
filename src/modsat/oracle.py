"""Exact satisfiability oracles: exhaustive enumeration and DPLL.

Both are deterministic and see a clause as (pos, neg) bitmasks of its
variables, bit i-1 for variable i.  Brute force walks assignments as
ascending integers and returns the first witness.  DPLL sets unit and pure
literals in batches of mask operations to a fixpoint, then branches on the
lowest-numbered variable still occurring, false first.  A node keeps the
mask of variables set true (a set variable leaves its clauses; the witness
reads the rest as false) and lives on an explicit stack, so depth is bounded
only by the node budget.  A blown budget raises; it is never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cnf import Formula, evaluate
from .errors import BudgetExceededError

BRUTE_FORCE_MAX_VARS = 26
DEFAULT_NODE_BUDGET = 10**7

SAT = "sat"
UNSAT = "unsat"


@dataclass(frozen=True)
class OracleVerdict:
    status: str
    witness: tuple[bool, ...] | None
    nodes_explored: int


def verify(formula: Formula, assignment: Sequence[bool]) -> bool:
    """True when the assignment satisfies the formula (standard semantics)."""
    return evaluate(formula, assignment)


def _clause_masks(formula: Formula) -> list[tuple[int, int]]:
    """Each clause as (pos, neg) bitmasks of its positive and negated variables."""
    masks = []
    for clause in formula.clauses:
        pos = neg = 0
        for code in clause:
            if code < 0:
                neg |= 1 << (-code - 1)
            else:
                pos |= 1 << (code - 1)
        masks.append((pos, neg))
    return masks


def brute_force_sat(formula: Formula) -> OracleVerdict:
    """Try all 2**n assignments in a fixed ascending order."""
    n = formula.num_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise BudgetExceededError(
            f"{n} variables exceed the brute force cap of {BRUTE_FORCE_MAX_VARS}"
        )
    pos_neg = _clause_masks(formula)
    full = (1 << n) - 1
    tried = 0
    for a in range(1 << n):
        tried += 1
        flipped = a ^ full
        if all(a & pos or flipped & neg for pos, neg in pos_neg):
            witness = tuple(bool(a >> i & 1) for i in range(n))
            return OracleVerdict(SAT, witness, tried)
    return OracleVerdict(UNSAT, None, tried)


def _assign(clauses: list[tuple[int, int]], up: int, un: int):
    """Set the variables of ``up`` true and of ``un`` false: drop satisfied
    clauses, strip false literals.  Returns the clauses left, the ORs of their
    pos and of their neg masks and the variables of their positive and of
    their negative units; None when a clause loses every literal."""
    reduced = []
    pos = neg = unit_p = unit_n = 0
    for c in clauses:
        p, n = c
        if p & up or n & un:
            continue
        if p & un or n & up:
            p &= ~un
            n &= ~up
            c = (p, n)
        # A unit has exactly one literal; a tautology sets a bit in both.
        if not n:
            if not p:
                return None
            if not p & (p - 1):
                unit_p |= p
        elif not p and not n & (n - 1):
            unit_n |= n
        pos |= p
        neg |= n
        reduced.append(c)
    return reduced, pos, neg, unit_p, unit_n


def _propagate(clauses, pos: int, neg: int, true: int, up: int, un: int):
    """Unit propagation and pure-literal elimination to a fixpoint.

    Takes a node: clauses, the ORs of their masks, the variables set true and
    the first unit batch.  A round sets its units, then every pure literal;
    the unit clauses left open the next.  Returns (clauses, pos, neg, true),
    or None on a conflict.
    """
    while True:
        if up & un:
            return None  # opposite units
        units = up | un
        if units:
            true |= up
            reduced = _assign(clauses, up, un)
            if reduced is None:
                return None
            clauses, pos, neg, up, un = reduced
        pure_p = pos & ~neg
        pure_n = neg & ~pos
        if pure_p | pure_n:
            true |= pure_p
            clauses, pos, neg, up, un = _assign(clauses, pure_p, pure_n)
        elif not units:
            return clauses, pos, neg, true


def dpll_sat(
    formula: Formula, node_budget: int = DEFAULT_NODE_BUDGET
) -> OracleVerdict:
    """DPLL search.  Raises BudgetExceededError when the node budget runs out."""
    # The root opens with its own units, every other node with its branch.
    clauses, pos, neg, up, un = _assign(_clause_masks(formula), 0, 0)
    stack = [(clauses, pos, neg, 0, up, un)]
    nodes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"DPLL node budget of {node_budget} exceeded"
            )
        result = _propagate(*node)
        if result is None:
            continue
        clauses, pos, neg, true = result
        if not clauses:
            witness = tuple(bool(true >> i & 1) for i in range(formula.num_vars))
            return OracleVerdict(SAT, witness, nodes)
        bit = (pos | neg) & -(pos | neg)  # lowest remaining variable
        stack.append((clauses, pos, neg, true, bit, 0))  # true branch
        stack.append((clauses, pos, neg, true, 0, bit))  # false branch, searched first
    return OracleVerdict(UNSAT, None, nodes)
