"""Exact satisfiability oracles: exhaustive enumeration and DPLL.

Brute force sees a clause as (pos, neg) bitmasks of its variables, bit i-1
for variable i, walks assignments as ascending integers and returns the
first witness.

DPLL holds the clause set by clause index.  Set up once per formula,
occ[code] is the bitmask of the clauses holding a literal, and each
clause's count of free literals is bit-sliced across the clauses, one int
per bit of the widest clause.  A node is a few ints: the live (not yet
satisfied) clauses, the count slices, the variables assigned, those set
true (the witness reads the rest as false) and the batch of literals to
set next.  Setting a literal clears its clauses from the live mask with
one AND and subtracts one from the count of each live clause holding its
negation with one borrow chain over the slices; a live clause counting 0
is a conflict, one counting 1 a unit, whose one free literal is read off
its codes.  One pass over the free variables then finds which literals
still occur in live clauses.

The rules are those of Davis, Logemann and Loveland: set all units in one
batch (opposite units or an emptied clause is a conflict), then all pure
literals, to a fixpoint; then branch on the lowest-numbered variable still
occurring, false first.  A round's pure literals join the next round's
units: a pure literal falsifies no live clause and is the unit of any unit
clause it satisfies, so the batch reaches the state of setting them first.
Nodes are immutable and live on an explicit stack, so there is no undo and
depth is bounded only by the node budget.  A blown budget raises; it is
never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Formula, evaluate
from .errors import BudgetExceededError, CertificateError

BRUTE_FORCE_MAX_VARS = 26
DEFAULT_NODE_BUDGET = 10**7

SAT = "sat"
UNSAT = "unsat"


@dataclass(frozen=True)
class OracleVerdict:
    status: str
    witness: tuple[bool, ...] | None
    nodes_explored: int


# cnf.evaluate under a second name, read only by the benchmark: a call in
# perfbench/workloads.py and a span name in perfbench/run.py.
verify = evaluate


def check_witness(formula: Formula, verdict: OracleVerdict, method: str) -> None:
    """Raise CertificateError when a sat verdict's witness fails ``evaluate``;
    ``method`` names the oracle that gave the verdict."""
    if verdict.status == SAT and not evaluate(formula, verdict.witness):
        raise CertificateError(
            f"{method} oracle gave a sat witness that does not satisfy the formula"
        )


def _clause_masks(formula: Formula) -> list[tuple[int, int]]:
    """Each clause as (pos, neg) bitmasks of its positive and negated variables,
    for brute force."""
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


def dpll_sat(
    formula: Formula, node_budget: int = DEFAULT_NODE_BUDGET
) -> OracleVerdict:
    """DPLL search.  Raises BudgetExceededError when the node budget runs out."""
    n = formula.num_vars
    # occ[code]: the clauses holding literal code (negative codes index from
    # the end).  Bit j of a clause's count of free literals is its bit in
    # counts[j].  The clauses of one literal are the root's units.
    occ = [0] * (2 * n + 1)
    counts = [0] * max(map(len, formula.clauses), default=1).bit_length()
    up = un = 0
    for i, clause in enumerate(formula.clauses):
        bit = 1 << i
        for code in clause:
            occ[code] |= bit
        for j in range(len(counts)):
            if len(clause) >> j & 1:
                counts[j] |= bit
        if len(clause) == 1:
            if clause[0] > 0:
                up |= 1 << clause[0] - 1
            else:
                un |= 1 << -clause[0] - 1
    variables = [  # those that occur: n masks would take n * n / 16 bytes
        (1 << v - 1, occ[v], occ[-v]) for v in range(1, n + 1) if occ[v] | occ[-v]
    ]
    stack = [((1 << len(formula.clauses)) - 1, counts, 0, 0, up, un)]
    nodes = 0
    while stack:
        alive, counts, assigned, true, up, un = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"DPLL node budget of {node_budget} exceeded"
            )
        while not up & un:  # opposite units are a conflict
            assigned |= up | un
            true |= up
            falsified = []
            for batch, sign in ((up, 1), (un, -1)):
                while batch:
                    low = batch & -batch
                    batch ^= low
                    code = sign * low.bit_length()
                    alive &= ~occ[code]
                    falsified.append(occ[-code])
            counts = counts[:]
            for borrow in falsified:
                borrow &= alive
                j = 0
                while borrow:  # subtract one from the count of each clause
                    bits = counts[j]
                    counts[j] = bits ^ borrow
                    borrow &= ~bits
                    j += 1
            high = 0
            for bits in counts[1:]:
                high |= bits
            if alive & ~(counts[0] | high):
                break  # a clause lost every literal
            unit = alive & counts[0] & ~high
            pos = neg = up = un = 0
            while unit:  # the one free literal of each unit clause
                low = unit & -unit
                unit ^= low
                for code in formula.clauses[low.bit_length() - 1]:
                    bit = 1 << abs(code) - 1
                    if not assigned & bit:
                        if code > 0:
                            up |= bit
                        else:
                            un |= bit
                        break
            for bit, p, q in variables:
                if not assigned & bit:
                    if p & alive:
                        pos |= bit
                    if q & alive:
                        neg |= bit
            pure_p = pos & ~neg
            pure_n = neg & ~pos
            if pure_p | pure_n:
                up |= pure_p
                un |= pure_n
            elif not up | un:
                if not alive:
                    witness = tuple(bool(true >> i & 1) for i in range(n))
                    return OracleVerdict(SAT, witness, nodes)
                bit = (pos | neg) & -(pos | neg)  # lowest remaining variable
                stack.append((alive, counts, assigned, true, bit, 0))
                stack.append((alive, counts, assigned, true, 0, bit))  # first
                break
    return OracleVerdict(UNSAT, None, nodes)
