"""Exact satisfiability oracles: exhaustive enumeration and DPLL.

Brute force sees a clause as (pos, neg) bitmasks of its variables, bit i-1
for variable i, walks assignments as ascending integers and returns the
first witness.

DPLL holds the clause set by clause index.  Set up once per formula,
occ[code] is the bitmask of the clauses holding a literal, and each
clause's count of free literals is bit-sliced across the clauses, one int
per bit of the widest clause, built from one mask of clauses per width.
The N variables that occur are numbered 0..N-1 in order, so every mask of
variables is N bits wide whatever numbers the formula uses, and the witness
is mapped back once, at the end.  A node is a few ints: the live (not yet
satisfied) clauses, the count slices, the occurrence fields, the guards of
the free variables, the variables assigned, those set true (the witness
reads the rest as false) and the batch of literals to set next.  Setting a
literal clears its clauses from the live mask and from the fields with one
AND each, drops its variable's guard with one XOR, and subtracts one from
the count of each live clause holding its negation with one borrow chain
over the slices; a live clause counting 0 is a conflict, one counting 1 a
unit, whose one free literal is read off its codes.

The occurrence fields test every literal at once, with the broadword
methods of Knuth (TAOCP 4A, 7.1.3).  One int holds a field per literal,
each with a guard bit on top: the fields of the positive literals fill its
low half, in the order of their variables, and the field of -v sits S bits
above that of v, S being the size of the half.  Adding ones across every
field carries into a guard exactly when its field is not empty, that is
when its literal still occurs in a live clause.  Masked with the guards of
the free variables, the sum gives the variables whose positive literal
occurs; shifted down by S, those whose negative literal occurs.  Their XOR
is the pure variables, and when no literal is pure the two are equal and
their lowest bit is the variable to branch on: a handful of int operations
per round, not a pass over the variables.  A field numbers its bits by
clause index while the packed size 2N(m + 1) is at most
FIELD_INDEX_MAX_BITS: every field is m bits wide and the cut of a literal
is its clause mask times one bit per field, one multiply.  Above it, bit r
of a field is its literal's r-th clause, and the two fields of v are as
wide as the larger occurrence count of v and -v, so the packed size is at
most 2(L + N) for L literal occurrences however often one literal occurs;
one pass over the clauses builds the cuts.  A cut is as wide as the
fields, so the 2N cuts take 2N times the packed size.

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
FIELD_INDEX_MAX_BITS = 4096
"""The largest packed size 2N(m + 1), in bits, at which ``dpll_sat``
numbers a field's bits by clause index rather than by occurrence.

Clause index costs one multiply per literal to set up and occurrence ranks a
pass over the clauses, while the ranked fields are narrower in the search.
Measured in process (Python 3.11, paired runs, clause index : ranks): 0.70
on the n=12, m=51 formulas of ``diff-transition`` (1,248 bits), 1.02-1.03
on the n=24, m=102 ones of ``dpll-hard`` (4,944 bits), and 0.58-0.62 s
against 0.20-0.23 s on the W-oracle formula (54,720 bits).  The n=2400
depth test formula would need 4,800 clause-index cuts of 1.4 MB each."""

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


def check_node_budget(node_budget: int) -> None:
    """Refuse a node budget that is not an int >= 0 (a bool is not an int)."""
    if type(node_budget) is not int:
        raise TypeError(f"node budget must be an int, got {node_budget!r}")
    if node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")


def dpll_sat(
    formula: Formula, node_budget: int = DEFAULT_NODE_BUDGET
) -> OracleVerdict:
    """DPLL search.  Raises BudgetExceededError when the node budget runs out."""
    check_node_budget(node_budget)
    n = formula.num_vars
    clauses = formula.clauses
    everything = (1 << len(clauses)) - 1
    # occ[code]: the clauses holding literal code (negative codes index from
    # the end).  by_width[w]: the clauses of width w.  Bit j of a clause's
    # count of free literals is its bit in counts[j], built from them.
    occ = [0] * (2 * n + 1)
    by_width = [0] * (max(map(len, clauses), default=1) + 1)
    for i, clause in enumerate(clauses):
        bit = 1 << i
        for code in clause:
            occ[code] |= bit
        by_width[len(clause)] |= bit
    counts = [0] * (len(by_width) - 1).bit_length()
    for width, mask in enumerate(by_width):
        for j in range(width.bit_length()):
            if width >> j & 1:
                counts[j] |= mask
    # Dense numbers 0..N-1 for the variables that occur, in order.  Field d
    # of the low half belongs to v and field d of the high half, stride bits
    # above it, to -v.  Both are m bits wide by clause index, else as wide
    # as the larger occurrence count of v and -v, under one guard bit.
    variables = [v for v in range(1, n + 1) if occ[v] | occ[-v]]
    lits = [occ[code] for v in variables for code in (v, -v)]
    by_index = len(lits) * (len(clauses) + 1) <= FIELD_INDEX_MAX_BITS
    bit_of = {}  # code: the dense bit of its variable
    bit_of_guard = {}  # a guard's bit_length(): the dense bit of its variable
    starts = []  # the first bit of each low field
    guards = []
    stride = 0
    for d, v in enumerate(variables):
        bit_of[v] = bit_of[-v] = 1 << d
        starts.append(stride)
        stride += len(clauses) if by_index else max(
            occ[v].bit_count(), occ[-v].bit_count()
        )
        guards.append(1 << stride)
        stride += 1
        bit_of_guard[stride] = 1 << d
    free = sum(guards)
    first = sum(1 << start for start in starts)
    rep = first | first << stride  # bit 0 of each field
    fill = (free - first) * ((1 << stride) + 1)
    if by_index:  # bit i of a field is clause i
        fields = 0
        for start, o, o_neg in zip(starts, lits[0::2], lits[1::2]):
            fields |= o << start | o_neg << start + stride
        cuts = [~(o * rep) for o in lits]
    else:  # bit r of a field is its literal's r-th clause
        at = {}  # code: the bit position of its next clause in its field
        for start, v in zip(starts, variables):
            at[v] = start
            at[-v] = start + stride
        cut = dict.fromkeys(at, 0)
        for clause in clauses:
            held = 0  # the clause's bit in the field of each of its literals
            for code in clause:
                p = at[code]
                held |= 1 << p
                at[code] = p + 1
            for code in clause:
                cut[code] |= held
        # each field: ones from its first bit up to its literal's count
        fields = sum(1 << p for p in at.values()) - rep
        # popped, so that the cuts are never held twice
        cuts = [~cut.pop(code) for v in variables for code in (v, -v)]
    # Setting a literal, by its variable's dense number: the guard, the cut,
    # the clauses it leaves alive and the clauses of its negation.
    set_p = list(zip(guards, cuts[0::2], [~o for o in lits[0::2]], lits[1::2]))
    set_n = list(zip(guards, cuts[1::2], [~o for o in lits[1::2]], lits[0::2]))
    up = un = 0
    unit = by_width[1]
    while unit:  # the root's units
        low = unit & -unit
        unit ^= low
        code = clauses[low.bit_length() - 1][0]
        if code > 0:
            up |= bit_of[code]
        else:
            un |= bit_of[code]
    stack = [(everything, counts, fields, free, 0, 0, up, un)]
    nodes = 0
    while stack:
        alive, counts, fields, free, assigned, true, up, un = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"DPLL node budget of {node_budget} exceeded"
            )
        while not up & un:  # opposite units are a conflict
            assigned |= up | un
            true |= up
            counts = counts[:]
            for batch, table in ((up, set_p), (un, set_n)):
                while batch:
                    low = batch & -batch
                    batch ^= low
                    guard, cut, keep, borrow = table[low.bit_length() - 1]
                    free ^= guard
                    fields &= cut
                    alive &= keep
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
            up = un = 0
            while unit:  # the one free literal of each unit clause
                low = unit & -unit
                unit ^= low
                for code in clauses[low.bit_length() - 1]:
                    bit = bit_of[code]
                    if not assigned & bit:
                        if code > 0:
                            up |= bit
                        else:
                            un |= bit
                        break
            carry = fields + fill  # a guard bit set: its field is not empty
            pos = carry & free
            neg = carry >> stride & free
            pure = pos ^ neg
            if pure:
                while pure:
                    low = pure & -pure
                    pure ^= low
                    if pos & low:
                        up |= bit_of_guard[low.bit_length()]
                    else:
                        un |= bit_of_guard[low.bit_length()]
            elif not up | un:
                if not alive:
                    witness = bytearray(n)
                    while true:
                        low = true & -true
                        true ^= low
                        witness[variables[low.bit_length() - 1] - 1] = 1
                    return OracleVerdict(SAT, tuple(map(bool, witness)), nodes)
                bit = bit_of_guard[(pos & -pos).bit_length()]  # lowest one left
                # the false child goes on top, to be searched first
                stack.append((alive, counts, fields, free, assigned, true, bit, 0))
                stack.append((alive, counts, fields, free, assigned, true, 0, bit))
                break
    return OracleVerdict(UNSAT, None, nodes)
