"""Exact satisfiability oracles: exhaustive enumeration and DPLL.

Brute force sees a clause as (pos, neg) bitmasks of its variables, bit i-1
for variable i, walks assignments as ascending integers and returns the
first witness.

DPLL holds the clause set by clause index.  Built once per formula, occ
maps each literal code that occurs to the bitmask of its clauses, and each
clause's count of free literals is bit-sliced across the clauses, one int
per bit of the widest clause, built from one mask of clauses per width.
The N variables that occur are numbered 0..N-1 in order and a set of
literals is a 2N-bit int, bit d for v and bit N + d for -v, so only the
witness, mapped back at the end, is sized by the declared variables.  A
node is six ints: the live (not yet satisfied) clauses, the count slices,
the occurrence fields, the guards of the free variables, the literals
assigned (the witness reads their low half) and the batch to set next.  A
table indexed by a literal's bit sets it: one AND each clears its clauses
from the live mask and the fields, one XOR drops its variable's guard and
one borrow chain over the slices subtracts one from the count of each live
clause holding its negation.  A live clause counting 0 is a conflict, one
counting 1 a unit, whose free literal is the one with its negation unset.

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
batch (opposite literals or an emptied clause is a conflict), then all pure
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
from .errors import BudgetExceededError, CertificateError, check_int

BRUTE_FORCE_MAX_VARS = 26
DEFAULT_NODE_BUDGET = 10**7
FIELD_INDEX_MAX_BITS = 4608
"""The largest packed size 2N(m + 1), in bits, at which ``dpll_sat``
numbers a field's bits by clause index rather than by occurrence.

Clause index costs one multiply per literal to build and occurrence ranks a
pass over the clauses, while the ranked fields are narrower in the search.
Clause index : ranks, in process (Python 3.11, ten alternating pairs per n,
random_kcnf(n, round(4.27n), 3, 9000 + i), i < 40, nine repeats): 0.76-0.80
at n=16 (2,208 bits), 0.81-0.85 at n=20 (3,440), 0.90-0.97 at n=22 (4,180),
0.97-0.99 at n=24 (4,944; dpll-hard's n) and 0.99-1.02 at n=26 (5,824);
0.58-0.62 s against 0.20-0.23 s on W-oracle (54,720 bits).  So the
threshold sits between n=22, where clause index wins, and n=24, where the
two are within 3% and dpll-hard keeps its ranks.  The n=2400 depth test
would need 4,800 clause-index cuts of 1.4 MB."""

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
    for a in range(1 << n):
        flipped = a ^ full
        if all(a & pos or flipped & neg for pos, neg in pos_neg):
            witness = tuple(bool(a >> i & 1) for i in range(n))
            return OracleVerdict(SAT, witness, a + 1)
    return OracleVerdict(UNSAT, None, 1 << n)


def dpll_sat(
    formula: Formula, node_budget: int = DEFAULT_NODE_BUDGET
) -> OracleVerdict:
    """DPLL search.  Raises BudgetExceededError when the node budget runs out."""
    check_int(node_budget, "node budget", 0)
    clauses = formula.clauses
    everything = (1 << len(clauses)) - 1
    # occ[code]: the clauses holding literal code.  by_width[w]: the clauses
    # of width w.  Bit j of a clause's count of free literals is its bit in
    # counts[j], built from them.
    occ = {}
    by_width = [0] * (max(map(len, clauses), default=1) + 1)
    for i, clause in enumerate(clauses):
        bit = 1 << i
        for code in clause:
            occ[code] = occ.get(code, 0) | bit
        by_width[len(clause)] |= bit
    counts = [0] * (len(by_width) - 1).bit_length()
    for width, mask in enumerate(by_width):
        for j in range(width.bit_length()):
            if width >> j & 1:
                counts[j] |= mask
    # Dense numbers 0..n-1 for the variables that occur, in order.  Bit d of
    # a set of literals is v and bit n + d is -v; so are field d of the low
    # half and field d of the high half, stride bits above it.  Both are m
    # bits wide by clause index, else as wide as the larger occurrence count
    # of v and -v, under one guard bit.
    variables = sorted({abs(code) for code in occ})
    n = len(variables)
    codes = variables + [-v for v in variables]
    lits = [occ.get(code, 0) for code in codes]
    lit_of = {code: 1 << b for b, code in enumerate(codes)}
    lit_of_guard = {}  # a guard's bit_length(): its variable's literal v
    by_index = len(lits) * (len(clauses) + 1) <= FIELD_INDEX_MAX_BITS
    starts = []  # the first bit of each field
    guards = []
    stride = 0
    for d, (o, o_neg) in enumerate(zip(lits, lits[n:])):
        starts.append(stride)
        stride += len(clauses) if by_index else max(
            o.bit_count(), o_neg.bit_count()
        )
        guards.append(1 << stride)
        stride += 1
        lit_of_guard[stride] = 1 << d
    free = sum(guards)
    first = sum(1 << start for start in starts)
    starts += [start + stride for start in starts]
    rep = first | first << stride  # bit 0 of each field
    fill = (free - first) * ((1 << stride) + 1)
    if by_index:  # bit i of a field is clause i
        fields = sum(o << start for o, start in zip(lits, starts))
        cuts = [~(o * rep) for o in lits]
    else:  # bit r of a field is its literal's r-th clause
        at = dict(zip(codes, starts))  # code: where its next clause's bit goes
        cut = dict.fromkeys(codes, 0)
        for clause in clauses:
            held = 0  # the clause's bit in the field of each of its literals
            for code in clause:
                p = at[code]
                held |= 1 << p
                at[code] = p + 1
            for code in clause:
                cut[code] |= held
        # each field: ones from its first bit, one per clause of its literal
        fields = sum(1 << p for p in at.values()) - rep
        # popped, so that the cuts are never held twice
        cuts = [~cut.pop(code) for code in codes]
    # Setting a literal, by its bit: the guard, the cut, the clauses it
    # leaves alive and the clauses of its negation.
    table = list(zip(guards * 2, cuts, [~o for o in lits], lits[n:] + lits[:n]))
    batch = 0
    unit = by_width[1]
    while unit:  # the root's units
        low = unit & -unit
        unit ^= low
        batch |= lit_of[clauses[low.bit_length() - 1][0]]
    stack = [(everything, counts, fields, free, 0, batch)]
    nodes = 0
    while stack:
        alive, counts, fields, free, assigned, batch = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"DPLL node budget of {node_budget} exceeded"
            )
        while not batch & batch >> n:  # opposite literals are a conflict
            assigned |= batch
            counts = counts[:]
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
            negated = assigned >> n | assigned << n  # the literals set false
            while unit:  # the one free literal of each unit clause
                low = unit & -unit
                unit ^= low
                for code in clauses[low.bit_length() - 1]:
                    bit = lit_of[code]
                    if not negated & bit:
                        batch |= bit
                        break
            carry = fields + fill  # a guard bit set: its field is not empty
            pos = carry & free
            neg = carry >> stride & free
            pure = pos ^ neg
            if pure:
                while pure:
                    low = pure & -pure
                    pure ^= low
                    bit = lit_of_guard[low.bit_length()]
                    batch |= bit if pos & low else bit << n
            elif not batch:
                if not alive:
                    witness = bytearray(formula.num_vars)
                    for d, v in enumerate(variables):
                        witness[v - 1] = assigned >> d & 1
                    return OracleVerdict(SAT, tuple(map(bool, witness)), nodes)
                bit = lit_of_guard[(pos & -pos).bit_length()]  # lowest one left
                # the false child goes on top, to be searched first
                stack.append((alive, counts, fields, free, assigned, bit))
                stack.append((alive, counts, fields, free, assigned, bit << n))
                break
    return OracleVerdict(UNSAT, None, nodes)
