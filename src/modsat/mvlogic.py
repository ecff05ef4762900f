"""Modular multi-valued logic.

Everything here is built from one primitive, ``mod_shift``: floor the
argument, add a shift, reduce modulo the arity.  A table is nothing but a
collection of shifts, one per argument cell, so the full function space over
a finite domain is enumerable by walking the index space lexicographically.

Truth is encoded zero-is-true throughout: 0 is true, 1 is false, and larger
values only appear as intermediate sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import BudgetExceededError, check_int, check_real

# Cap on how many tables an enumeration may yield.
DEFAULT_TABLE_BUDGET = 10**6


def _check_length(arity: int, items, unit: str) -> None:
    """``items`` is a tuple of ``arity`` entries."""
    if type(items) is not tuple:
        raise TypeError(f"{unit} must be a tuple, got {type(items).__name__}")
    if len(items) != arity:
        raise ValueError(f"expected {arity} {unit}, got {len(items)}")


def _check_indices(arity: int, indices, unit: str) -> None:
    """``indices`` is a tuple of ``arity`` shifts in range(arity)."""
    _check_length(arity, indices, unit)
    for i in indices:
        check_int(i, "index", 0)
        if i >= arity:
            raise ValueError(f"index {i!r} out of range for arity {arity}")


def mod_shift(n: int, k: int, a) -> int:
    """Return ``(floor(a) + k) mod n``.

    The generating primitive for every table in this module.  ``a`` is an
    int, a Fraction or a finite float, not a bool; only its floor matters.
    """
    check_int(n, "arity", 2)
    check_int(k, "shift", 0)
    return (math.floor(check_real(a, "argument")) + k) % n


@dataclass(frozen=True)
class UnaryTable:
    """One-argument table over {0..n-1}.

    ``indices[x]`` is the shift applied at cell x, so the induced map is
    x -> (x + indices[x]) mod n.
    """

    arity: int
    indices: tuple[int, ...]

    def __post_init__(self):
        check_int(self.arity, "arity", 2)
        _check_indices(self.arity, self.indices, "indices")

    def apply(self, a) -> int:
        x = math.floor(check_real(a, "argument"))
        if not 0 <= x < self.arity:
            raise ValueError(f"argument {a!r} outside domain [0, {self.arity})")
        return mod_shift(self.arity, self.indices[x], a)

    def values(self) -> tuple[int, ...]:
        """Induced map tabulated over the integer domain."""
        return tuple(self.apply(x) for x in range(self.arity))


@dataclass(frozen=True)
class BinaryTable:
    """Two-argument table over {0..n-1} x {0..n-1}.

    ``indices[a][b]`` is the shift applied at cell (a, b); the induced map is
    (a, b) -> (floor(a * b) + indices[floor(a)][floor(b)]) mod n.  The product
    is taken before flooring, which matters only for non-integer arguments.
    """

    arity: int
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_int(self.arity, "arity", 2)
        _check_length(self.arity, self.indices, "rows")
        for row in self.indices:
            _check_indices(self.arity, row, "columns")

    def apply(self, a, b) -> int:
        r = math.floor(check_real(a, "argument"))
        c = math.floor(check_real(b, "argument"))
        if not 0 <= r < self.arity or not 0 <= c < self.arity:
            raise ValueError(
                f"arguments ({a!r}, {b!r}) outside domain [0, {self.arity})^2"
            )
        return mod_shift(self.arity, self.indices[r][c], a * b)

    def values(self) -> tuple[tuple[int, ...], ...]:
        """Induced map tabulated over integer pairs, row-major."""
        return tuple(
            tuple(self.apply(a, b) for b in range(self.arity))
            for a in range(self.arity)
        )


def _shift_tuples(n: int, family: str, budget: int) -> Iterator[tuple]:
    """Every tuple of shifts for one table of ``family`` at arity ``n``, in
    lexicographic order: n cells for "unary", n*n for "binary".

    Raises BudgetExceededError when the n**cells tables exceed the budget,
    which must be an int >= 0.  The running product stops growing once it
    passes the budget, so the check costs a few multiplications at any arity.
    """
    check_int(n, "arity", 2)
    check_int(budget, "table budget", 0)
    cells = n * n if family == "binary" else n
    total = 1
    for _ in range(cells):
        total *= n
        if total > budget:
            raise BudgetExceededError(
                f"{family} tables at arity {n} exceed budget {budget}"
            )
    return itertools.product(range(n), repeat=cells)


def enumerate_unary(
    n: int, budget: int = DEFAULT_TABLE_BUDGET
) -> Iterator[UnaryTable]:
    """Yield all n**n unary tables in lexicographic index order.

    The first table yielded is the all-zero one.  Raises
    BudgetExceededError when n**n exceeds the budget.
    """
    for idx in _shift_tuples(n, "unary", budget):
        yield UnaryTable(n, idx)


def enumerate_binary(
    n: int, budget: int = DEFAULT_TABLE_BUDGET
) -> Iterator[BinaryTable]:
    """Yield all n**(n*n) binary tables in lexicographic row-major order.

    Raises BudgetExceededError when the count exceeds the budget; at arity 4
    that is already 4**16 tables.
    """
    for flat in _shift_tuples(n, "binary", budget):
        rows = tuple(flat[r * n : (r + 1) * n] for r in range(n))
        yield BinaryTable(n, rows)


# Classical names for the sixteen two-valued binary tables, keyed by the
# flattened index matrix (i00, i01, i10, i11).  The list this package
# standardizes on names two distinct tables "right projection"; it is kept
# verbatim, so the name map is not injective.
_CONNECTIVE_NAMES: dict[tuple[int, int, int, int], str] = {
    (0, 0, 0, 0): "nand",
    (0, 0, 0, 1): "antilogy",
    (0, 0, 1, 0): "left complementation",
    (0, 0, 1, 1): "if ... then",
    (0, 1, 0, 0): "right projection",
    (0, 1, 0, 1): "if",
    (0, 1, 1, 0): "neither ... nor",
    (0, 1, 1, 1): "if and only if",
    (1, 0, 0, 0): "xor",
    (1, 0, 0, 1): "or",
    (1, 0, 1, 0): "not ... but",
    (1, 0, 1, 1): "right projection",
    (1, 1, 0, 0): "but not",
    (1, 1, 0, 1): "left projection",
    (1, 1, 1, 0): "tautology",
    (1, 1, 1, 1): "and",
}


def connective_name(table: BinaryTable) -> str:
    """Classical connective name of a two-valued binary table."""
    if table.arity != 2:
        raise ValueError(f"names are defined at arity 2 only, got {table.arity}")
    return _CONNECTIVE_NAMES[table.indices[0] + table.indices[1]]


@lru_cache(maxsize=None)
def clause_join_table(width: int) -> BinaryTable:
    """Binary table over {0..width} used to fold clause sums together.

    The induced value is 0 wherever either operand is 0 and 1 everywhere
    else, i.e. zero-is-true disjunction lifted to the sum domain.
    """
    check_int(width, "clause width", 2)
    n = width + 1
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            if a == 0 or b == 0:
                row.append(0)
            else:
                # shift chosen so (a*b + shift) mod n == 1
                row.append((1 - a * b) % n)
        rows.append(tuple(row))
    return BinaryTable(n, tuple(rows))


def format_unary_block(table: UnaryTable) -> str:
    """Plain-text dump: header line, then the induced values row-major."""
    idx = ",".join(str(i) for i in table.indices)
    vals = " ".join(str(v) for v in table.values())
    return f"unary n={table.arity} idx={idx}\n{vals}\n"


def format_binary_block(table: BinaryTable) -> str:
    """Plain-text dump: header line, then the induced grid row-major."""
    lines = [f"binary n={table.arity}"]
    for row in table.values():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
