"""CNF formulas: model, DIMACS round trip, reference semantics, generation.

Variables are 1-based, matching DIMACS.  Assignments are tuples of bools
indexed by var-1.  Two encodings of truth as integers are supported:
"zero-true" (0 is true) used by the evaluator modules, and "one-true"
(1 is true).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimacsError, UnsupportedFormulaError

ZERO_TRUE = "zero-true"
ONE_TRUE = "one-true"
_CONVENTIONS = (ZERO_TRUE, ONE_TRUE)


@dataclass(frozen=True)
class Literal:
    var: int
    negated: bool = False

    def __post_init__(self):
        if not isinstance(self.var, int) or self.var < 1:
            raise ValueError(f"variable must be an integer >= 1, got {self.var!r}")

    @classmethod
    def from_dimacs(cls, code: int) -> "Literal":
        if code == 0:
            raise ValueError("0 is a clause terminator, not a literal")
        return cls(abs(code), code < 0)

    def to_dimacs(self) -> int:
        return -self.var if self.negated else self.var


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("clause must contain at least one literal")
        seen = set()
        for lit in self.literals:
            key = (lit.var, lit.negated)
            if key in seen:
                raise ValueError(f"duplicate literal {lit.to_dimacs()} in clause")
            seen.add(key)

    @property
    def width(self) -> int:
        return len(self.literals)


@dataclass(frozen=True)
class Formula:
    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not isinstance(self.num_vars, int) or self.num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {self.num_vars!r}")
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.var > self.num_vars:
                    raise ValueError(
                        f"literal references variable {lit.var} "
                        f"but only {self.num_vars} are declared"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def uniform_width(self) -> int | None:
        """Common clause width, or None when empty or mixed."""
        widths = {c.width for c in self.clauses}
        if len(widths) == 1:
            return widths.pop()
        return None

    @property
    def negated_occurrences(self) -> int:
        return sum(lit.negated for c in self.clauses for lit in c.literals)


def require_uniform(formula: Formula, min_width: int) -> int:
    """Common clause width of ``formula``, which must be at least ``min_width``.

    The one width rule of the package.  Raises UnsupportedFormulaError for a
    formula with no clauses, mixed widths or a width below ``min_width``;
    callers that accept a formula with no clauses skip the call for it.
    """
    if not formula.clauses:
        raise UnsupportedFormulaError("at least one clause is required")
    width = formula.uniform_width
    if width is None:
        raise UnsupportedFormulaError("mixed clause widths are not supported")
    if width < min_width:
        raise UnsupportedFormulaError(
            f"clause width must be >= {min_width}, got {width}"
        )
    return width


def clause_of(*codes: int) -> Clause:
    """Build a clause from DIMACS-style signed integers."""
    return Clause(tuple(Literal.from_dimacs(c) for c in codes))


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Strict: one header, one zero-terminated clause per line, declared counts
    must match exactly.  Errors carry the offending line number.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DimacsError(f"input is not valid UTF-8: {exc}") from exc
    num_vars = None
    num_clauses = None
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars = int(parts[2])
                num_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError("header counts must be >= 0", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before header", lineno)
        try:
            codes = [int(tok) for tok in line.split()]
        except ValueError:
            raise DimacsError(f"non-integer token in {line!r}", lineno) from None
        if codes[-1] != 0:
            raise DimacsError("clause line must end with 0", lineno)
        body = codes[:-1]
        if 0 in body:
            raise DimacsError("0 inside clause body", lineno)
        if not body:
            raise DimacsError("empty clause", lineno)
        for code in body:
            if abs(code) > num_vars:
                raise DimacsError(
                    f"literal {code} exceeds declared {num_vars} variables", lineno
                )
        if len(clauses) == num_clauses:
            raise DimacsError("more clauses than declared", lineno)
        try:
            clauses.append(clause_of(*body))
        except ValueError as exc:
            raise DimacsError(str(exc), lineno) from None
    if num_vars is None:
        raise DimacsError("missing header")
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"declared {num_clauses} clauses but found {len(clauses)}"
        )
    return Formula(num_vars, tuple(clauses))


def write_dimacs(formula: Formula) -> str:
    """Canonical DIMACS text: header, then one clause per line."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(
            " ".join(str(lit.to_dimacs()) for lit in clause.literals) + " 0"
        )
    return "\n".join(lines) + "\n"


def evaluate(formula: Formula, assignment: Sequence[bool]) -> bool:
    """Standard CNF semantics: every clause has at least one true literal."""
    if len(assignment) != formula.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != {formula.num_vars} variables"
        )
    return all(
        any(assignment[lit.var - 1] != lit.negated for lit in clause.literals)
        for clause in formula.clauses
    )


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown truth convention {convention!r}")


def encode_assignment(
    values: Iterable[bool], convention: str = ZERO_TRUE
) -> tuple[int, ...]:
    """Booleans to integer codes.  Zero-true convention: True -> 0."""
    _check_convention(convention)
    if convention == ZERO_TRUE:
        return tuple(0 if v else 1 for v in values)
    return tuple(1 if v else 0 for v in values)


def decode_assignment(
    codes: Iterable[int], convention: str = ZERO_TRUE
) -> tuple[bool, ...]:
    """Integer codes back to booleans, inverse of encode_assignment."""
    _check_convention(convention)
    out = []
    for c in codes:
        if c not in (0, 1):
            raise ValueError(f"code {c!r} is not a two-valued truth code")
        out.append(c == 0 if convention == ZERO_TRUE else c == 1)
    return tuple(out)


def random_kcnf(
    num_vars: int, num_clauses: int, width: int, seed: int
) -> Formula:
    """Seeded uniform-width random formula.

    Each clause draws ``width`` distinct variables and flips a fair coin per
    literal for polarity.  Same seed, same formula.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width > num_vars:
        raise ValueError(f"width {width} exceeds {num_vars} variables")
    if num_clauses < 0:
        raise ValueError(f"num_clauses must be >= 0, got {num_clauses}")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(
            Clause(tuple(Literal(v, rng.random() < 0.5) for v in chosen))
        )
    return Formula(num_vars, tuple(clauses))
