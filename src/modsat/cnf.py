"""CNF formulas: model, DIMACS round trip, reference semantics, generation.

Variables are 1-based, matching DIMACS.  Assignments are tuples of bools
indexed by var-1.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from math import ceil, log
from typing import Sequence

from .errors import DimacsError, UnsupportedFormulaError, check_int

# DIMACS numbers are ASCII decimal; int() alone would also take "+1", "1_0" or "２".
_INTEGERS = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*").fullmatch
_HEADER = re.compile(r"p\s+cnf\s+([0-9]+)\s+([0-9]+)").fullmatch
# write_dimacs's header: single ASCII spaces, since \s also matches
# characters that splitlines breaks lines on.
_CANONICAL_HEADER = re.compile(r"p cnf ([0-9]+) ([0-9]+)").fullmatch
_CANONICAL_CHARS = re.compile(r"[-0-9 \n]*").fullmatch


class Clause(tuple):
    """A tuple of signed DIMACS codes: v for x_v and -v for not x_v."""

    __slots__ = ()

    def __new__(cls, *args):
        raise TypeError("build a Clause with clause_of(*codes)")

    def __reduce__(self):  # pickle and copy rebuild from the codes
        return clause_of, tuple(self)


def clause_of(*codes: int) -> Clause:
    """The one constructor and the one check of a clause of signed codes."""
    for code in codes:
        # Not errors.check_int: a code is a nonzero int of either sign, so
        # there is no floor, and 0 has its own message below.
        if type(code) is not int:
            raise ValueError(f"literals must be integers, got {codes!r}")
    if not codes:
        raise ValueError("empty clause: a clause needs at least one literal")
    if 0 in codes:
        raise ValueError("0 inside clause body: 0 terminates a clause")
    if len(set(codes)) != len(codes):
        raise ValueError(f"duplicate literal in clause {codes}")
    return tuple.__new__(Clause, codes)


@dataclass(frozen=True)
class Formula:
    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        check_int(self.num_vars, "num_vars", 0)
        if type(self.clauses) is not tuple or not all(
            isinstance(c, Clause) for c in self.clauses
        ):
            raise TypeError("clauses must be a tuple of clauses built with clause_of")
        top = max(map(abs, chain.from_iterable(self.clauses)), default=0)
        if top > self.num_vars:
            raise ValueError(
                f"literal references variable {top} "
                f"but only {self.num_vars} are declared"
            )

    @classmethod
    def _make(cls, num_vars: int, clauses: tuple[Clause, ...]) -> Formula:
        """Formula(num_vars, clauses) unchecked, for data its producer checked."""
        self = object.__new__(cls)
        self.__dict__.update(num_vars=num_vars, clauses=clauses)
        return self

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def __getstate__(self):  # the fields alone: pickles leave caches out
        return {"num_vars": self.num_vars, "clauses": self.clauses}

    @cached_property
    def uniform_width(self) -> int | None:
        """Common clause width, or None when empty or mixed."""
        widths = set(map(len, self.clauses))
        if len(widths) == 1:
            return widths.pop()
        return None

    @property
    def negated_occurrences(self) -> int:
        return sum(code < 0 for c in self.clauses for code in c)


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


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF text, or UTF-8 bytes, into a Formula.

    Strict: one header, one zero-terminated clause per line, declared counts
    must match exactly.  Errors carry the offending line number.  Text in
    write_dimacs's layout is converted in bulk; any other text, and every
    error, goes through the line loop.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:  # the bad byte, as U+FFFD, ends its line
            line = len(text[: exc.start + 1].decode("utf-8", "replace").splitlines())
            raise DimacsError(f"input is not valid UTF-8: {exc}", line) from exc
    parsed = _parse_canonical(text)
    if parsed is not None:
        return Formula._make(*parsed)
    num_vars = None
    num_clauses = None
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            header = _HEADER(line)
            if not header:
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars, num_clauses = map(int, header.groups())
            except ValueError:  # an integer too long for int()
                raise DimacsError("integer token too long", lineno) from None
            continue
        if num_vars is None:
            raise DimacsError("clause before header", lineno)
        if not _INTEGERS(line):
            raise DimacsError(f"non-integer token in {line!r}", lineno)
        try:
            *codes, end = map(int, line.split())
        except ValueError:  # an integer too long for int()
            raise DimacsError("integer token too long", lineno) from None
        if end != 0:
            raise DimacsError("clause line must end with 0", lineno)
        try:
            clause = clause_of(*codes)
        except ValueError as exc:
            raise DimacsError(str(exc), lineno) from None
        if max(clause) > num_vars or min(clause) < -num_vars:
            top = max(clause, key=abs)
            message = f"literal {top} exceeds declared {num_vars} variables"
            raise DimacsError(message, lineno)
        if len(clauses) == num_clauses:
            raise DimacsError("more clauses than declared", lineno)
        clauses.append(clause)
    if num_vars is None:
        raise DimacsError("missing header")
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"declared {num_clauses} clauses but found {len(clauses)}"
        )
    return Formula._make(num_vars, tuple(clauses))


def _parse_canonical(text: str) -> tuple[int, tuple[Clause, ...]] | None:
    """(num_vars, clauses) of text in write_dimacs's layout with one clause
    width, converted in bulk; None for any other text, which the line loop
    of parse_dimacs then parses or rejects, with the same result."""
    header, _, body = text.partition("\n")
    header = _CANONICAL_HEADER(header)
    if not header or not _CANONICAL_CHARS(body):
        return None
    # The layout is (?:(?:-?[1-9][0-9]* )+0\n)*.  Every line ends in " 0\n";
    # with "," for each separator, JSON takes only codes -?(0|[1-9][0-9]*)
    # with one separator each, and counting 0s leaves none but the line
    # ends.  Matching that regex in one call would hold a frame per token.
    lines = body.count("\n")
    if body.count(" 0\n") != lines or (body and body[-1] != "\n"):
        return None
    try:
        num_vars, num_clauses = map(int, header.groups())
        codes = json.loads("[" + body[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:  # not that layout, or an integer too long for int()
        return None
    if num_clauses != lines or codes.count(0) != lines:
        return None
    if not lines:
        return num_vars, ()
    k = len(codes) // lines - 1  # every line holds k codes and its 0
    if len(codes) != lines * (k + 1) or any(codes[k :: k + 1]):
        return None
    if max(codes) > num_vars or min(codes) < -num_vars:
        return None
    columns = (codes[j :: k + 1] for j in range(k))
    clauses = tuple(map(tuple.__new__, repeat(Clause), zip(*columns)))
    if sum(map(len, map(set, clauses))) != lines * k:  # a repeated literal
        return None
    return num_vars, clauses


def write_dimacs(formula: Formula) -> str:
    """Canonical DIMACS text: header, then one clause per line."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(formula: Formula, assignment: Sequence[bool]) -> bool:
    """Standard CNF semantics: every clause has at least one true literal."""
    require_assignment(formula, assignment)
    true = {v if value else -v for v, value in enumerate(assignment, 1)}
    return not any(map(true.isdisjoint, formula.clauses))


def require_assignment(formula: Formula, assignment: Sequence[bool]) -> None:
    """Raise ValueError unless ``assignment`` gives one value per variable."""
    if len(assignment) != formula.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != {formula.num_vars} variables"
        )


def random_kcnf(
    num_vars: int, num_clauses: int, width: int, seed: int
) -> Formula:
    """Seeded uniform-width random formula.

    Each clause draws ``width`` distinct variables and flips a fair coin per
    literal for polarity.  Same seed, same formula: the draws of a clause
    are those of ``rng.sample(range(1, num_vars + 1), width)`` followed by
    one ``rng.random() < 0.5`` per literal, in order, with
    ``rng = random.Random(seed)``; the two branches of ``Random.sample``
    (Python 3.10-3.12) are inlined to spare its per-call overhead.
    """
    check_int(num_vars, "num_vars", 0)
    check_int(num_clauses, "num_clauses", 0)
    check_int(width, "width", 1)
    if width > num_vars:
        raise ValueError(f"width {width} exceeds {num_vars} variables")
    rng = random.Random(seed)
    getrandbits, coin = rng.getrandbits, rng.random
    slots = range(width)
    # sample keeps a pool of the unchosen when that list is smaller than
    # the set of the chosen, and otherwise redraws a chosen index.
    pooled = num_vars <= 21 + (4 ** ceil(log(3 * width, 4)) if width > 5 else 0)
    variables = range(1, num_vars + 1)
    pool_sizes = [(n, n.bit_length()) for n in range(num_vars, num_vars - width, -1)]
    bits = num_vars.bit_length()
    clauses = []
    for _ in range(num_clauses):
        chosen = []
        if pooled:  # the unchosen at pool[:n]; the last of them fills the gap
            pool = list(variables)
            for n, pool_bits in pool_sizes:
                j = getrandbits(pool_bits)
                while j >= n:
                    j = getrandbits(pool_bits)
                chosen.append(pool[j])
                pool[j] = pool[n - 1]
        else:  # an index out of range or already chosen is drawn again
            for _ in slots:
                v = getrandbits(bits) + 1
                while v > num_vars or v in chosen:
                    v = getrandbits(bits) + 1
                chosen.append(v)
        for i in slots:
            if coin() < 0.5:
                chosen[i] = -chosen[i]
        clauses.append(clause_of(*chosen))
    return Formula(num_vars, tuple(clauses))
