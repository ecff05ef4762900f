"""Formula model, DIMACS round trip, reference semantics, generation."""

import copy
import itertools
import pickle
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from modsat import cnf
from modsat.cnf import (
    Clause,
    Formula,
    _parse_canonical,
    clause_of,
    evaluate,
    parse_dimacs,
    random_kcnf,
    require_uniform,
    write_dimacs,
)
from modsat.errors import DimacsError, UnsupportedFormulaError

from conftest import formulas


def bitmask_evaluate(formula, assignment):
    """Independent CNF evaluation via integer masks."""
    word = 0
    for i, value in enumerate(assignment):
        if value:
            word |= 1 << i
    full = (1 << formula.num_vars) - 1
    for clause in formula.clauses:
        pos = 0
        neg = 0
        for code in clause:
            if code < 0:
                neg |= 1 << (abs(code) - 1)
            else:
                pos |= 1 << (abs(code) - 1)
        if not (word & pos) and not ((word ^ full) & neg):
            return False
    return True


def test_clause_validation():
    with pytest.raises(ValueError):
        clause_of()
    with pytest.raises(ValueError):
        clause_of(1, 1)
    # Opposite polarities of one variable are two different literals.
    assert len(clause_of(1, -1)) == 2


@pytest.mark.parametrize("code", [1.5, True, "1"])
def test_clause_of_takes_only_int_codes(code):
    with pytest.raises(ValueError, match="literals must be integers"):
        clause_of(code)


@pytest.mark.parametrize(
    "codes, message",
    [
        ((), "empty clause"),
        ((1, True), "literals must be integers"),
        ((2.0,), "literals must be integers"),
        ((True, 0), "literals must be integers"),
        ((0, 0), "0 inside clause body"),
        ((1, 1), "duplicate literal"),
    ],
)
def test_clause_of_checks_type_then_empty_then_zero_then_duplicate(codes, message):
    with pytest.raises(ValueError, match=message):
        clause_of(*codes)


def test_clause_is_built_only_by_clause_of():
    with pytest.raises(TypeError, match="clause_of"):
        Clause((1, 2))
    clause = clause_of(1, -2)
    rebuilt = [
        pickle.loads(pickle.dumps(clause, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in rebuilt + [copy.copy(clause), copy.deepcopy(clause)]:
        assert type(other) is Clause
        assert other == clause


def test_formula_validation():
    with pytest.raises(ValueError, match="num_vars must be >= 0, got -1"):
        Formula(-1, ())
    with pytest.raises(ValueError):
        Formula(2, (clause_of(3),))
    with pytest.raises(TypeError, match="num_vars must be an int, got True"):
        Formula(True, (clause_of(1),))
    with pytest.raises(TypeError):  # would be stored exhausted
        Formula(2, (c for c in [clause_of(1, 2)]))
    with pytest.raises(TypeError):  # would be unhashable and mutable
        Formula(2, [clause_of(1, 2)])


def test_uniform_width():
    assert Formula(3, (clause_of(1, 2), clause_of(2, 3))).uniform_width == 2
    assert Formula(3, (clause_of(1, 2), clause_of(1, 2, 3))).uniform_width is None
    assert Formula(3, ()).uniform_width is None
    assert Formula(3, (clause_of(1, -2, 3),)).negated_occurrences == 1


def test_parse_simple():
    text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 3
    assert f.clauses == (clause_of(1, -2), clause_of(2, 3))
    assert parse_dimacs(text.encode()) == f


def test_parse_blank_lines_and_comments():
    f = parse_dimacs("c x\n\np cnf 1 1\nc mid\n1 0\n\n")
    assert f == Formula(1, (clause_of(1),))


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("1 2 0\n", 1, "before header"),
        ("p cnf x 2\n", 1, "malformed header"),
        ("p cnf 2 1\np cnf 2 1\n", 2, "duplicate header"),
        ("p cnf 2 1\n1 2\n", 2, "end with 0"),
        ("p cnf 2 1\n1 0 2 0\n", 2, "0 inside clause"),
        ("p cnf 2 1\n0\n", 2, "empty clause"),
        ("p cnf 1 1\n1 2 0\n", 2, "exceeds declared"),
        ("p cnf 2 1\n1 1 0\n", 2, "duplicate literal"),
        ("p cnf 2 1\n1 a 0\n", 2, "non-integer"),
        ("p cnf 12 1\n1_0 -2 0\n", 2, "non-integer"),
        ("p cnf 12 1\n1 -\uff12 0\n", 2, "non-integer"),
        ("p cnf \uff12 1\n", 1, "malformed header"),
        ("p cnf 2 1\n1 0\n2 0\n", 3, "more clauses"),
        # lines breaking two rules: the first check in parse order wins
        ("p cnf 1 1\n1 1 2 0\n", 2, "duplicate literal"),
        ("p cnf 2 1\n1 0\n0\n", 3, "empty clause"),
        ("p cnf 2 1\n1 0\n3 3 0\n", 3, "duplicate literal"),
        ("p cnf 2 1\n-3 1 0\n", 2, "literal -3 exceeds"),
        ("p cnf 2 1\n1 -0 0\n", 2, "0 inside"),
        ("p cnf 2 1\n+1 2 0\n", 2, "non-integer"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_parse_accepts_padded_zero_and_tautology():
    assert parse_dimacs("p cnf 2 1\n1 2 00\n") == Formula(2, (clause_of(1, 2),))
    assert parse_dimacs("p cnf 1 1\n1 -1 0\n") == Formula(1, (clause_of(1, -1),))


@pytest.mark.parametrize("space", ["\xa0", "\u2003"])
def test_parse_accepts_any_whitespace_between_tokens(space):
    f = parse_dimacs(f"p cnf 2 1\n1{space}2 0\n")
    assert f == Formula(2, (clause_of(1, 2),))


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() takes any length")
def test_parse_reports_an_integer_too_long_for_int_with_its_line():
    # The digit rule accepts the token and int() refuses it for its length.
    digits = "0" * sys.get_int_max_str_digits() + "1"
    for text, line in [
        (f"p cnf {digits} 1\n1 0\n", 1),
        (f"c x\np cnf 2 1\n-{digits} 0\n", 3),
    ]:
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert str(err.value) == f"line {line}: integer token too long"
        assert err.value.line == line


@pytest.mark.parametrize(
    "data,line",
    [
        (b"\xff", 1),
        (b"p cnf 1 1\n1 0\nc \xff\n", 3),
        (b"p cnf 1 1\r\n1 0\r\n\xff", 3),
        (b"c caf\xc3\xa9\np cnf 1 1\n1 0 \xe9\n", 3),
    ],
)
def test_parse_names_the_line_of_a_byte_that_is_not_utf8(data, line):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(data)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: input is not valid UTF-8: ")


# The token rule as one regex over a stripped clause line: the reference for
# parse_dimacs's token check.
REFERENCE_TOKENS = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*").fullmatch
_TOKEN_CHARS = "0123456789-+_\uff12.a"
_SPACES = " \t\xa0\u2003"


@st.composite
def clause_lines(draw):
    """Lines over digits, "-", "+", "_", "２", ".", "a" and four kinds of
    whitespace: free text, or tokens between whitespace runs so that many
    lines parse."""
    if draw(st.booleans()):
        return draw(st.text(_TOKEN_CHARS + _SPACES, max_size=12))
    tokens = draw(st.lists(
        st.one_of(
            st.sampled_from(["1", "-1", "2", "-2", "-3", "07", "10", "00", "-0"]),
            st.text(_TOKEN_CHARS, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=4,
    ))
    spaces = draw(st.sampled_from([" \t", _SPACES]))  # ASCII lines are common
    seps = [draw(st.text(spaces, min_size=1, max_size=2)) for _ in tokens]
    return "".join(map(str.__add__, seps, tokens)) + draw(st.sampled_from(["", " 0"]))


def reference_parse(line: str, num_vars: int):
    """The formula of one clause line after the header ``p cnf num_vars 1`` on
    line 2, or the text and line number of its DimacsError, with tokens
    checked by REFERENCE_TOKENS."""
    line = line.strip()
    if not line:
        return "declared 1 clauses but found 0", None
    if not REFERENCE_TOKENS(line):
        return f"line 3: non-integer token in {line!r}", 3
    *codes, end = map(int, line.split())
    try:
        if end != 0:
            raise ValueError("clause line must end with 0")
        clause = clause_of(*codes)
        if max(map(abs, clause)) > num_vars:
            top = max(clause, key=abs)
            raise ValueError(f"literal {top} exceeds declared {num_vars} variables")
    except ValueError as exc:
        return f"line 3: {exc}", 3
    return Formula(num_vars, (clause,))


@settings(max_examples=500)
@given(line=clause_lines())
def test_token_check_accepts_what_the_regex_accepted(line):
    try:
        got = parse_dimacs(f"c tokens\np cnf 9 1\n{line}\n")
    except DimacsError as exc:
        got = str(exc), exc.line
    assert got == reference_parse(line, 9)


def test_parse_errors_without_line():
    with pytest.raises(DimacsError, match="missing header"):
        parse_dimacs("c nothing\n")
    with pytest.raises(DimacsError, match="declared 2 clauses but found 1"):
        parse_dimacs("p cnf 2 2\n1 2 0\n")


def test_parsed_formulas_pass_the_public_checks():
    # parse_dimacs skips Formula's checks; what it builds must pass them.
    for seed, (num_vars, ratio, width) in enumerate(
        itertools.product((3, 12, 40), (0, 1, 4.27), (1, 3))
    ):
        text = write_dimacs(random_kcnf(num_vars, int(ratio * num_vars), width, seed))
        assert _parse_canonical(text) is not None
        f = parse_dimacs(text)
        assert Formula(f.num_vars, f.clauses) == f


def test_formulas_survive_pickle_and_copy():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    fresh = pickle.dumps(f)
    assert f.uniform_width == 2
    assert pickle.dumps(f) == fresh  # the cached width stays out
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g == f
        assert all(isinstance(c, Clause) for c in g.clauses)


def test_write_canonical():
    f = Formula(3, (clause_of(1, -2), clause_of(2, 3)))
    assert write_dimacs(f) == "p cnf 3 2\n1 -2 0\n2 3 0\n"
    assert write_dimacs(Formula(0, ())) == "p cnf 0 0\n"


@given(f=formulas())
def test_dimacs_round_trip_identity(f):
    assert parse_dimacs(write_dimacs(f)) == f


@given(f=st.integers(1, 4).flatmap(lambda k: formulas(width=k)))
def test_write_dimacs_layout_takes_the_bulk_path(f):
    # Without this a change to either function could lose the bulk path
    # silently: the line loop gives the same formula, only slower.
    assert _parse_canonical(write_dimacs(f)) == (f.num_vars, f.clauses)


def test_parse_returns_what_the_bulk_path_returns(monkeypatch):
    monkeypatch.setattr(cnf, "_parse_canonical", lambda text: (7, ()))
    assert parse_dimacs("not dimacs") == Formula(7, ())


# One-character edits: whitespace that \s or splitlines treats specially,
# line breaks, zeros, digits and signs, and the comment marker.
_EDITS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2003", "\r", "\n",
          "0", "-0", "00", "1", "9", "-", "c"]


def _edited(draw, text):
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 1))
    return text[:at] + draw(st.sampled_from(_EDITS)) + text[at + cut:]


@st.composite
def near_canonical_texts(draw):
    """Text in write_dimacs's layout of a uniform or mixed-width formula. One
    literal may be turned into a 0, a repeat or a variable out of range, the
    clause count may be off by one from the number of lines, and one
    character of the body, or of the whole text, may be inserted or
    replaced."""
    uniform = st.integers(1, 3).flatmap(lambda k: formulas(width=k))
    f = draw(st.one_of(uniform, formulas()))
    n, lines = f.num_vars, [list(c) for c in f.clauses]
    line = draw(st.sampled_from(lines))
    at = draw(st.integers(0, len(line) - 1))
    line[at] = draw(st.sampled_from([line[at]] * 4 + [0, line[at - 1], n + 1, -n - 1]))
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in lines)
    edit = draw(st.sampled_from(["", "", "body", "body", "text"]))
    if edit == "body":
        body = _edited(draw, body)
    m = body.count("\n") + draw(st.sampled_from([0] * 6 + [-1, 1]))
    text = f"p cnf {n} {m}\n{body}"
    return _edited(draw, text) if edit == "text" else text


def _outcome(text):
    try:
        return parse_dimacs(text)
    except DimacsError as exc:
        return re.sub(r"^line [0-9]+: ", "", str(exc)), exc.line


@settings(max_examples=400)
@given(text=near_canonical_texts())
@example(text="p cnf 0 0\n")
@example(text="p cnf 2 0\n1 0\n")
@example(text="p cnf 2 1")
@example(text="p cnf 2 0\n12")
@example(text="p cnf 2 1\n1 \r2 0\n")
@example(text="p cnf 9 1\n1e0 2 0\n")
@example(text="p cnf 4 2\n1\n2 0 3 4 0\n")
@example(text="p cnf 6 2\n1 2 3 4 0\n-5 6 -5 1 0\n")
@example(text="p cnf 6 2\n1 2 3 4 0\n6 -2 3 -2 0\n")
@example(text="p cnf 6 2\n1 2 3 4 5 0\n4 -1 2 4 6 0\n")
@example(text="p cnf 6 2\n1 2 3 4 5 6 0\n-6 1 2 3 4 -6 0\n")
def test_bulk_path_agrees_with_the_line_loop(text):
    # A leading comment line keeps any text off the bulk path.
    got, looped = _outcome(text), _outcome("c\n" + text)
    if isinstance(got, Formula):
        assert got == looped
    else:
        message, line = got
        assert looped == (message, None if line is None else line + 1)


def test_bulk_header_takes_only_ascii_spaces():
    # \s would match \x0b, which splitlines breaks the header on.
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p\x0bcnf 0 0\n")
    assert str(err.value) == "line 1: malformed header 'p'"
    assert err.value.line == 1


def _all_clauses_3vars():
    """Every clause over variables 1..3: each variable appears positively,
    negatively, or not at all."""
    out = []
    for states in itertools.product((0, 1, 2), repeat=3):
        codes = tuple(
            -(v + 1) if state == 2 else v + 1
            for v, state in enumerate(states)
            if state
        )
        if codes:
            out.append(clause_of(*codes))
    return out


def test_evaluate_exhaustive_against_bitmask_oracle():
    clauses = _all_clauses_3vars()
    assert len(clauses) == 26
    assignments = list(itertools.product((False, True), repeat=3))
    checked = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(clauses, size):
            f = Formula(3, combo)
            for a in assignments:
                assert evaluate(f, a) == bitmask_evaluate(f, a)
                checked += 1
    assert checked == (26 + 351 + 3276) * 8


def test_evaluate_rejects_wrong_length():
    f = Formula(2, (clause_of(1, 2),))
    with pytest.raises(ValueError):
        evaluate(f, (True,))


def test_random_kcnf_shape_and_determinism():
    f = random_kcnf(10, 30, 3, seed=7)
    assert f.num_vars == 10
    assert f.num_clauses == 30
    assert f.uniform_width == 3
    for clause in f.clauses:
        assert len(set(map(abs, clause))) == 3
    assert f == random_kcnf(10, 30, 3, seed=7)
    assert f != random_kcnf(10, 30, 3, seed=8)


def sample_reference(num_vars, num_clauses, width, seed):
    """random_kcnf as Random.sample and one coin per literal draw it."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(clause_of(*(-v if rng.random() < 0.5 else v for v in chosen)))
    return Formula(num_vars, tuple(clauses))


# Random.sample keeps a pool of the unchosen for up to 21 variables when
# width <= 5 and up to 85 when width is 6-9, and a set of the chosen above.
SAMPLE_EDGES = (21, 22, 85, 86)


@pytest.mark.parametrize("width", range(1, 10))
def test_random_kcnf_draws_what_sample_draws_at_each_branch_edge(width):
    for num_vars in (width, *(n for n in SAMPLE_EDGES if n >= width)):
        for seed in range(5):
            expected = sample_reference(num_vars, 40, width, seed)
            assert random_kcnf(num_vars, 40, width, seed) == expected


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 9),
    num_vars=st.sampled_from(SAMPLE_EDGES) | st.integers(1, 120),
    num_clauses=st.integers(0, 40),
    seed=st.integers(0, 2**64),
)
def test_random_kcnf_draws_what_sample_draws(width, num_vars, num_clauses, seed):
    num_vars = max(num_vars, width)
    expected = sample_reference(num_vars, num_clauses, width, seed)
    assert random_kcnf(num_vars, num_clauses, width, seed) == expected


def test_random_kcnf_polarity_balance():
    # 10**4 literal draws; the negated fraction must sit within 0.5 +/- 0.02.
    f = random_kcnf(20, 2500, 4, seed=123)
    total = 4 * 2500
    negated = f.negated_occurrences
    assert abs(negated / total - 0.5) <= 0.02


def test_random_kcnf_validation():
    with pytest.raises(ValueError):
        random_kcnf(2, 5, 3, seed=0)
    with pytest.raises(ValueError):
        random_kcnf(2, 5, 0, seed=0)
    with pytest.raises(ValueError):
        random_kcnf(2, -1, 2, seed=0)
    # Each argument is checked in signature order with the shared wording,
    # so a negative num_vars is named, even beside a bad num_clauses.
    with pytest.raises(ValueError, match=re.escape("num_vars must be >= 0, got -1")):
        random_kcnf(-1, 0, 1, 0)
    with pytest.raises(ValueError, match=re.escape("num_vars must be >= 0, got -1")):
        random_kcnf(-1, 2.0, 1, 0)


@pytest.mark.parametrize("name", ["num_vars", "num_clauses", "width"])
@pytest.mark.parametrize("bad", [3.0, True, "3"])
def test_random_kcnf_arguments_must_be_ints(name, bad):
    # A float used to fail inside range(), and a bool was taken as 0 or 1.
    args = {"num_vars": 6, "num_clauses": 4, "width": 3}
    args[name] = bad
    message = re.escape(f"{name} must be an int, got {bad!r}")
    with pytest.raises(TypeError, match=message):
        random_kcnf(**args, seed=0)


def test_require_uniform():
    f = Formula(3, (clause_of(1, 2), clause_of(-2, 3)))
    assert require_uniform(f, 2) == 2
    assert require_uniform(Formula(1, (clause_of(1),)), 1) == 1
    for bad, min_width in (
        (Formula(2, ()), 1),
        (Formula(3, (clause_of(1, 2), clause_of(1, 2, 3))), 2),
        (Formula(1, (clause_of(1),)), 2),
    ):
        with pytest.raises(UnsupportedFormulaError):
            require_uniform(bad, min_width)
