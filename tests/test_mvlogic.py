"""Tables, enumeration, and the generation primitive."""

import math

import pytest
from hypothesis import given, strategies as st

from modsat.errors import BudgetExceededError
from modsat.mvlogic import (
    BinaryTable,
    UnaryTable,
    clause_join_table,
    connective_name,
    enumerate_binary,
    enumerate_unary,
    format_binary_block,
    format_unary_block,
    mod_shift,
)

# The four arity-2 unary tables in enumeration order: index pair -> induced
# values (x=0, x=1).
UNARY_2 = {
    (0, 0): (0, 1),  # self projection
    (0, 1): (0, 0),  # antilogy
    (1, 0): (1, 1),  # tautology
    (1, 1): (1, 0),  # complementation
}

# The sixteen arity-2 binary tables in enumeration order: flattened index
# matrix -> (flattened induced values, connective name).
BINARY_2 = [
    ((0, 0, 0, 0), (0, 0, 0, 1), "nand"),
    ((0, 0, 0, 1), (0, 0, 0, 0), "antilogy"),
    ((0, 0, 1, 0), (0, 0, 1, 1), "left complementation"),
    ((0, 0, 1, 1), (0, 0, 1, 0), "if ... then"),
    ((0, 1, 0, 0), (0, 1, 0, 1), "right projection"),
    ((0, 1, 0, 1), (0, 1, 0, 0), "if"),
    ((0, 1, 1, 0), (0, 1, 1, 1), "neither ... nor"),
    ((0, 1, 1, 1), (0, 1, 1, 0), "if and only if"),
    ((1, 0, 0, 0), (1, 0, 0, 1), "xor"),
    ((1, 0, 0, 1), (1, 0, 0, 0), "or"),
    ((1, 0, 1, 0), (1, 0, 1, 1), "not ... but"),
    ((1, 0, 1, 1), (1, 0, 1, 0), "right projection"),
    ((1, 1, 0, 0), (1, 1, 0, 1), "but not"),
    ((1, 1, 0, 1), (1, 1, 0, 0), "left projection"),
    ((1, 1, 1, 0), (1, 1, 1, 1), "tautology"),
    ((1, 1, 1, 1), (1, 1, 1, 0), "and"),
]


def test_mod_shift_examples():
    assert mod_shift(2, 1, 1) == 0
    assert mod_shift(2, 0, 0.9) == 0
    assert mod_shift(3, 2, 4) == 0


def test_mod_shift_domain_errors():
    with pytest.raises(ValueError, match="arity must be >= 2, got 1"):
        mod_shift(1, 0, 0)
    with pytest.raises(ValueError, match="shift must be >= 0, got -1"):
        mod_shift(2, -1, 0)
    with pytest.raises(TypeError, match="shift must be an int, got True"):
        mod_shift(2, True, 0)
    with pytest.raises(ValueError):
        mod_shift(2, 0, float("inf"))
    with pytest.raises(ValueError):
        mod_shift(2, 0, float("nan"))


@given(
    n=st.integers(2, 9),
    k=st.integers(0, 30),
    a=st.one_of(st.integers(-50, 50), st.floats(-50, 50)),
)
def test_mod_shift_properties(n, k, a):
    v = mod_shift(n, k, a)
    assert 0 <= v < n
    assert v == mod_shift(n, k % n, math.floor(a))


def test_unary_2_tables_bit_exact():
    tables = list(enumerate_unary(2))
    assert [t.indices for t in tables] == sorted(UNARY_2)
    for t in tables:
        assert t.values() == UNARY_2[t.indices]


def test_unary_apply_examples():
    complementation = UnaryTable(2, (1, 1))
    assert complementation.apply(0) == 1
    assert complementation.apply(1) == 0
    antilogy = UnaryTable(2, (0, 1))
    assert antilogy.values() == (0, 0)
    tautology = UnaryTable(2, (1, 0))
    assert tautology.values() == (1, 1)


def test_unary_apply_floors_real_arguments():
    t = UnaryTable(2, (0, 1))
    assert t.apply(1.9) == t.apply(1)
    with pytest.raises(ValueError):
        t.apply(2)
    with pytest.raises(ValueError):
        t.apply(-0.5)


def test_binary_2_tables_bit_exact_with_names():
    tables = list(enumerate_binary(2))
    assert len(tables) == 16
    for table, (idx, vals, name) in zip(tables, BINARY_2):
        flat_idx = table.indices[0] + table.indices[1]
        flat_vals = table.values()[0] + table.values()[1]
        assert flat_idx == idx
        assert flat_vals == vals
        assert connective_name(table) == name


def test_connective_names_cover_published_list():
    names = [name for _, _, name in BINARY_2]
    # The published list names two tables "right projection", so there are
    # fifteen distinct names over sixteen tables.
    assert len(set(names)) == 15
    assert names.count("right projection") == 2
    assert {"antilogy", "tautology", "xor"} <= set(names)


def test_connective_name_rejects_other_arities():
    t = BinaryTable(3, ((0,) * 3,) * 3)
    with pytest.raises(ValueError):
        connective_name(t)


def test_binary_apply_examples():
    and_table = BinaryTable(2, ((1, 1), (1, 1)))
    assert and_table.apply(1, 1) == 0
    assert and_table.apply(0, 0) == 1
    or_table = BinaryTable(2, ((1, 0), (0, 1)))
    assert or_table.apply(0, 1) == 0
    all_zero = BinaryTable(2, ((0, 0), (0, 0)))
    assert all_zero.apply(1, 1) == 1


def test_binary_apply_floors_product_not_factors():
    # (1.5, 1.5): the product 2.25 floors to 2, the cell is (1, 1).
    t = BinaryTable(3, ((0, 0, 0), (0, 1, 0), (0, 0, 0)))
    assert t.apply(1.5, 1.5) == (2 + 1) % 3


def test_binary_apply_refuses_arguments_outside_its_domain():
    t = BinaryTable(2, ((0, 0), (0, 0)))
    for a, b in ((2, 0), (0, 2), (-0.5, 1), (1, 2.5)):
        with pytest.raises(ValueError, match="outside domain"):
            t.apply(a, b)


def test_enumeration_counts_and_first_table():
    unary3 = list(enumerate_unary(3))
    assert len(unary3) == 27
    assert unary3[0].indices == (0, 0, 0)
    assert len({t.values() for t in unary3}) == 27
    binary2 = list(enumerate_binary(2))
    assert binary2[0].indices == ((0, 0), (0, 0))
    assert len({t.values() for t in binary2}) == 16


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_binary(4))
    with pytest.raises(BudgetExceededError):
        list(enumerate_unary(4, budget=10))
    assert len(list(enumerate_unary(4, budget=256))) == 256


@pytest.mark.parametrize("enumerate_tables", [enumerate_unary, enumerate_binary])
@pytest.mark.parametrize(
    "budget, error", [(-1, ValueError), (True, TypeError), (1.0, TypeError)]
)
def test_enumeration_refuses_a_budget_that_is_not_a_count(
    enumerate_tables, budget, error
):
    with pytest.raises(error, match="table budget must be"):
        next(enumerate_tables(2, budget))


def test_budget_refuses_huge_arities_without_counting():
    # The table count at these arities has thousands to millions of digits;
    # the budget check must not build or format it.
    for tables in (
        enumerate_binary(60),
        enumerate_unary(2000),
        enumerate_binary(2000),
    ):
        with pytest.raises(BudgetExceededError, match="exceed budget"):
            next(tables)


@given(n=st.integers(2, 4))
def test_unary_enumeration_induced_maps_distinct(n):
    seen = {t.values() for t in enumerate_unary(n)}
    assert len(seen) == n**n


def test_table_validation():
    # Shifts and rows must be tuples: a list could change after the checks.
    cases = [
        (UnaryTable, (0,), ValueError, "expected 2 indices, got 1"),
        (UnaryTable, (0, 2), ValueError, "index 2 out of range for arity 2"),
        (UnaryTable, [0, 1], TypeError, "indices must be a tuple, got list"),
        (UnaryTable, (True, False), TypeError, "index must be an int, got True"),
        (UnaryTable, (0, -1), ValueError, "index must be >= 0, got -1"),
        (BinaryTable, ((0, 0),), ValueError, "expected 2 rows, got 1"),
        (BinaryTable, ((0, 0), (0,)), ValueError, "expected 2 columns, got 1"),
        (BinaryTable, ((0, 0), (0, 5)), ValueError, "index 5 out of range for arity 2"),
        (BinaryTable, [(0, 0), (0, 0)], TypeError, "rows must be a tuple, got list"),
        (BinaryTable, ((0, 0), [0, 0]), TypeError, "columns must be a tuple, got list"),
        (BinaryTable, ((0, 0), (0, True)), TypeError, "index must be an int, got True"),
    ]
    for table, indices, error, message in cases:
        with pytest.raises(error) as err:
            table(2, indices)
        assert str(err.value) == message


def test_clause_join_table_small_widths():
    assert clause_join_table(2).values() == (
        (0, 0, 0),
        (0, 1, 1),
        (0, 1, 1),
    )
    assert clause_join_table(3).values() == (
        (0, 0, 0, 0),
        (0, 1, 1, 1),
        (0, 1, 1, 1),
        (0, 1, 1, 1),
    )


@given(width=st.integers(2, 8))
def test_clause_join_table_zero_dominates(width):
    table = clause_join_table(width)
    assert table.arity == width + 1
    for a in range(width + 1):
        for b in range(width + 1):
            expected = 0 if (a == 0 or b == 0) else 1
            assert table.apply(a, b) == expected


def test_clause_join_table_rejects_width_below_two():
    with pytest.raises(ValueError, match="clause width must be >= 2, got 1"):
        clause_join_table(1)


def test_format_blocks():
    t = UnaryTable(2, (0, 1))
    assert format_unary_block(t) == "unary n=2 idx=0,1\n0 0\n"
    b = BinaryTable(2, ((1, 0), (0, 1)))
    assert format_binary_block(b) == "binary n=2\n1 0\n0 0\n"
