"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE <n> PASS/FAIL: <description>`` line
(visible under ``pytest -s`` or in the captured-output summary), so the
whole gate can be read at a glance.  All corpora are seeded: reruns are
exactly reproducible.
"""

import functools
import itertools
import time

import pytest

from modsat.cnf import evaluate, parse_dimacs, random_kcnf, write_dimacs
from modsat.foldeval import closed_form, fold_eval, predicted_ops
from modsat.harness import (
    CATEGORIES,
    bench_eval,
    contradiction_2cnf,
    diff_run,
    fit_exponent,
    gen_corpus,
    load_corpus,
)
from modsat.mvlogic import connective_name, enumerate_binary, enumerate_unary
from modsat.oracle import SAT, brute_force_sat, dpll_sat
from modsat.pipeline import PipelineConfig, run
from modsat.relax import BOUND_K, BOUND_K_MINUS_1, FAITHFUL, build_relaxation
from modsat.simplex import FEASIBLE, max_violation, solve

from test_mvlogic import BINARY_2, UNARY_2

TRANSITION_RATIO = 4.27  # clause/variable density where width-3 flips


def _report(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL: {desc}")
                raise
            print(f"ACCEPTANCE {num} PASS: {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def sweep_corpus():
    """1031 seeded uniform-width formulas, widths 2..4, small enough for an
    exhaustive assignment sweep each."""
    widths = (2, 3, 4)
    formulas = []
    i = 0
    for n in range(4, 11):
        for _ in range(143):
            k = widths[i % 3]
            m = n + (i % 3)
            formulas.append(random_kcnf(n, m, k, seed=3000 + i))
            i += 1
    for _ in range(30):
        formulas.append(random_kcnf(12, 12, widths[i % 3], seed=3000 + i))
        i += 1
    return formulas


@pytest.fixture(scope="module")
def transition_corpus():
    """The canonical contradiction plus 500 width-3 instances at the
    phase-transition density."""
    corpus = [("contradiction_2cnf", contradiction_2cnf())]
    m = round(TRANSITION_RATIO * 12)
    for i in range(500):
        corpus.append((f"k3_n12_i{i:03d}", random_kcnf(12, m, 3, seed=6000 + i)))
    return corpus


@_report(1, "arity-2 table enumeration is bit-exact with all connective names")
def test_criterion_1_table_fidelity():
    t0 = time.monotonic()
    unary = list(enumerate_unary(2))
    assert [t.indices for t in unary] == sorted(UNARY_2)
    for t in unary:
        assert t.values() == UNARY_2[t.indices]
    binary = list(enumerate_binary(2))
    assert len(binary) == 16
    for table, (idx, vals, name) in zip(binary, BINARY_2):
        assert table.indices[0] + table.indices[1] == idx
        assert table.values()[0] + table.values()[1] == vals
        assert connective_name(table) == name
    assert time.monotonic() - t0 < 1.0


@_report(2, "induced-table counts: 27/19683 distinct at arity 3, 256 at arity 4")
def test_criterion_2_cardinality():
    t0 = time.monotonic()
    unary3 = [t.values() for t in enumerate_unary(3)]
    assert len(unary3) == 27
    assert len(set(unary3)) == 27
    binary3 = [
        tuple(itertools.chain.from_iterable(t.values()))
        for t in enumerate_binary(3)
    ]
    assert len(binary3) == 19683
    assert len(set(binary3)) == 19683
    unary4 = [t.values() for t in enumerate_unary(4)]
    assert len(unary4) == 256
    assert len(set(unary4)) == 256
    assert time.monotonic() - t0 < 10.0


@_report(3, "fold evaluation equals its closed form on exhaustive sweeps")
def test_criterion_3_evaluator_equivalence(sweep_corpus):
    assert len(sweep_corpus) >= 1000
    mismatches = 0
    for f in sweep_corpus:
        for values in itertools.product((False, True), repeat=f.num_vars):
            if fold_eval(f, values).value != closed_form(f, values):
                mismatches += 1
    assert mismatches == 0


@_report(4, "operation counts match the shape formula; additions linear in m")
def test_criterion_4_operation_accounting(sweep_corpus):
    for f in sweep_corpus:
        probe = (False,) * f.num_vars
        assert fold_eval(f, probe).ops == predicted_ops(f)
    bench = bench_eval(3, [1000, 2000, 4000, 8000], seed=20250819)
    assert all(row["matches_prediction"] for row in bench["rows"])
    exponent = bench["additions_exponent"]
    assert exponent is not None
    assert abs(exponent - 1.0) <= 0.001, f"additions exponent {exponent}"
    # Measured cost is (width+1)*m - 2 additions; a clauses-over-width cost
    # model does not fit the measurements and is recorded as a discrepancy.
    k = bench["width"]
    for row in bench["rows"]:
        assert row["additions"] == (k + 1) * row["clauses"] - 2


@_report(5, "faithful relaxation: one row per clause, always feasible, exact")
def test_criterion_5_lp_faithfulness(transition_corpus):
    for count, (instance_id, f) in enumerate(transition_corpus):
        system = build_relaxation(f, FAITHFUL, BOUND_K)
        assert len(system.constraints) == f.num_clauses
        width = f.uniform_width
        for clause, con in zip(f.clauses, system.constraints):
            expected = {}
            for code in clause:
                expected[abs(code) - 1] = expected.get(abs(code) - 1, 0) + 1
            assert con.coefficients == expected, instance_id
            assert con.bound == width
            assert con.offset == 0
        sol = solve(system)
        assert sol.status == FEASIBLE, instance_id
        assert max_violation(system, sol.point) <= 0, instance_id
        if count < 20:  # tighter-bound variant spot check
            tight = solve(build_relaxation(f, FAITHFUL, BOUND_K_MINUS_1))
            assert tight.status == FEASIBLE
            assert (
                max_violation(
                    build_relaxation(f, FAITHFUL, BOUND_K_MINUS_1), tight.point
                )
                <= 0
            )


@_report(6, "differential harness finds unsound sat claims, reproducibly")
def test_criterion_6_pipeline_refutation(transition_corpus):
    report = diff_run(transition_corpus)
    assert len(report.records) == 501
    for r in report.records:
        assert r.category in CATEGORIES, r.instance_id
        assert r.error is None
    aggregates = report.aggregates()
    assert aggregates["counts"]["unsound_sat_claim"] >= 1
    by_id = {r.instance_id: r for r in report.records}
    assert by_id["contradiction_2cnf"].category == "unsound_sat_claim"
    agreement = aggregates["claim_oracle_agreement"]
    assert agreement is not None and 0.0 <= agreement <= 1.0
    again = diff_run(transition_corpus)
    assert report.to_canonical_json() == again.to_canonical_json()
    print(
        f"ACCEPTANCE 6 NOTE: claim/oracle agreement {agreement:.3f}, "
        f"unsound sat claims {aggregates['counts']['unsound_sat_claim']}"
    )


@_report(7, "pipeline step counts fit a polynomial exponent <= 4 in n")
def test_criterion_7_polynomial_steps():
    t0 = time.monotonic()
    sizes, steps = [], []
    for n in (20, 40, 80, 160):
        m = round(TRANSITION_RATIO * n)
        for i in range(5):
            f = random_kcnf(n, m, 3, seed=7000 + 10 * n + i)
            result = run(f, PipelineConfig())
            sizes.append(n)
            steps.append(result.steps)
    exponent = fit_exponent(sizes, steps)
    assert exponent is not None
    assert 0.0 < exponent <= 4.0, f"steps exponent {exponent}"
    assert time.monotonic() - t0 < 300.0
    print(f"ACCEPTANCE 7 NOTE: fitted steps exponent {exponent:.3f}")


@_report(8, "DPLL and brute force agree on 500 seeded instances, n <= 20")
def test_criterion_8_oracle_integrity():
    for i in range(500):
        if i < 480:
            n = 4 + i % 10
            ratio = (2.0, 3.0, TRANSITION_RATIO)[i % 3]
        else:
            n = 14 + (i - 480) % 7
            ratio = 2.6  # low density keeps enumeration quick at large n
        m = max(1, round(ratio * n))
        f = random_kcnf(n, m, 3, seed=9000 + i)
        bf = brute_force_sat(f)
        dp = dpll_sat(f)
        assert bf.status == dp.status, f"instance {i}"
        if bf.status == SAT:
            assert evaluate(f, bf.witness), f"instance {i}"
            assert evaluate(f, dp.witness), f"instance {i}"


@_report(9, "DIMACS round trip and byte-identical reports under fixed seeds")
def test_criterion_9_round_trip_determinism(
    sweep_corpus, transition_corpus, tmp_path
):
    for f in sweep_corpus:
        assert parse_dimacs(write_dimacs(f)) == f
    for _, f in transition_corpus:
        assert parse_dimacs(write_dimacs(f)) == f
    # Same seed and arguments: identical files, identical reports.
    a = gen_corpus(tmp_path / "a", num_vars=8, width=3, count=20, seed=77,
                   ratios=[3.0, TRANSITION_RATIO])
    b = gen_corpus(tmp_path / "b", num_vars=8, width=3, count=20, seed=77,
                   ratios=[3.0, TRANSITION_RATIO])
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    report_a = diff_run(load_corpus(tmp_path / "a"))
    report_b = diff_run(load_corpus(tmp_path / "b"))
    assert report_a.to_canonical_json() == report_b.to_canonical_json()
    assert report_a.to_csv() == report_b.to_csv()
