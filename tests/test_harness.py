"""Differential harness: classification, reports, corpus tooling."""

import math
import re
from fractions import Fraction

import pytest

from modsat import harness, oracle, pipeline, simplex
from modsat.cnf import Formula, clause_of, parse_dimacs, random_kcnf
from modsat.errors import DimacsError
from modsat.foldeval import fold_eval
from modsat.harness import (
    BUDGET_EXCEEDED,
    CATEGORIES,
    ERROR_CATEGORY,
    DiffReport,
    bench_eval,
    classify,
    contradiction_2cnf,
    diff_run,
    fit_exponent,
    gen_corpus,
    load_corpus,
)
from modsat.pipeline import PipelineConfig


def small_corpus():
    return [
        ("allpos", Formula(3, (clause_of(1, 2), clause_of(2, 3)))),
        ("contra", contradiction_2cnf()),
        ("mixed", random_kcnf(6, 20, 3, seed=11)),
    ]


def test_classify_table():
    assert classify("sat_claim", True, "sat") == "sound_sat"
    assert classify("sat_claim", True, "unsat") == "sound_sat"
    assert classify("sat_claim", False, "sat") == "unsound_sat_claim"
    assert classify("sat_claim", False, "unsat") == "unsound_sat_claim"
    assert classify("unsat_claim", None, "unsat") == "sound_unsat"
    assert classify("unsat_claim", None, "sat") == "missed_sat"
    assert classify("unsat_claim", None, BUDGET_EXCEEDED) == "oracle_budget_exceeded"
    with pytest.raises(ValueError):
        classify("other", None, "sat")


def test_diff_run_produces_one_record_per_instance():
    report = diff_run(small_corpus())
    assert len(report.records) == 3
    assert [r.instance_id for r in report.records] == ["allpos", "contra", "mixed"]
    by_id = {r.instance_id: r for r in report.records}
    assert by_id["allpos"].category == "sound_sat"
    assert by_id["contra"].category == "unsound_sat_claim"
    assert by_id["contra"].oracle_status == "unsat"
    assert by_id["contra"].candidate_verified is False
    for r in report.records:
        assert r.fold_additions is not None
        assert r.error is None


def test_diff_run_takes_a_generator():
    corpus = small_corpus()
    report = diff_run(x for x in corpus)
    assert report == diff_run(corpus)
    assert len(report.records) == 3


def test_diff_run_echoes_config():
    config = PipelineConfig(negation_mode="affine", bound_mode="k-1")
    report = diff_run(small_corpus()[:1], config, oracle_budget=500)
    assert report.config == {
        "negation_mode": "affine",
        "bound_mode": "k-1",
        "rounding_base": 2,
        "objective": "none",
        "oracle_budget": 500,
    }


def test_diff_run_rejects_bad_instances():
    with pytest.raises(ValueError):
        diff_run([("narrow", Formula(1, (clause_of(1),)))])
    with pytest.raises(ValueError):
        diff_run([("mixed", Formula(3, (clause_of(1, 2), clause_of(1, 2, 3))))])


@pytest.mark.parametrize(
    "budget, error", [(-1, ValueError), (True, TypeError), ("3", TypeError)]
)
def test_diff_run_refuses_a_bad_oracle_budget_before_any_record(budget, error):
    # Checked per instance, the error would become one error record each.
    with pytest.raises(error, match="node budget must be"):
        diff_run(small_corpus(), oracle_budget=budget)


def test_faithful_mode_always_has_an_unsound_claim_on_contradiction():
    report = diff_run([("contra", contradiction_2cnf())])
    assert report.aggregates()["counts"]["unsound_sat_claim"] >= 1


def test_oracle_budget_shows_up_in_record():
    f = random_kcnf(40, 170, 3, seed=3)
    report = diff_run([("big", f)], oracle_budget=3)
    r = report.records[0]
    assert r.oracle_status == BUDGET_EXCEEDED
    assert r.oracle_nodes is None
    # sat claims classify on candidate verification, budget or not.
    assert r.category in ("sound_sat", "unsound_sat_claim")


def test_failing_dpll_witness_is_an_error_record(monkeypatch):
    def wrong(formula, node_budget):
        return oracle.OracleVerdict(oracle.SAT, (False,) * formula.num_vars, 1)

    monkeypatch.setattr(oracle, "dpll_sat", wrong)
    contra, allpos = diff_run(small_corpus()[1::-1]).records
    assert contra.category == ERROR_CATEGORY
    assert contra.error == (
        "CertificateError: dpll oracle gave a sat witness that does not "
        "satisfy the formula"
    )
    # All false satisfies no clause of allpos either.
    assert allpos.category == ERROR_CATEGORY


def test_unsat_claims_classify_against_the_oracle(monkeypatch):
    # No formula of width >= 2 has an infeasible relaxation, so a solve that
    # always reports one stands in for it.
    infeasible = simplex.LpSolution(simplex.INFEASIBLE, None, None, 2, Fraction(1))
    monkeypatch.setattr(simplex, "solve", lambda system: infeasible)
    probes = []

    def spy(formula, assignment):
        probes.append(assignment)
        return fold_eval(formula, assignment)

    monkeypatch.setattr(harness, "fold_eval", spy)
    corpus = small_corpus()[1::-1]  # contra (unsat), then allpos (sat)
    report = diff_run(corpus)
    contra, allpos = report.records
    assert (contra.category, allpos.category) == ("sound_unsat", "missed_sat")
    assert report.aggregates()["claim_oracle_agreement"] == 0.5
    (blown,) = diff_run(corpus[:1], oracle_budget=0).records
    assert blown.category == "oracle_budget_exceeded"
    assert blown.oracle_nodes is None
    for r, rows in ((contra, 4), (allpos, 2), (blown, 4)):
        assert r.claim == pipeline.UNSAT_CLAIM
        assert r.candidate_verified is None
        assert (r.lp_pivots, r.pipeline_steps, r.anomaly_count) == (2, rows + 2, 0)
        assert r.fold_additions is not None
    # With no candidate, the fold is probed at all false.
    assert probes == [(False,) * 2, (False,) * 3, (False,) * 2]


def test_errors_are_captured_not_raised(monkeypatch):
    def boom(formula, config):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(pipeline, "run", boom)
    report = diff_run(small_corpus()[:2])
    assert all(r.category == ERROR_CATEGORY for r in report.records)
    assert all("injected failure" in r.error for r in report.records)
    aggregates = report.aggregates()
    assert aggregates["counts"][ERROR_CATEGORY] == 2
    assert aggregates["claim_oracle_agreement"] is None


def test_aggregates_on_empty_report():
    report = DiffReport(config={}, records=())
    aggregates = report.aggregates()
    assert aggregates["total"] == 0
    assert set(aggregates["counts"]) == set(CATEGORIES) | {ERROR_CATEGORY}
    assert all(v == 0 for v in aggregates["counts"].values())
    assert aggregates["claim_oracle_agreement"] is None
    assert report.fits() == {
        "fold_additions_vs_clauses": None,
        "pipeline_steps_vs_vars": None,
    }


def test_canonical_json_is_deterministic_and_untimed():
    a = diff_run(small_corpus()).to_canonical_json()
    b = diff_run(small_corpus()).to_canonical_json()
    assert a == b
    assert a.endswith("\n")
    assert "wall_ns" not in a
    assert '"aggregates"' in a


def test_csv_layout():
    text = diff_run(small_corpus()[:2]).to_csv()
    lines = text.splitlines()
    assert lines[0].startswith("instance_id,category,claim,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "allpos"
    assert "wall" not in lines[0]


def test_record_serialisation(monkeypatch):
    header = (
        "instance_id,category,claim,candidate_verified,oracle_status,"
        "oracle_nodes,num_vars,num_clauses,width,lp_pivots,pipeline_steps,"
        "fold_additions,anomaly_count,error"
    )
    ok = diff_run(small_corpus()[:1])
    assert ok.to_csv().splitlines()[0] == header

    def boom(formula, config):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(pipeline, "run", boom)
    report = diff_run(small_corpus()[:1])
    assert report.records[0].to_dict() == {
        "instance_id": "allpos",
        "category": "error",
        "claim": "error",
        "candidate_verified": None,
        "oracle_status": "error",
        "oracle_nodes": None,
        "num_vars": 3,
        "num_clauses": 2,
        "width": 2,
        "lp_pivots": 0,
        "pipeline_steps": 0,
        "fold_additions": None,
        "anomaly_count": 0,
        "error": "RuntimeError: injected failure",
    }
    assert report.to_csv().splitlines() == [
        header,
        "allpos,error,error,,error,,3,2,2,0,0,,0,RuntimeError: injected failure",
    ]


def test_fit_exponent_recovers_powers():
    xs = [10, 20, 40, 80]
    assert abs(fit_exponent(xs, [x**2 for x in xs]) - 2.0) < 1e-12
    assert abs(fit_exponent(xs, [5 * x for x in xs]) - 1.0) < 1e-12
    assert fit_exponent([3, 3, 3], [1, 2, 3]) is None
    assert fit_exponent([0, -1], [1, 1]) is None
    assert fit_exponent([10, 20], [1, 0]) is None


def test_bench_eval_rows_and_exponent():
    result = bench_eval(3, [100, 200, 400], seed=9)
    assert result["width"] == 3
    assert result["num_vars"] == 24
    assert [r["clauses"] for r in result["rows"]] == [100, 200, 400]
    assert all(r["matches_prediction"] for r in result["rows"])
    # additions = 4m - 2 at width 3: nearly linear in m.
    assert abs(result["additions_exponent"] - 1.0) < 0.01
    with pytest.raises(ValueError):
        bench_eval(3, [], seed=9)


def test_bench_eval_is_deterministic():
    assert bench_eval(3, [100, 200], seed=9) == bench_eval(3, [100, 200], seed=9)


def test_bench_eval_reads_sizes_once():
    # sizes is read once: a generator's report lists the sizes it gave, and
    # an empty iterator is refused like an empty list.
    assert bench_eval(3, (m for m in [100, 200]), seed=9) == bench_eval(
        3, [100, 200], seed=9
    )
    with pytest.raises(ValueError, match="at least one size"):
        bench_eval(3, iter([]), seed=9)


def test_gen_corpus_deterministic_bytes(tmp_path):
    a = gen_corpus(tmp_path / "a", num_vars=8, width=3, count=3, seed=4, num_clauses=12)
    b = gen_corpus(tmp_path / "b", num_vars=8, width=3, count=3, seed=4, num_clauses=12)
    assert [p.name for p in a] == [
        "k3_n8_m12_i000.cnf",
        "k3_n8_m12_i001.cnf",
        "k3_n8_m12_i002.cnf",
    ]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    different = gen_corpus(
        tmp_path / "c", num_vars=8, width=3, count=3, seed=5, num_clauses=12
    )
    assert a[0].read_bytes() != different[0].read_bytes()


def test_gen_corpus_ratio_naming(tmp_path):
    paths = gen_corpus(
        tmp_path, num_vars=10, width=3, count=2, seed=1, ratios=[4.27]
    )
    assert [p.name for p in paths] == [
        "k3_n10_r4.27_i000.cnf",
        "k3_n10_r4.27_i001.cnf",
    ]
    f = parse_dimacs(paths[0].read_text())
    assert f.num_clauses == round(4.27 * 10)


def test_gen_corpus_reads_ratios_once(tmp_path):
    listed = gen_corpus(tmp_path / "a", 8, 3, 1, seed=1, ratios=[3.0, 4.0])
    drawn = gen_corpus(
        tmp_path / "b", 8, 3, 1, seed=1, ratios=(r for r in [3.0, 4.0])
    )
    assert [p.name for p in drawn] == [p.name for p in listed]
    assert [p.read_bytes() for p in drawn] == [p.read_bytes() for p in listed]


@pytest.mark.parametrize("empty", [list, iter], ids=["list", "iterator"])
def test_gen_corpus_refuses_an_empty_ratio_list(tmp_path, empty):
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match="at least one ratio"):
        gen_corpus(out, 8, 3, 1, seed=1, ratios=empty([]))
    assert not out.exists()


def test_gen_corpus_argument_validation(tmp_path):
    with pytest.raises(ValueError):
        gen_corpus(tmp_path, 8, 3, 1, seed=0)
    with pytest.raises(ValueError):
        gen_corpus(tmp_path, 8, 3, 1, seed=0, num_clauses=5, ratios=[1.0])
    with pytest.raises(ValueError):
        gen_corpus(tmp_path, 8, 3, 0, seed=0, num_clauses=5)
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match=re.escape("count must be >= 1, got 0")):
        gen_corpus(out, 8, 3, count=0, seed=0, num_clauses=5)
    assert not out.exists()


@pytest.mark.parametrize("bad", [2.0, True])
@pytest.mark.parametrize("name", ["num_vars", "width", "count", "num_clauses"])
def test_gen_corpus_arguments_must_be_ints(tmp_path, name, bad):
    out = tmp_path / "corpus"
    args = {"num_vars": 8, "width": 3, "count": 2, "seed": 0, "num_clauses": 5}
    args[name] = bad
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        gen_corpus(out, **args)
    assert not out.exists()


@pytest.mark.parametrize("ratios", [[3, 3.0000001], [3, 3]])
def test_gen_corpus_refuses_colliding_names(tmp_path, ratios):
    # Both ratios format as r3, so the second file would overwrite the first.
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match="the same name"):
        gen_corpus(out, num_vars=8, width=3, count=2, seed=1, ratios=ratios)
    assert not out.exists()


@pytest.mark.parametrize("num_vars,num_clauses", [(2, 5), (8, -1)])
def test_gen_corpus_refused_arguments_leave_no_directory(
    tmp_path, num_vars, num_clauses
):
    # Width 3 over 2 variables, and a negative clause count, are refused
    # by the generator; the output directory must not be left behind.
    out = tmp_path / "a" / "b"
    with pytest.raises(ValueError):
        gen_corpus(out, num_vars, 3, count=1, seed=0, num_clauses=num_clauses)
    assert not out.exists()


def test_gen_corpus_refuses_zero_clauses(tmp_path):
    # Every corpus consumer needs a clause, so a corpus of empty formulas
    # would be written only to be refused whole by diff.
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match="num_clauses must be >= 1, got 0"):
        gen_corpus(out, 8, 3, count=1, seed=0, num_clauses=0)
    assert not out.exists()


@pytest.mark.parametrize("bad", ["3", None, True, Fraction(3)])
def test_gen_corpus_ratios_must_be_ints_or_floats(tmp_path, bad):
    # "3" and None failed on the comparison without naming ratios, and True
    # was taken as ratio 1; the check comes before any draw or write.
    out = tmp_path / "corpus"
    message = f"ratios must hold ints or floats, got {bad!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        gen_corpus(out, num_vars=8, width=3, count=1, seed=1, ratios=[2, bad])
    assert not out.exists()


@pytest.mark.parametrize("ratios", [[-5, 0], [math.nan], [3, math.inf]])
def test_gen_corpus_refuses_bad_ratios(tmp_path, ratios):
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match="finite and > 0"):
        gen_corpus(out, num_vars=8, width=3, count=1, seed=1, ratios=ratios)
    assert not out.exists()


def test_load_corpus_sorted(tmp_path):
    gen_corpus(tmp_path, num_vars=6, width=2, count=3, seed=2, num_clauses=4)
    corpus = load_corpus(tmp_path)
    assert [name for name, _ in corpus] == sorted(name for name, _ in corpus)
    assert all(f.num_clauses == 4 for _, f in corpus)
    report = diff_run(corpus)
    assert len(report.records) == 3


def test_load_corpus_names_the_file_and_keeps_the_line(tmp_path):
    (tmp_path / "a.cnf").write_text("p cnf 2 1\n1 2 0\n")
    (tmp_path / "b.cnf").write_text("p cnf 2 1\n1 3 0\n")
    with pytest.raises(DimacsError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == (
        "file 'b.cnf': line 2: literal 3 exceeds declared 2 variables"
    )
    assert err.value.line == 2


def test_contradiction_2cnf_is_unsat():
    f = contradiction_2cnf()
    assert f.num_vars == 2
    assert f.num_clauses == 4
    from modsat.oracle import brute_force_sat

    assert brute_force_sat(f).status == "unsat"


def test_log_fit_matches_closed_form_slope():
    # Cross-check fit_exponent against a hand-computed two-point slope.
    slope = fit_exponent([2, 8], [3, 48])
    assert abs(slope - math.log(16) / math.log(4)) < 1e-12
