"""Fast tests of the benchmark's checkers on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
Each checker accepts modsat's real output and rejects a corrupted copy.
"""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import workloads
from modsat import cnf, foldeval, harness, oracle, pipeline, relax, simplex
from spans import NullTracer, Tracer

CONTRADICTION = [(1, 2), (1, -2), (-1, 2), (-1, -2)]


def small(seed, n=4, m=10):
    f = cnf.random_kcnf(n, m, 3, seed)
    return f, checks.clauses_of(cnf.write_dimacs(f))


def test_clauses_of_reads_canonical_dimacs():
    f = harness.contradiction_2cnf()
    assert checks.clauses_of(cnf.write_dimacs(f)) == CONTRADICTION


@pytest.mark.parametrize("seed", range(40))
def test_independent_searches_agree_with_brute_force(seed):
    f, clauses = small(seed, n=5, m=24)
    truth = oracle.brute_force_sat(f).status == oracle.SAT
    assert checks.exhaustive_sat(5, clauses) == truth
    witness = checks.search_sat(5, clauses)
    assert (witness is not None) == truth
    assert witness is None or cnf.evaluate(f, witness)


def test_exhaustive_sat_on_the_contradiction():
    assert not checks.exhaustive_sat(2, CONTRADICTION)
    assert checks.exhaustive_sat(2, CONTRADICTION[:3])


def test_diff_record_check_rejects_a_flipped_category():
    f = harness.contradiction_2cnf()
    record = harness.diff_run([("c", f)]).records[0].to_dict()
    assert checks.check_diff_record(record, 2, CONTRADICTION, False) == []
    flipped = {**record, "category": "sound_sat"}
    assert checks.check_diff_record(flipped, 2, CONTRADICTION, False)
    assert checks.check_diff_record(record, 2, CONTRADICTION, True)


def test_lp_check_rejects_a_perturbed_point():
    f, clauses = small(3, n=5, m=21)
    system = relax.build_relaxation(f, relax.AFFINE, relax.BOUND_K_MINUS_1)
    system = replace(system, objective=(1,) * 5)
    sol = simplex.solve(system)
    floating = simplex.solve(system, exact=False).objective_value
    assert checks.check_lp_point(5, clauses, sol.point, sol.objective_value, floating) == []
    nudged = (sol.point[0] + Fraction(1, 1000),) + sol.point[1:]
    assert checks.check_lp_point(5, clauses, nudged, sol.objective_value, floating)
    assert checks.check_lp_point(
        5, clauses, sol.point, sol.objective_value, floating + 1e-3
    )
    half = (Fraction(1, 2),) * 5
    assert checks.check_lp_point(5, clauses, half, Fraction(5, 2), 2.5) == []
    below = (Fraction(0),) * 5
    assert checks.check_lp_point(5, clauses, below, Fraction(0), 0.0)


def test_dpll_check_rejects_a_mutated_witness():
    for seed in range(20):
        f, clauses = small(seed)
        verdict = oracle.dpll_sat(f)
        own = checks.search_sat(4, clauses)
        assert checks.check_dpll_verdict(verdict.status, verdict.witness, clauses, own) == []
        if verdict.status == oracle.SAT:
            for v in range(4):
                mutated = list(verdict.witness)
                mutated[v] = not mutated[v]
                if not checks.satisfies(clauses, mutated):
                    assert checks.check_dpll_verdict("sat", tuple(mutated), clauses, own)
                    return
    pytest.fail("no satisfiable instance with a breakable witness")


def test_dpll_check_rejects_unsat_on_a_satisfiable_formula():
    f, clauses = small(1, n=4, m=3)
    own = checks.search_sat(4, clauses)
    assert own is not None
    assert checks.check_dpll_verdict("unsat", None, clauses, own)


def test_solve_check_rejects_a_wrong_addition_count():
    f, clauses = small(5, n=6, m=25)
    result = pipeline.run(f)
    fold = foldeval.fold_eval(f, result.rounded)
    args = dict(
        num_vars=6, clauses=clauses, claimed=result.claimed_status,
        rounded=result.rounded, steps=result.steps, pivots=result.lp.pivot_steps,
        evaluated=cnf.evaluate(f, result.rounded), fold_value=fold.value,
        fold_additions=fold.ops.additions,
        relax_rows=len(relax.build_relaxation(f).constraints),
    )
    assert checks.check_solve(**args) == []
    assert checks.check_solve(**{**args, "fold_additions": fold.ops.additions + 1})
    assert checks.check_solve(**{**args, "fold_value": 1 - fold.value})
    assert checks.check_solve(**{**args, "relax_rows": 24})


class TinyLp(workloads.LpPivot):
    num_vars = 4
    num_instances = 3


class CorruptLp(TinyLp):
    def run_op(self, i):
        sol = super().run_op(i)
        return replace(sol, point=(sol.point[0] + 1,) + sol.point[1:])


def run_tiny(cls, tmp_path, traced=False):
    w = cls(7, tmp_path)
    tracer = Tracer() if traced else NullTracer()
    w.setup(tracer)
    w.prepare()
    passes, layer = run.run_passes(w, 0, tracer, traced)
    return passes, passes.attempted_failed(), tracer, layer, w


def test_a_run_passes_its_checks(tmp_path):
    passes, (attempted, failed), *_ = run_tiny(TinyLp, tmp_path)
    assert (attempted, failed, passes.wrong) == (3, 0, False)


def test_a_corrupted_output_makes_the_run_report_failures(tmp_path):
    passes, (attempted, failed), *_ = run_tiny(CorruptLp, tmp_path)
    assert (attempted, failed, passes.wrong) == (3, 3, True)


def test_traced_run_reports_every_layer_metric(tmp_path):
    passes, (attempted, failed), tracer, layer, w = run_tiny(TinyLp, tmp_path, traced=True)
    assert failed == 0
    metrics = run.per_layer(w, tracer, layer)
    assert set(metrics) == set(run.LAYER_UNITS)
    assert metrics["simplex.pivots"][0] > 0
    assert metrics["relax.rows"][0] == 3 * (round(4.27 * 4) + 4)
    names = {s[0] for s in tracer.spans}
    assert {"op", "relax.build_relaxation", "simplex.solve", "cnf.parse_dimacs"} <= names
    assert all(s[3] is not None for s in tracer.spans if s[0] == "simplex.solve")


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    passes, *_ = run_tiny(TinyLp, tmp_path)
    metrics = run.end_to_end(0.5, passes)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_times_are_scaled_by_the_reference_routine():
    passes = run.Passes(2)
    ref = run.reference.REFERENCE_NS
    passes.times = [[(2_000_000, ref // 2)] * 3, [(1_000_000, ref), (3_000_000, ref)]]
    passes.end_times = [(500_000, ref)]
    assert passes.scaled_ns() == ([4_000_000, 2_000_000], 500_000)
    assert passes.reference_ns() == ref // 2  # the routine ran twice as fast
    metrics = run.end_to_end(0.5, passes)
    assert metrics["setup_s"][0] == 1.0
    assert metrics["op_ms_p50"][0] == 3.0
    assert metrics["ops_per_s"][0] == 2 / 6.5e-3
