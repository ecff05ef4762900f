"""The four workloads: seeded inputs, one timed operation each, checks.

``setup`` builds a workload's inputs as a user would: generate formulas,
write them as DIMACS files and read the files back.  ``run_op`` is the one
call the benchmark times.  ``traced_op`` composes the same operation again
from the layer calls it is made of, each inside a span, and reports where
the composition disagrees with ``run_op``'s output.  ``check`` validates an
output with the independent code in ``checks``, outside the timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from modsat import cnf, foldeval, harness, mvlogic, oracle, pipeline, relax, simplex

import checks

WIDTH = 3
RATIO = 4.27  # clause/variable density where random 3-CNF flips sat -> unsat


def _point_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    bits = 0
    for x in values:
        x = Fraction(x)
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


def _lp_counts(system: simplex.LpSystem, sol: simplex.LpSolution) -> dict:
    rows = len(system.constraints)
    artificial = sum(1 for con in system.constraints if con.bound < 0)
    return {
        "relax.rows": rows,
        # the dense tableau simplex.solve builds: structural, slack,
        # artificial and right-hand-side columns
        "simplex.tableau_cells": rows * (system.num_vars + rows + artificial + 1),
        "simplex.pivots": sol.pivot_steps,
        "simplex.point_bits": _point_bits(sol.point or ()),
    }


class Workload:
    """Seeded random 3-CNF at the transition density, one file each."""

    name = ""
    num_vars = 0
    num_instances = 0
    extra_clauses = 0  # clauses generate() adds to the random ones
    keeps_outputs = False  # whether end_pass needs the pass's outputs

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**32) for _ in range(self.num_instances)]

    def generate(self) -> list[cnf.Formula]:
        m = round(RATIO * self.num_vars)
        return [cnf.random_kcnf(self.num_vars, m, WIDTH, s) for s in self.seeds]

    def file_names(self) -> list[str]:
        return [f"i{i:04d}.cnf" for i in range(len(self.seeds))]

    def setup(self, tracer) -> None:
        """Generate, write and read back the inputs; safe to repeat."""
        corpus = self.workdir / "corpus"
        corpus.mkdir(parents=True, exist_ok=True)
        clauses = round(RATIO * self.num_vars) * len(self.seeds) + self.extra_clauses
        with tracer.span("cnf.random_kcnf", clauses):
            formulas = self.generate()
        with tracer.span("cnf.write_dimacs", clauses):
            texts = [cnf.write_dimacs(f) for f in formulas]
        for name, text in zip(self.file_names(), texts):
            (corpus / name).write_text(text, encoding="utf-8")
        self.texts = [(corpus / n).read_text(encoding="utf-8") for n in self.file_names()]
        self.load(tracer, clauses)

    def load(self, tracer, clauses: int) -> None:
        with tracer.span("cnf.parse_dimacs", clauses):
            self.formulas = [cnf.parse_dimacs(text) for text in self.texts]

    def prepare(self) -> None:
        """Once after set-up, untimed: the checkers' view of each input."""
        self.clauses = [checks.clauses_of(text) for text in self.texts]

    @property
    def num_ops(self) -> int:
        return len(self.texts)

    def end_pass(self, outputs, tracer):
        """Work done once per pass after its operations; the result must
        repeat exactly from pass to pass."""
        return None

    def check_run(self, pass_result) -> list[str]:
        """Checks on the first pass's end_pass result."""
        return []

    def calibrate(self, tracer) -> None:
        """Traced runs only: spans for layer calls the operation makes
        only from inside another layer."""


class DiffTransition(Workload):
    """``modsat diff`` on the criterion-6 corpus, one instance per operation."""

    name = "diff-transition"
    keeps_outputs = True
    num_vars = 12
    num_instances = 500
    extra_clauses = 4

    def generate(self):
        return [harness.contradiction_2cnf()] + super().generate()

    def file_names(self):
        return ["contradiction_2cnf.cnf"] + [
            f"k3_n12_i{i:03d}.cnf" for i in range(len(self.seeds))
        ]

    def load(self, tracer, clauses):
        with tracer.span("harness.load_corpus"):
            self.corpus = harness.load_corpus(self.workdir / "corpus")
        if tracer.enabled:  # modsat diff parses inside load_corpus
            with tracer.span("cnf.parse_dimacs", clauses):
                for text in self.texts:
                    cnf.parse_dimacs(text)

    def prepare(self):
        super().prepare()
        self.config = harness.diff_run([]).config
        self.sat = [
            checks.exhaustive_sat(f.num_vars, cl)
            for (_, f), cl in zip(self.corpus, self.clauses)
        ]

    def run_op(self, i):
        return harness.diff_run([self.corpus[i]]).records[0]

    def digest(self, record):
        return tuple(sorted(record.to_dict().items()))

    def end_pass(self, records, tracer):
        if None in records:
            return None
        with tracer.span("harness.report"):
            report = harness.DiffReport(self.config, tuple(records))
            canonical = report.to_canonical_json()
            table = report.to_csv()
            (self.workdir / "report.json").write_text(canonical, encoding="utf-8")
            (self.workdir / "report.csv").write_text(table, encoding="utf-8")
        return canonical, table

    def check(self, i, record):
        f = self.corpus[i][1]
        return checks.check_diff_record(
            record.to_dict(), f.num_vars, self.clauses[i], self.sat[i]
        )

    def check_run(self, pass_result):
        if pass_result is None:
            return ["no report was built"]
        problems = []
        agreement = json.loads(pass_result[0])["aggregates"]["claim_oracle_agreement"]
        if agreement != sum(self.sat) / len(self.sat):
            problems.append(f"claim/oracle agreement {agreement} != share of sat instances")
        if harness.diff_run(self.corpus).to_canonical_json() != pass_result[0]:
            problems.append("per-instance reports differ from one diff_run over the corpus")
        return problems

    def traced_op(self, i, record, tracer):
        """The instance composed from public calls in diff_run's order."""
        f = self.corpus[i][1]
        with tracer.span("relax.build_relaxation"):
            system = relax.build_relaxation(f)
        with tracer.span("simplex.solve"):
            sol = simplex.solve(system)
        claim, verified, probe = pipeline.UNSAT_CLAIM, None, (False,) * f.num_vars
        if sol.status != simplex.INFEASIBLE:
            claim = pipeline.SAT_CLAIM
            with tracer.span("pipeline.round_assignment"):
                probe, _ = pipeline.round_assignment(sol.point, 2)
            with tracer.span("oracle.verify"):
                verified = oracle.verify(f, probe)
        with tracer.span("oracle.dpll_sat"):
            verdict = oracle.dpll_sat(f, node_budget=oracle.DEFAULT_NODE_BUDGET)
        with tracer.span("foldeval.fold_eval"):
            fold = foldeval.fold_eval(f, probe)
        composed = {
            "category": harness.classify(claim, verified, verdict.status),
            "lp_pivots": sol.pivot_steps,
            "oracle_nodes": verdict.nodes_explored,
            "fold_additions": fold.ops.additions,
        }
        problems = [
            f"composed {key} {value!r} != diff_run's {getattr(record, key)!r}"
            for key, value in composed.items()
            if getattr(record, key) != value
        ]
        counts = _lp_counts(system, sol)
        counts["pipeline.steps"] = record.pipeline_steps
        counts["oracle.nodes"] = record.oracle_nodes
        counts["foldeval.additions"] = record.fold_additions
        return problems, counts

    def calibrate(self, tracer):
        for _, f in self.corpus:
            with tracer.span("cnf.evaluate"):
                cnf.evaluate(f, (True,) * f.num_vars)
            with tracer.span("mvlogic.clause_join_table"):
                mvlogic.clause_join_table(WIDTH).values()


class LpPivot(Workload):
    """``modsat lp --negation affine --bound k-1 --objective max-sum``."""

    name = "lp-pivot"
    num_vars = 5
    num_instances = 200

    def system(self, i):
        f = self.formulas[i]
        system = relax.build_relaxation(f, relax.AFFINE, relax.BOUND_K_MINUS_1)
        return replace(system, objective=(1,) * f.num_vars)

    def run_op(self, i):
        return simplex.solve(self.system(i))

    def digest(self, sol):
        return (sol.status, sol.point, sol.objective_value, sol.pivot_steps)

    def check(self, i, sol):
        if sol.status != simplex.FEASIBLE:
            return [f"status {sol.status}"]
        floating = simplex.solve(self.system(i), exact=False)
        return checks.check_lp_point(
            self.num_vars, self.clauses[i], sol.point, sol.objective_value,
            floating.objective_value,
        )

    def traced_op(self, i, sol, tracer):
        f = self.formulas[i]
        with tracer.span("relax.build_relaxation"):
            system = relax.build_relaxation(f, relax.AFFINE, relax.BOUND_K_MINUS_1)
        system = replace(system, objective=(1,) * f.num_vars)
        with tracer.span("simplex.solve"):
            again = simplex.solve(system)
        problems = [] if self.digest(again) == self.digest(sol) else ["solves differ"]
        return problems, _lp_counts(system, again)


class DpllHard(Workload):
    """``modsat oracle --method dpll`` on a fixed sat/unsat mix.

    Instances are drawn in seed order and kept until the mix is filled;
    the benchmark's own search decides which side each falls on, before
    set-up and outside every timed region.
    """

    name = "dpll-hard"
    num_vars = 24
    num_instances = 400
    unsat_share = 0.6

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        m = round(RATIO * self.num_vars)
        want_unsat = round(self.unsat_share * self.num_instances)
        quota = {True: self.num_instances - want_unsat, False: want_unsat}
        self.workdir = workdir
        self.seeds, self.own = [], []
        while len(self.seeds) < self.num_instances:
            s = rng.randrange(2**32)
            f = cnf.random_kcnf(self.num_vars, m, WIDTH, s)
            witness = checks.search_sat(f.num_vars, checks.clauses_of(cnf.write_dimacs(f)))
            sat = witness is not None
            if quota[sat]:
                quota[sat] -= 1
                self.seeds.append(s)
                self.own.append(witness)

    def run_op(self, i):
        return oracle.dpll_sat(self.formulas[i])

    def digest(self, verdict):
        return (verdict.status, verdict.witness, verdict.nodes_explored)

    def check(self, i, verdict):
        return checks.check_dpll_verdict(
            verdict.status, verdict.witness, self.clauses[i], self.own[i]
        )

    def traced_op(self, i, verdict, tracer):
        with tracer.span("oracle.dpll_sat"):
            again = oracle.dpll_sat(self.formulas[i])
        problems = [] if self.digest(again) == self.digest(verdict) else ["searches differ"]
        return problems, {"oracle.nodes": again.nodes_explored}


class SolveLarge(Workload):
    """``modsat solve`` then ``modsat eval`` of the candidate, one file each."""

    name = "solve-large"
    num_vars = 160
    num_instances = 100

    def load(self, tracer, clauses):
        """The operation parses; set-up only reads the files."""

    def run_op(self, i):
        f = cnf.parse_dimacs(self.texts[i])
        result = pipeline.run(f)
        return f, result, cnf.evaluate(f, result.rounded), foldeval.fold_eval(f, result.rounded)

    def digest(self, out):
        f, result, evaluated, fold = out
        return (result.claimed_status, result.rounded, result.steps,
                result.lp.pivot_steps, result.lp.point, evaluated, fold)

    def check(self, i, out):
        f, result, evaluated, fold = out
        problems = checks.check_solve(
            self.num_vars, self.clauses[i], result.claimed_status, result.rounded,
            result.steps, result.lp.pivot_steps, evaluated, fold.value,
            fold.ops.additions, len(relax.build_relaxation(f).constraints),
        )
        if cnf.write_dimacs(f) != self.texts[i] or cnf.parse_dimacs(cnf.write_dimacs(f)) != f:
            problems.append("parse_dimacs(write_dimacs(f)) != f")
        return problems

    def traced_op(self, i, out, tracer):
        text = self.texts[i]
        with tracer.span("cnf.parse_dimacs", out[0].num_clauses):
            f = cnf.parse_dimacs(text)
        with tracer.span("relax.build_relaxation"):
            system = relax.build_relaxation(f)
        with tracer.span("simplex.solve"):
            sol = simplex.solve(system)
        with tracer.span("pipeline.round_assignment"):
            rounded, _ = pipeline.round_assignment(sol.point, 2)
        with tracer.span("cnf.evaluate"):
            evaluated = cnf.evaluate(f, rounded)
        with tracer.span("foldeval.fold_eval"):
            fold = foldeval.fold_eval(f, rounded)
        _, result, want_evaluated, want_fold = out
        problems = []
        if (f, sol.point, rounded) != (out[0], result.lp.point, result.rounded):
            problems.append("composed pipeline differs from pipeline.run")
        if (evaluated, fold) != (want_evaluated, want_fold):
            problems.append("composed evaluation differs")
        counts = _lp_counts(system, sol)
        counts["pipeline.steps"] = result.steps
        counts["foldeval.additions"] = fold.ops.additions
        return problems, counts

    def calibrate(self, tracer):
        for _ in range(self.num_ops):
            with tracer.span("mvlogic.clause_join_table"):
                mvlogic.clause_join_table(WIDTH).values()


WORKLOADS = {w.name: w for w in (DiffTransition, LpPivot, DpllHard, SolveLarge)}
