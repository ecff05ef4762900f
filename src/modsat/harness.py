"""Differential harness: run the pipeline and an exact oracle side by side.

Every instance produces one record.  The record's category is a pure
function of (claim, candidate verified, oracle verdict):

* sat claim with a verifying candidate        -> sound_sat
* sat claim whose candidate fails             -> unsound_sat_claim
* unsat claim, oracle unsat                   -> sound_unsat
* unsat claim, oracle sat                     -> missed_sat
* unsat claim, oracle budget blown            -> oracle_budget_exceeded

Reports serialize to canonical JSON (sorted keys, no wall-clock times), so
identical corpus, config, and seeds give byte-identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from . import oracle, pipeline
from .cnf import (
    Formula,
    clause_of,
    evaluate,
    parse_dimacs,
    random_kcnf,
    require_uniform,
    write_dimacs,
)
from .errors import (
    BudgetExceededError,
    DimacsError,
    UnsupportedFormulaError,
    check_int,
)
from .foldeval import fold_eval, predicted_ops

CATEGORIES = (
    "sound_sat",
    "unsound_sat_claim",
    "sound_unsat",
    "missed_sat",
    "oracle_budget_exceeded",
)
ERROR_CATEGORY = "error"
BUDGET_EXCEEDED = "budget_exceeded"


def classify(claim: str, verified: bool | None, oracle_status: str) -> str:
    """Category of a record; total over the inputs the harness produces."""
    if claim == pipeline.SAT_CLAIM:
        return "sound_sat" if verified else "unsound_sat_claim"
    if claim == pipeline.UNSAT_CLAIM:
        if oracle_status == BUDGET_EXCEEDED:
            return "oracle_budget_exceeded"
        return "sound_unsat" if oracle_status == oracle.UNSAT else "missed_sat"
    raise ValueError(f"unknown claim {claim!r}")


@dataclass(frozen=True, kw_only=True)
class DiffRecord:
    """One instance's outcome.  The field order is the CSV column order."""

    instance_id: str
    category: str
    claim: str
    candidate_verified: bool | None = None
    oracle_status: str
    oracle_nodes: int | None = None
    num_vars: int
    num_clauses: int
    width: int | None
    lp_pivots: int = 0
    pipeline_steps: int = 0
    fold_additions: int | None = None
    anomaly_count: int = 0
    error: str | None = None

    def to_dict(self) -> dict:
        # With no __slots__ and nothing cached, the instance dict holds
        # exactly the fields, in field order.  A copy: never the live dict.
        return vars(self).copy()


_RECORD_FIELDS = tuple(f.name for f in fields(DiffRecord))


@dataclass(frozen=True)
class DiffReport:
    config: dict
    records: tuple[DiffRecord, ...]

    def aggregates(self) -> dict:
        counts = {cat: 0 for cat in CATEGORIES}
        counts[ERROR_CATEGORY] = 0
        agreements = 0
        comparable = 0
        for r in self.records:
            counts[r.category] += 1
            if r.category != ERROR_CATEGORY and r.oracle_status in (
                oracle.SAT,
                oracle.UNSAT,
            ):
                comparable += 1
                claimed_sat = r.claim == pipeline.SAT_CLAIM
                if claimed_sat == (r.oracle_status == oracle.SAT):
                    agreements += 1
        total = len(self.records)
        rates = {
            cat: (count / total if total else 0.0) for cat, count in counts.items()
        }
        return {
            "total": total,
            "counts": counts,
            "rates": rates,
            "claim_oracle_agreement": (
                agreements / comparable if comparable else None
            ),
        }

    def fits(self) -> dict:
        ok = [r for r in self.records if r.category != ERROR_CATEGORY]
        with_fold = [r for r in ok if r.fold_additions is not None]
        additions = fit_exponent(
            [r.num_clauses for r in with_fold],
            [r.fold_additions for r in with_fold],
        )
        steps = fit_exponent(
            [r.num_vars for r in ok], [r.pipeline_steps for r in ok]
        )
        return {
            "fold_additions_vs_clauses": additions,
            "pipeline_steps_vs_vars": steps,
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "aggregates": self.aggregates(),
            "fits": self.fits(),
        }

    def to_canonical_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)`` plus a
        newline.

        ``indent`` selects json's pure-Python encoder, so it encodes only the
        small head.  The records, whose key sorts last, go through json's C
        encoder in one call, with the line break and indent before each
        record key as its item separator.  Records are flat and an encoded
        string holds no raw line break, so a "}" before a line break ends a
        record, and only the record boundaries need laying out.
        """
        report = self.to_dict()
        records = json.dumps(
            report.pop("records"), sort_keys=True, separators=(",\n      ", ": ")
        )
        head = json.dumps(report, sort_keys=True, indent=2)
        if self.records:
            records = records[2:-2].replace(
                "},\n      {", "\n    },\n    {\n      "
            )
            records = f"[\n    {{\n      {records}\n    }}\n  ]"
        return f'{head[:-2]},\n  "records": {records}\n}}\n'

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_RECORD_FIELDS)
        # csv writes None as an empty field.
        writer.writerows(map(attrgetter(*_RECORD_FIELDS), self.records))
        return buf.getvalue()


def diff_run(
    instances: Iterable[tuple[str, Formula]],
    config: pipeline.PipelineConfig = pipeline.PipelineConfig(),
    oracle_budget: int = oracle.DEFAULT_NODE_BUDGET,
) -> DiffReport:
    """Run the pipeline and the DPLL oracle over a corpus, in corpus order.

    Instances must have uniform clause width >= 2, and the oracle budget
    must be an int >= 0; either is checked before any instance runs.
    Per-instance failures are captured in the record's error field; the
    batch never aborts.
    """
    check_int(oracle_budget, "node budget", 0)
    instances = tuple(instances)
    for instance_id, formula in instances:
        try:
            require_uniform(formula, 2)
        except UnsupportedFormulaError as exc:
            raise UnsupportedFormulaError(
                f"instance {instance_id!r}: {exc}"
            ) from None
    records = []
    for instance_id, formula in instances:
        records.append(_run_one(instance_id, formula, config, oracle_budget))
    config_echo = {**vars(config), "oracle_budget": oracle_budget}
    return DiffReport(config_echo, tuple(records))


def _run_one(
    instance_id: str,
    formula: Formula,
    config: pipeline.PipelineConfig,
    oracle_budget: int,
) -> DiffRecord:
    shared = dict(
        instance_id=instance_id,
        num_vars=formula.num_vars,
        num_clauses=formula.num_clauses,
        width=formula.uniform_width,
    )
    try:
        result = pipeline.run(formula, config)
        verified = None
        if result.rounded is not None:
            verified = evaluate(formula, result.rounded)
        try:
            verdict = oracle.dpll_sat(formula, node_budget=oracle_budget)
            oracle.check_witness(formula, verdict, "dpll")
            oracle_status = verdict.status
            oracle_nodes = verdict.nodes_explored
        except BudgetExceededError:
            oracle_status = BUDGET_EXCEEDED
            oracle_nodes = None
        probe = result.rounded or (False,) * formula.num_vars
        fold = fold_eval(formula, probe)
        return DiffRecord(
            **shared,
            category=classify(result.claimed_status, verified, oracle_status),
            claim=result.claimed_status,
            candidate_verified=verified,
            oracle_status=oracle_status,
            oracle_nodes=oracle_nodes,
            lp_pivots=result.lp.pivot_steps,
            pipeline_steps=result.steps,
            fold_additions=fold.ops.additions,
            anomaly_count=len(result.anomalies),
        )
    except Exception as exc:  # captured per record, batch goes on
        return DiffRecord(
            **shared,
            category=ERROR_CATEGORY,
            claim="error",
            oracle_status="error",
            error=f"{type(exc).__name__}: {exc}",
        )


def fit_exponent(xs: Sequence, ys: Sequence) -> float | None:
    """Least-squares slope of log y against log x.

    Pairs with a non-positive coordinate are dropped; returns None when
    fewer than two distinct x values remain.
    """
    pts = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len({x for x, _ in pts}) < 2:
        return None
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mean_x) ** 2 for x, _ in pts)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    return sxy / sxx


def bench_eval(width: int, sizes: Iterable[int], seed: int) -> dict:
    """Count fold evaluation's operations across clause counts at fixed width,
    over max(4 * width, 24) variables.

    Counts operations, not time, so the same arguments give the same dict:
    per-size counts, the exact-match flag against the shape-derived
    prediction, and the fitted log-log exponent of the additions.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("at least one size is required")
    nv = max(4 * width, 24)
    master = random.Random(seed)
    rows = []
    for m in sizes:
        fseed = master.randrange(2**32)
        formula = random_kcnf(nv, m, width, fseed)
        assignment = tuple(master.random() < 0.5 for _ in range(nv))
        result = fold_eval(formula, assignment)
        rows.append(
            {
                "clauses": m,
                **asdict(result.ops),
                "matches_prediction": result.ops == predicted_ops(formula),
            }
        )
    return {
        "width": width,
        "num_vars": nv,
        "seed": seed,
        "sizes": list(sizes),
        "rows": rows,
        "additions_exponent": fit_exponent(
            [r["clauses"] for r in rows], [r["additions"] for r in rows]
        ),
    }


def gen_corpus(
    out_dir: str | Path,
    num_vars: int,
    width: int,
    count: int,
    seed: int,
    num_clauses: int | None = None,
    ratios: Iterable[float] | None = None,
) -> list[Path]:
    """Write a deterministic corpus of DIMACS files.

    Exactly one of ``num_clauses`` (fixed size) or ``ratios`` (clause count
    round(ratio * num_vars) per ratio, ``count`` instances each) must be
    given.  The same arguments always produce byte-identical files.  Every
    formula is drawn before the directory is made, so arguments the
    generator refuses, a ``num_clauses`` that is not an int >= 1 (no corpus
    consumer takes a formula without clauses), an empty ``ratios``, two
    ratios that would share a file name and a ratio that is not a finite,
    positive int or float raise before any write.
    """
    if (num_clauses is None) == (ratios is None):
        raise ValueError("exactly one of num_clauses or ratios is required")
    check_int(count, "count", 1)
    if num_clauses is not None:
        check_int(num_clauses, "num_clauses", 1)
    if ratios is not None:
        ratios = tuple(ratios)
        if not ratios:
            raise ValueError("ratios must list at least one ratio")
        # Not errors.check_real: file names format a ratio with :g, which a
        # Fraction does not support on Python 3.11.
        if odd := [ratio for ratio in ratios if type(ratio) not in (int, float)]:
            raise TypeError(f"ratios must hold ints or floats, got {odd[0]!r}")
        if not all(0 < ratio < math.inf for ratio in ratios):
            raise ValueError(f"ratios must be finite and > 0, got {list(ratios)}")
        plan = [
            (f"k{width}_n{num_vars}_r{ratio:g}_i{i:03d}.cnf",
             max(1, round(ratio * num_vars)))
            for ratio in ratios
            for i in range(count)
        ]
    else:
        plan = [
            (f"k{width}_n{num_vars}_m{num_clauses}_i{i:03d}.cnf", num_clauses)
            for i in range(count)
        ]
    if len(dict(plan)) != len(plan):
        raise ValueError(f"ratios {list(ratios)} give two files the same name")
    master = random.Random(seed)
    formulas = [
        random_kcnf(num_vars, m, width, master.randrange(2**32)) for _, m in plan
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for (name, _), formula in zip(plan, formulas):
        path = out / name
        path.write_text(write_dimacs(formula), encoding="utf-8")
        paths.append(path)
    return paths


def load_corpus(corpus_dir: str | Path) -> list[tuple[str, Formula]]:
    """Parse every .cnf file in a directory, sorted by file name."""
    corpus = []
    for path in sorted(Path(corpus_dir).glob("*.cnf")):
        try:
            corpus.append((path.name, parse_dimacs(path.read_bytes())))
        except DimacsError as exc:  # keeps the parser's .line
            exc.args = (f"file {path.name!r}: {exc}",)
            raise
    return corpus


def contradiction_2cnf() -> Formula:
    """Smallest fully contradictory width-2 formula: all four polarity
    combinations over two variables."""
    return Formula(
        2,
        (
            clause_of(1, 2),
            clause_of(1, -2),
            clause_of(-1, 2),
            clause_of(-1, -2),
        ),
    )
