"""Command line interface.

Subcommands: tables, gen, eval, lp, solve, oracle, diff, bench.  Exit code
is 0 when the command completes.  Any failure, from malformed input to an
exception no layer anticipated, prints one ``error: ...`` line on stderr
and exits 1; bad flags exit 2 with argparse's usage message.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import harness, oracle, pipeline, relax, simplex
from .cnf import evaluate, parse_dimacs
from .errors import BudgetExceededError, check_int
from .foldeval import fold_eval
from .mvlogic import (
    DEFAULT_TABLE_BUDGET,
    enumerate_binary,
    enumerate_unary,
    format_binary_block,
    format_unary_block,
)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is unset."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _exact(x) -> str:
    """JSON form of an exact number: ``Fraction`` values print as ``"1/2"``."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _print_json(data, out: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True, default=_exact) + "\n", out)


def _load_formula(path: str):
    return parse_dimacs(Path(path).read_bytes())


def _parse_assignment(text: str) -> tuple[bool, ...]:
    if set(text) - {"0", "1"}:
        raise ValueError(f"assignment must be 0/1 characters, got {text!r}")
    return tuple(ch == "1" for ch in text)


def _assignment_str(values) -> str | None:
    return None if values is None else "".join("1" if v else "0" for v in values)


def _comma_list(text: str, flag: str, noun: str, convert) -> list:
    """The items of ``flag``'s comma-separated value, each converted."""
    items = text.split(",")
    if not any(items):
        raise ValueError(f"{flag} must list at least one {noun}")
    if "" in items:
        raise ValueError(f"{flag} has an empty item in {text!r}")
    values = []
    for item in items:
        try:
            values.append(convert(item))
        except ValueError:
            raise ValueError(f"{flag} has a bad item {item!r} in {text!r}") from None
    return values


def _config_from_args(args) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        negation_mode=args.negation,
        bound_mode=args.bound,
        rounding_base=2 if args.round_base == "2" else pipeline.ROUND_BASE_WIDTH,
        objective=(
            pipeline.OBJECTIVE_MAX_SUM
            if args.objective == "max-sum"
            else pipeline.OBJECTIVE_NONE
        ),
    )


def _add_config_flags(parser: argparse.ArgumentParser, rounds: bool = True) -> None:
    parser.add_argument(
        "--negation", choices=relax.NEGATION_MODES,
        default=relax.FAITHFUL, help="treatment of negated literals",
    )
    parser.add_argument(
        "--bound", choices=relax.BOUND_MODES,
        default=relax.BOUND_K, help="per-clause bound",
    )
    if rounds:
        parser.add_argument(
            "--round-base", choices=["2", "k"], default="2",
            help="modulus used when rounding LP coordinates",
        )
    parser.add_argument(
        "--objective", choices=["none", "max-sum"], default="none",
        help="LP objective (max-sum maximizes the coordinate sum)",
    )


def cmd_tables(args) -> int:
    blocks = []
    if args.family in ("unary", "both"):
        for t in enumerate_unary(args.arity, args.budget):
            blocks.append(format_unary_block(t))
    if args.family in ("binary", "both"):
        for t in enumerate_binary(args.arity, args.budget):
            blocks.append(format_binary_block(t))
    _emit("\n".join(blocks), args.out)
    return 0


def cmd_gen(args) -> int:
    ratios = None
    if args.ratios is not None:
        ratios = _comma_list(args.ratios, "--ratios", "ratio", float)
    paths = harness.gen_corpus(
        args.out,
        num_vars=args.vars,
        width=args.width,
        count=args.count,
        seed=args.seed,
        num_clauses=args.clauses,
        ratios=ratios,
    )
    print(f"wrote {len(paths)} instances to {args.out}")
    return 0


def cmd_eval(args) -> int:
    formula = _load_formula(args.file)
    assignment = _parse_assignment(args.assignment)
    result = fold_eval(formula, assignment)
    reference = evaluate(formula, assignment)
    _print_json(
        {
            "fold_value": result.value,
            "fold_claims_true": result.value == 0,
            "reference_true": reference,
            "diverges": (result.value == 0) != reference,
            "ops": asdict(result.ops),
        },
        args.out,
    )
    return 0


def _system_text(system: simplex.LpSystem, sol: simplex.LpSolution) -> str:
    lines = [f"vars: {system.num_vars}"]
    for i, con in enumerate(system.constraints):
        terms = " + ".join(
            f"{coeff}*X{var + 1}" for var, coeff in con.coefficients.items()
        )
        if not terms:
            terms = "0"
        note = f"  (offset {con.offset})" if con.offset else ""
        lines.append(f"c{i}: {terms} <= {con.bound}{note}")
    if system.objective is not None:
        obj = " + ".join(
            f"{c}*X{j + 1}" for j, c in enumerate(system.objective) if c != 0
        )
        lines.append(f"objective: maximize {obj or '0'}")
    lines.append(f"status: {sol.status}")
    if sol.point is not None:
        lines.append("point: " + ", ".join(str(x) for x in sol.point))
    if sol.objective_value is not None:
        lines.append(f"objective_value: {sol.objective_value}")
    lines.append(f"pivot_steps: {sol.pivot_steps}")
    if sol.infeasibility is not None:
        lines.append(f"infeasibility: {sol.infeasibility}")
    return "\n".join(lines) + "\n"


def cmd_lp(args) -> int:
    formula = _load_formula(args.file)
    system = pipeline.build_system(formula, _config_from_args(args))
    sol = simplex.solve(system)
    if args.format == "text":
        _emit(_system_text(system, sol), args.out)
        return 0
    data = {
        "system": {
            "num_vars": system.num_vars,
            "constraints": [
                {
                    "coefficients": {
                        str(var + 1): c for var, c in con.coefficients.items()
                    },
                    "bound": con.bound,
                    "offset": con.offset,
                }
                for con in system.constraints
            ],
            "objective": system.objective,
        },
        "solution": asdict(sol),
    }
    _print_json(data, args.out)
    return 0


def cmd_solve(args) -> int:
    formula = _load_formula(args.file)
    config = _config_from_args(args)
    result = pipeline.run(formula, config)
    data = asdict(result)
    data["assignment"] = _assignment_str(data.pop("rounded"))
    _print_json(data, args.out)
    return 0


def cmd_oracle(args) -> int:
    formula = _load_formula(args.file)
    check_int(args.budget, "node budget", 0)  # for brute force too, which takes none
    try:
        if args.method == "brute":
            verdict = oracle.brute_force_sat(formula)
        else:
            verdict = oracle.dpll_sat(formula, node_budget=args.budget)
    except BudgetExceededError as exc:
        data = {"status": harness.BUDGET_EXCEEDED, "detail": str(exc)}
    else:
        oracle.check_witness(formula, verdict, args.method)
        data = asdict(verdict)
        data["witness"] = _assignment_str(verdict.witness)
    _print_json(data, args.out)
    return 0


def cmd_diff(args) -> int:
    corpus = harness.load_corpus(args.corpus)
    if not corpus:
        raise ValueError(f"no .cnf files found in {args.corpus}")
    config = _config_from_args(args)
    report = harness.diff_run(corpus, config, oracle_budget=args.oracle_budget)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        report.to_canonical_json(), encoding="utf-8"
    )
    written = ["report.json"]
    if args.format == "csv":
        (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
        written.append("report.csv")
    agg = report.aggregates()
    print(f"instances: {agg['total']}")
    for cat, count in agg["counts"].items():
        if count:
            print(f"  {cat}: {count}")
    agreement = agg["claim_oracle_agreement"]
    if agreement is not None:
        print(f"claim/oracle agreement: {agreement:.3f}")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def cmd_bench(args) -> int:
    sizes = _comma_list(args.sizes, "--sizes", "size", int)
    report = harness.bench_eval(args.width, sizes, args.seed)
    _print_json(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modsat",
        description=(
            "Modular-logic truth tables, an LP relaxation pipeline for "
            "k-SAT, exact oracles, and a differential harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="dump enumerated truth tables")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--family", choices=["unary", "binary", "both"], default="both")
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("gen", help="generate a random uniform-width corpus")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--clauses", type=int)
    group.add_argument("--ratios", help="comma-separated clause/var ratios")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="fold-evaluate a formula on an assignment")
    p.add_argument("file")
    p.add_argument(
        "--assignment", required=True,
        help="one 0/1 character per variable, 1 meaning true",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lp", help="build and solve the clause relaxation")
    p.add_argument("file")
    _add_config_flags(p, rounds=False)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lp, round_base="2")  # lp never rounds

    p = sub.add_parser("solve", help="run the LP-and-round pipeline")
    p.add_argument("file")
    _add_config_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact satisfiability verdict")
    p.add_argument("file")
    p.add_argument("--method", choices=["dpll", "brute"], default="dpll")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_NODE_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("diff", help="differential run over a corpus directory")
    p.add_argument("corpus")
    _add_config_flags(p)
    p.add_argument(
        "--oracle-budget", type=int, default=oracle.DEFAULT_NODE_BUDGET
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default="diff-out", help="report directory")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("bench", help="fold evaluation scaling benchmark")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated clause counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # every failure is one line, never a traceback
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
