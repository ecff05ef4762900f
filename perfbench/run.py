"""Seeded, layered benchmark of modsat.

Run from the repository root:

    python3 perfbench/run.py --workload diff-transition --seed 1 --seconds 20 --trace 0

One process runs one workload, single-threaded.  Set-up (imports, then
generating, writing and reading back the inputs) is repeated between passes
and its median reported.  The timed part is a whole number of passes over
the workload's fixed list of operations: passes start until ``--seconds``
have gone into them, and none is cut short.  Every operation is followed
by the fixed routine in ``reference``, and times are reported in its
units (see there).  The first pass checks every output; later passes must
reproduce it.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics, from spans around each layer call, with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import reference
from spans import NullTracer, Tracer, span_cost_ns

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Every per-layer metric, with its unit.  A traced run reports each one; a
# layer the workload never calls reads 0.
LAYER_UNITS = {
    "cnf.gen_us_per_clause": "us",
    "cnf.write_us_per_clause": "us",
    "cnf.parse_us_per_clause": "us",
    "cnf.evaluate_us": "us",
    "mvlogic.join_table_us": "us",
    "foldeval.fold_us": "us",
    "foldeval.additions": "count",
    "relax.build_ms": "ms",
    "relax.rows": "count",
    "simplex.solve_ms": "ms",
    "simplex.tableau_cells": "count",
    "simplex.pivots": "count",
    "simplex.ms_per_pivot": "ms",
    "simplex.point_bits": "bits",
    "pipeline.round_us": "us",
    "pipeline.steps": "count",
    "oracle.dpll_ms": "ms",
    "oracle.nodes": "count",
    "oracle.us_per_node": "us",
    "oracle.verify_us": "us",
    "harness.load_corpus_ms": "ms",
    "harness.report_ms": "ms",
    "harness.self_ms": "ms",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}
# Per-layer median span times: metric -> (span name, ns per unit).
SPAN_TIMES = {
    "cnf.evaluate_us": ("cnf.evaluate", 1e3),
    "mvlogic.join_table_us": ("mvlogic.clause_join_table", 1e3),
    "foldeval.fold_us": ("foldeval.fold_eval", 1e3),
    "relax.build_ms": ("relax.build_relaxation", 1e6),
    "simplex.solve_ms": ("simplex.solve", 1e6),
    "pipeline.round_us": ("pipeline.round_assignment", 1e3),
    "oracle.dpll_ms": ("oracle.dpll_sat", 1e6),
    "oracle.verify_us": ("oracle.verify", 1e3),
    "harness.load_corpus_ms": ("harness.load_corpus", 1e6),
    "harness.report_ms": ("harness.report", 1e6),
}


class Passes:
    """Timings and failures of whole passes over a workload's operations."""

    def __init__(self, num_ops: int):
        self.num_ops = num_ops
        self.count = 0
        # (raw ns, reference ns) of each op in every pass, and of the
        # end-of-pass work; untraced runs only
        self.times: list = [[] for _ in range(num_ops)]
        self.end_times: list = []
        self.failed = 0
        self.bad: set[int] = set()  # ops whose first output failed a check
        self.run_failed = False  # a check on a whole pass failed
        self.wrong = False  # some output failed a check
        self.problems: list[str] = []

    def reference_ns(self) -> float:
        """The reference routine's median time over the whole run."""
        return statistics.median(ref for s in self.times for _, ref in s)

    def scaled_ns(self) -> tuple[list, float]:
        """Each op's median time over the passes, in reference ns, and the
        same for the end-of-pass work."""
        def scaled(samples):
            return statistics.median(raw * reference.REFERENCE_NS / ref for raw, ref in samples)

        return [scaled(s) for s in self.times if s], scaled(self.end_times)

    def wrong_output(self, problem: str) -> None:
        self.wrong = True
        self.problems.append(problem)

    def attempted_failed(self) -> tuple[int, int]:
        attempted = self.num_ops * self.count
        return attempted, attempted if self.run_failed else self.failed


def _add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        old = total.get(key, 0)
        total[key] = max(old, value) if key == "simplex.point_bits" else old + value


def run_passes(workload, seconds: float, tracer, traced: bool, between=None):
    """Whole passes over every operation until ``seconds`` have gone into
    them.

    The first pass checks each output as soon as it is timed; later passes
    must reproduce the first pass's outputs exactly.  ``between`` runs after
    each pass, outside the pass time.
    """
    n = workload.num_ops
    passes = Passes(n)
    first_digests: list = [None] * n
    first_result = None
    layer = {"untraced_ns": [], "spans": [], "counts": None}
    busy = 0.0
    while True:
        pass_start = time.perf_counter()
        first = passes.count == 0
        failed: set[int] = set()
        outputs: list = []
        pass_counts: dict = {}
        for i in range(n):
            t0 = time.perf_counter_ns()
            try:
                out = workload.run_op(i)
            except Exception as exc:  # an operation that raises is a failure
                elapsed = None
                failed.add(i)
                passes.problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                out = None
            else:
                elapsed = time.perf_counter_ns() - t0
                if not traced:
                    passes.times[i].append((elapsed, reference.time_ns()))
            if workload.keeps_outputs:
                outputs.append(out)
            if out is None:
                continue
            digest = workload.digest(out)
            if first:
                first_digests[i] = digest
                for problem in workload.check(i, out):
                    passes.bad.add(i)
                    passes.wrong_output(f"op {i}: {problem}")
            elif digest != first_digests[i]:
                failed.add(i)
                passes.wrong_output(f"op {i}: output changed between passes")
            if traced:
                tracer.op = i
                with tracer.span("op") as index:
                    problems, counts = workload.traced_op(i, out, tracer)
                tracer.op = None
                layer["untraced_ns"].append(elapsed)
                layer["spans"].append(index)
                _add_counts(pass_counts, counts)
                for problem in problems:
                    failed.add(i)
                    passes.wrong_output(f"op {i}: {problem}")
        t0 = time.perf_counter_ns()
        result = workload.end_pass(outputs, tracer)
        end_ns = time.perf_counter_ns() - t0
        if not traced:
            passes.end_times.append((end_ns, reference.time_ns()))
        if first:
            first_result = result
            for problem in workload.check_run(result):
                passes.run_failed = True
                passes.wrong_output(problem)
        elif result != first_result:
            failed = set(range(n))
            passes.wrong_output("end-of-pass result changed between passes")
        if traced:
            if layer["counts"] is None:
                layer["counts"] = pass_counts
            elif pass_counts != layer["counts"]:
                failed = set(range(n))
                passes.wrong_output("layer counts changed between passes")
        passes.count += 1
        passes.failed += len(failed | passes.bad)
        busy += time.perf_counter() - pass_start
        if busy >= seconds:
            return passes, layer
        if between is not None:
            between()


def end_to_end(setup_s: float, passes: Passes) -> dict:
    """Each operation's time is the median over the passes of its raw time
    scaled by the reference routine's time right after it; ``setup_s`` is
    scaled by the reference's median over the run."""
    op_ns, end_ns = passes.scaled_ns()
    # set-up runs between passes, too long to scale by one reference run
    setup_s *= reference.REFERENCE_NS / passes.reference_ns()
    ms = [t / 1e6 for t in op_ns]
    pass_s = (sum(op_ns) + end_ns) / 1e9
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / pass_s, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def per_layer(workload, tracer, layer) -> dict:
    workload.calibrate(tracer)
    values = dict.fromkeys(LAYER_UNITS, 0)
    values.update(layer["counts"] or {})
    for metric, (span, scale) in SPAN_TIMES.items():
        values[metric] = tracer.median_ns(span) / scale
    values["cnf.gen_us_per_clause"] = tracer.us_per_clause("cnf.random_kcnf")
    values["cnf.write_us_per_clause"] = tracer.us_per_clause("cnf.write_dimacs")
    values["cnf.parse_us_per_clause"] = tracer.us_per_clause("cnf.parse_dimacs")
    # counts are per pass; span times add up over every traced pass
    passes = len(layer["untraced_ns"]) // workload.num_ops
    if values["simplex.pivots"]:
        solve_ns = sum(tracer.durations_ns("simplex.solve")) / passes
        values["simplex.ms_per_pivot"] = solve_ns / 1e6 / values["simplex.pivots"]
    if values["oracle.nodes"]:
        dpll_ns = sum(tracer.durations_ns("oracle.dpll_sat")) / passes
        values["oracle.us_per_node"] = dpll_ns / 1e3 / values["oracle.nodes"]
    children = tracer.children()
    cost = span_cost_ns()
    coverage, overhead, self_ns = [], [], []
    for untraced, index in zip(layer["untraced_ns"], layer["spans"]):
        covered, count = children.get(index, (0, 0))
        coverage.append(covered / untraced)
        overhead.append((count + 1) * cost / untraced)
        self_ns.append(untraced - covered)
    values["trace.coverage_pct"] = 100 * statistics.median(coverage)
    values["trace.overhead_pct"] = 100 * statistics.median(overhead)
    if workload.name == "diff-transition":
        values["harness.self_ms"] = statistics.median(self_ns) / 1e6
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "modsat" / "__init__.py").is_file():
        print(f"error: no modsat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports modsat: part of set-up time

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer() if args.trace else NullTracer()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []

        def setup():
            if len(setup_times) < SETUP_REPEATS:
                t0 = time.perf_counter()
                workload.setup(tracer)
                setup_times.append(time.perf_counter() - t0)
                gc.collect()

        setup()
        workload.prepare()
        # The repeats rebuild identical inputs between passes, so that a
        # short slow spell of a shared host reaches few of them.
        passes, layer = run_passes(
            workload, args.seconds, tracer, bool(args.trace), between=setup
        )
        while len(setup_times) < SETUP_REPEATS:
            setup()
        if args.trace:
            metrics = per_layer(workload, tracer, layer)
            tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            setup_s = import_s + statistics.median(setup_times)
            metrics = end_to_end(setup_s, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = passes.attempted_failed()
    if not args.trace:
        raw_ms = statistics.median(raw for t in passes.times for raw, _ in t) / 1e6
        print(f"reference routine: median {passes.reference_ns() / 1e6:.3f} ms; "
              f"raw operation time: median {raw_ms:.3f} ms", file=sys.stderr)
    for problem in passes.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not passes.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
