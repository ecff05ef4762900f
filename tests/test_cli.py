"""End-to-end CLI coverage via main(argv) with captured output."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modsat
from modsat import simplex
from modsat.cli import _print_json, build_parser, main
from modsat.cnf import parse_dimacs
from modsat.mvlogic import (
    enumerate_binary,
    enumerate_unary,
    format_binary_block,
    format_unary_block,
)


def write_cnf(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def contra_file(tmp_path):
    return write_cnf(
        tmp_path,
        "contra.cnf",
        "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n",
    )


@pytest.fixture
def simple_file(tmp_path):
    return write_cnf(tmp_path, "simple.cnf", "p cnf 2 1\n1 2 0\n")


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_tables_unary_arity_2(capsys):
    assert main(["tables", "--arity", "2", "--family", "unary"]) == 0
    out = capsys.readouterr().out
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 4
    assert blocks[0] == "unary n=2 idx=0,0\n0 1"
    assert "idx=1,1" in blocks[3]


@pytest.mark.parametrize("family", ["binary", "both"])
def test_tables_binary_and_both_families(capsys, family):
    assert main(["tables", "--arity", "2", "--family", family]) == 0
    blocks = [format_binary_block(t) for t in enumerate_binary(2)]
    if family == "both":
        blocks[:0] = [format_unary_block(t) for t in enumerate_unary(2)]
    assert capsys.readouterr().out == "\n".join(blocks)
    assert len(blocks) == (20 if family == "both" else 16)


def test_tables_budget_error(capsys):
    assert main(["tables", "--arity", "4", "--family", "binary"]) == 1
    assert "error:" in capsys.readouterr().err


def test_tables_refuses_a_negative_budget(capsys):
    assert main(["tables", "--arity", "2", "--budget", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table budget must be >= 0, got -1\n"


def test_gen_is_deterministic(tmp_path, capsys):
    argv = lambda sub: [
        "gen", "--vars", "6", "--width", "3", "--count", "2",
        "--seed", "42", "--clauses", "10", "--out", str(tmp_path / sub),
    ]
    assert main(argv("a")) == 0
    assert main(argv("b")) == 0
    files_a = sorted((tmp_path / "a").glob("*.cnf"))
    files_b = sorted((tmp_path / "b").glob("*.cnf"))
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()
    assert "wrote 2 instances" in capsys.readouterr().out


def test_gen_ratios_sets_clauses_per_variable(tmp_path, capsys):
    argv = [
        "gen", "--vars", "6", "--width", "3", "--count", "2",
        "--ratios", "3,4.5", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 4 instances to {tmp_path}\n"
    clauses = {
        p.name: parse_dimacs(p.read_bytes()).num_clauses
        for p in tmp_path.glob("*.cnf")
    }
    assert clauses == {
        "k3_n6_r3_i000.cnf": 18,
        "k3_n6_r3_i001.cnf": 18,
        "k3_n6_r4.5_i000.cnf": 27,
        "k3_n6_r4.5_i001.cnf": 27,
    }


@pytest.mark.parametrize("ratios", ["", ","])
def test_gen_names_an_empty_ratio_list(tmp_path, capsys, ratios):
    argv = ["gen", "--vars", "6", "--width", "3", "--ratios", ratios]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: --ratios must list at least one ratio\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ratios", ["3,,4", "3,4,", ",3"])
def test_gen_refuses_an_empty_ratio_item(tmp_path, capsys, ratios):
    argv = ["gen", "--vars", "6", "--width", "3", "--ratios", ratios]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: --ratios has an empty item in {ratios!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ratios, item", [("3,x", "x"), ("1e,4", "1e")])
def test_gen_names_a_bad_ratio_item(tmp_path, capsys, ratios, item):
    argv = ["gen", "--vars", "6", "--width", "3", "--ratios", ratios]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: --ratios has a bad item {item!r} in {ratios!r}\n"
    )
    assert not (tmp_path / "out").exists()


def test_eval_reports_divergence(tmp_path, capsys):
    # Each clause half true: reference true, fold false.
    path = write_cnf(tmp_path, "div.cnf", "p cnf 2 2\n1 -2 0\n-1 2 0\n")
    data = run_json(capsys, ["eval", path, "--assignment", "11"])
    assert data == {
        "fold_value": 1,
        "fold_claims_true": False,
        "reference_true": True,
        "diverges": True,
        "ops": {"additions": 4, "table_calls": 1, "negations": 2},
    }


def test_eval_rejects_bad_assignment(simple_file, capsys):
    assert main(["eval", simple_file, "--assignment", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_assignment_characters_other_than_0_and_1(simple_file, capsys):
    assert main(["eval", simple_file, "--assignment", "012"]) == 1
    assert capsys.readouterr().err == (
        "error: assignment must be 0/1 characters, got '012'\n"
    )


def test_lp_json_shape(contra_file, capsys):
    data = run_json(
        capsys, ["lp", contra_file, "--negation", "affine", "--bound", "k-1"]
    )
    assert data["system"]["num_vars"] == 2
    assert len(data["system"]["constraints"]) == 4 + 2  # clause rows + boxes
    assert data["system"]["constraints"][0] == {
        "coefficients": {"1": 1, "2": 1},
        "bound": 1,
        "offset": 0,
    }
    assert data["solution"]["status"] == "feasible"
    assert data["solution"]["point"] == ["1/2", "1/2"]


def test_lp_json_lists_the_objective(contra_file, capsys):
    data = run_json(capsys, ["lp", contra_file, "--objective", "max-sum"])
    assert data["system"]["objective"] == [1, 1]
    assert data["solution"]["objective_value"] == "2"


def test_print_json_refuses_what_is_not_an_exact_number(capsys):
    # Only a Fraction gets a string form; any other object json cannot
    # encode is refused, not printed as its str().
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        _print_json({"point": {1}}, None)
    assert capsys.readouterr().out == ""


def test_lp_text_format(simple_file, capsys):
    assert main(["lp", simple_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("vars: 2\n")
    assert "c0: 1*X1 + 1*X2 <= 2" in out
    assert "status: feasible" in out


def test_lp_text_shows_offsets_and_the_objective(tmp_path, capsys):
    # 1 v -1 is a tautology: affine mode folds it to the constant row 0 <= 1.
    path = write_cnf(tmp_path, "taut.cnf", "p cnf 2 2\n1 -1 0\n1 2 0\n")
    argv = ["lp", path, "--format", "text", "--negation", "affine"]
    assert main(argv + ["--objective", "max-sum"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "c0: 0 <= 1  (offset 1)"
    assert "objective: maximize 1*X1 + 1*X2" in lines
    assert lines[-2:] == ["objective_value: 2", "pivot_steps: 2"]


def test_lp_text_reports_infeasibility(tmp_path, capsys):
    path = write_cnf(tmp_path, "unit.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    argv = ["lp", path, "--negation", "affine", "--bound", "k-1"]
    data = run_json(capsys, argv)
    assert data["solution"]["infeasibility"] == "1"
    assert main(argv + ["--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "status: infeasible\n" in out
    assert out.endswith("infeasibility: 1\n")


def test_solve_faithful_contradiction(contra_file, capsys):
    data = run_json(capsys, ["solve", contra_file])
    assert data["claimed_status"] == "sat_claim"
    assert data["assignment"] == "11"  # rounded zeros decode to true
    assert data["anomalies"] == []
    assert data["lp"]["status"] == "feasible"
    assert data["steps"] > 0


def test_solve_affine_contradiction(contra_file, capsys):
    data = run_json(
        capsys,
        ["solve", contra_file, "--negation", "affine", "--bound", "k-1"],
    )
    assert data["claimed_status"] == "sat_claim"
    assert data["lp"]["point"] == ["1/2", "1/2"]
    assert data["assignment"] == "11"


def test_solve_max_sum_objective(simple_file, capsys):
    data = run_json(
        capsys,
        ["solve", simple_file, "--negation", "affine", "--objective", "max-sum"],
    )
    # Exact values serialize as strings, floats as numbers.
    assert data["lp"]["objective_value"] == "2"
    assert data["assignment"] == "00"  # coordinates at 1 round to false


def test_solve_reports_anomalies(tmp_path, capsys):
    # Under k-1 max-sum X1 and X3 reach 2, and 2 mod k = 3 is neither 0 nor
    # 1: an anomaly, decoded to false.
    path = write_cnf(tmp_path, "a.cnf", "p cnf 4 2\n-4 2 -1 0\n3 2 4 0\n")
    argv = ["solve", path, "--bound", "k-1", "--round-base", "k"]
    data = run_json(capsys, argv + ["--objective", "max-sum"])
    assert data["anomalies"] == [
        {"raw": "2", "rounded": 2, "var": 1},
        {"raw": "2", "rounded": 2, "var": 3},
    ]
    assert data["assignment"] == "0101"
    assert data["lp"]["pivot_steps"] == 2


def test_oracle_dpll_and_brute(contra_file, simple_file, capsys):
    data = run_json(capsys, ["oracle", contra_file])
    assert data["status"] == "unsat"
    assert data["witness"] is None
    data = run_json(capsys, ["oracle", simple_file, "--method", "brute"])
    assert data["status"] == "sat"
    assert data["witness"] == "10"
    assert data["nodes_explored"] == 2


@pytest.mark.parametrize("method, target", [
    ("dpll", "modsat.oracle.dpll_sat"),
    ("brute", "modsat.oracle.brute_force_sat"),
])
def test_oracle_failing_witness_is_one_error_line(
    contra_file, capsys, monkeypatch, method, target
):
    from modsat.oracle import SAT, OracleVerdict

    monkeypatch.setattr(
        target, lambda formula, **_: OracleVerdict(SAT, (True, True), 1)
    )
    assert main(["oracle", contra_file, "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {method} oracle gave a sat witness that does not satisfy "
        "the formula\n"
    )


def test_oracle_budget_exit_zero(tmp_path, capsys):
    from modsat.cnf import random_kcnf, write_dimacs

    path = write_cnf(
        tmp_path, "big.cnf", write_dimacs(random_kcnf(40, 170, 3, seed=3))
    )
    data = run_json(capsys, ["oracle", path, "--budget", "3"])
    assert data["status"] == "budget_exceeded"


def test_negative_budgets_are_one_error_line(contra_file, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_cnf(corpus, "contra.cnf", Path(contra_file).read_text())
    out = tmp_path / "report"
    for argv in (
        ["oracle", contra_file, "--budget", "-1"],
        ["diff", str(corpus), "--oracle-budget", "-1", "--out", str(out)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node budget must be >= 0, got -1\n"
    assert not out.exists()


def test_brute_force_oracle_refuses_a_negative_budget(contra_file, capsys):
    # Brute force takes no budget, but refuses a bad one as DPLL does.
    assert main(["oracle", contra_file, "--method", "brute", "--budget", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node budget must be >= 0, got -1\n"


def test_gen_refuses_zero_clauses(tmp_path, capsys):
    argv = ["gen", "--vars", "3", "--width", "3", "--clauses", "0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: num_clauses must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


def test_oracle_deep_formula(tmp_path, capsys):
    # 1,200 disjoint pairs (a or b)(not a or not b): a search 1,200 levels
    # deep, which once overflowed the interpreter stack.
    lines = [f"{a} {a + 1} 0\n{-a} {-a - 1} 0" for a in range(1, 2401, 2)]
    text = "p cnf 2400 2400\n" + "\n".join(lines) + "\n"
    path = write_cnf(tmp_path, "pairs.cnf", text)
    data = run_json(capsys, ["oracle", path])
    assert data["status"] == "sat"
    assert data["witness"] == "01" * 1200
    assert data["nodes_explored"] == 1201


def test_diff_end_to_end(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main([
        "gen", "--vars", "6", "--width", "3", "--count", "4",
        "--seed", "7", "--clauses", "20", "--out", str(corpus),
    ]) == 0
    out_dir = tmp_path / "report"
    assert main([
        "diff", str(corpus), "--format", "csv", "--out", str(out_dir),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "instances: 4" in stdout
    report = json.loads((out_dir / "report.json").read_text())
    assert report["aggregates"]["total"] == 4
    assert len(report["records"]) == 4
    csv_lines = (out_dir / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 5

    # Identical corpus and flags must give byte-identical reports.
    out2 = tmp_path / "report2"
    assert main(["diff", str(corpus), "--out", str(out2)]) == 0
    assert (out2 / "report.json").read_bytes() == (
        out_dir / "report.json"
    ).read_bytes()


def test_diff_empty_corpus_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["diff", str(empty)]) == 1
    assert "no .cnf files" in capsys.readouterr().err


def test_bench_json(capsys):
    data = run_json(
        capsys, ["bench", "--width", "3", "--sizes", "50,100,200", "--seed", "1"]
    )
    assert data["sizes"] == [50, 100, 200]
    assert len(data["rows"]) == 3
    assert all(r["matches_prediction"] for r in data["rows"])


def test_bench_is_deterministic(capsys):
    argv = ["bench", "--width", "3", "--sizes", "100,200", "--seed", "9"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("10,,20", "--sizes has an empty item in '10,,20'"),
        ("10,20,", "--sizes has an empty item in '10,20,'"),
        ("", "--sizes must list at least one size"),
        (",", "--sizes must list at least one size"),
    ],
)
def test_bench_refuses_an_empty_size_item(capsys, sizes, message):
    assert main(["bench", "--width", "3", "--sizes", sizes]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("sizes, item", [("x", "x"), ("10,2.5", "2.5")])
def test_bench_names_a_bad_size_item(capsys, sizes, item):
    assert main(["bench", "--width", "3", "--sizes", sizes]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: --sizes has a bad item {item!r} in {sizes!r}\n"
    )


# The JSON of lp, solve, oracle and bench lists the fields of LpSolution,
# PipelineResult, RoundAnomaly, OracleVerdict and OpCount, so a field added
# to one of them changes these key sets.
SOLUTION_KEYS = {"status", "point", "objective_value", "pivot_steps", "infeasibility"}


def test_lp_json_keys(contra_file, capsys):
    data = run_json(capsys, ["lp", contra_file])
    assert set(data) == {"system", "solution"}
    assert set(data["system"]) == {"num_vars", "constraints", "objective"}
    assert {frozenset(c) for c in data["system"]["constraints"]} == {
        frozenset({"coefficients", "bound", "offset"})
    }
    assert set(data["solution"]) == SOLUTION_KEYS


def test_solve_json_keys(tmp_path, capsys):
    path = write_cnf(tmp_path, "a.cnf", "p cnf 4 2\n-4 2 -1 0\n3 2 4 0\n")
    argv = ["solve", path, "--bound", "k-1", "--round-base", "k"]
    data = run_json(capsys, argv + ["--objective", "max-sum"])
    assert set(data) == {"claimed_status", "assignment", "anomalies", "lp", "steps"}
    assert set(data["lp"]) == SOLUTION_KEYS
    assert [set(a) for a in data["anomalies"]] == [{"var", "raw", "rounded"}] * 2


def test_oracle_json_keys(contra_file, simple_file, capsys):
    verdict = {"status", "witness", "nodes_explored"}
    assert set(run_json(capsys, ["oracle", simple_file])) == verdict
    assert set(run_json(capsys, ["oracle", contra_file])) == verdict
    data = run_json(capsys, ["oracle", contra_file, "--budget", "0"])
    assert data == {
        "status": "budget_exceeded",
        "detail": "DPLL node budget of 0 exceeded",
    }


def test_bench_json_keys(capsys):
    data = run_json(capsys, ["bench", "--width", "3", "--sizes", "10,20"])
    assert set(data) == {
        "width", "num_vars", "seed", "sizes", "rows", "additions_exponent"
    }
    assert [set(r) for r in data["rows"]] == [
        {"clauses", "additions", "table_calls", "negations", "matches_prediction"}
    ] * 2


def test_out_flag_writes_file(simple_file, tmp_path, capsys):
    target = tmp_path / "verdict.json"
    assert main(["oracle", simple_file, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["status"] == "sat"


def test_missing_file_is_reported(capsys):
    assert main(["oracle", "/nonexistent/x.cnf"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_dimacs_is_reported(tmp_path, capsys):
    path = write_cnf(tmp_path, "bad.cnf", "p cnf 2 1\n1 2\n")
    assert main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_non_utf8_input_is_reported(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "bad.cnf"
    path.write_bytes(b"p cnf 1 1\n1 0\nc \xff\n")
    assert main(["oracle", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: line 3: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
    )
    assert main(["diff", str(corpus), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: file 'bad.cnf': line 3: input is not valid UTF-8: "
    )


def test_diff_names_the_malformed_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_cnf(corpus, "a.cnf", "p cnf 2 1\n1 2 0\n")
    write_cnf(corpus, "b.cnf", "p cnf 2 1\n1 3 0\n")
    assert main(["diff", str(corpus), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        "error: file 'b.cnf': line 2: literal 3 exceeds declared 2 variables\n"
    )


def test_readme_cli_lines_parse():
    # Every command line in the README's CLI block names only flags that exist.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```", 2)[1]
    lines = [ln.split("#")[0].split() for ln in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["modsat"]]
    assert len(commands) == 8
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func.__name__ == f"cmd_{argv[0]}"


def test_bad_flags_exit_2(simple_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", simple_file, "--negation", "bogus"])
    assert exc.value.code == 2
    for flag in (["--float"], ["--round-base", "2"]):  # lp solves exactly, never rounds
        with pytest.raises(SystemExit) as exc:
            main(["lp", simple_file, *flag])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # the variable count is max(4 * width, 24)
        main(["bench", "--width", "3", "--sizes", "10", "--vars", "30"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_unexpected_exception_is_one_error_line(simple_file, capsys, monkeypatch):
    def deep(formula, node_budget):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("modsat.oracle.dpll_sat", deep)
    assert main(["oracle", simple_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "Traceback" not in captured.err


def test_exception_without_message_prints_its_type(simple_file, capsys, monkeypatch):
    def exhausted(formula, node_budget):
        raise MemoryError()

    monkeypatch.setattr("modsat.oracle.dpll_sat", exhausted)
    assert main(["oracle", simple_file]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_wide_header_runs_in_bounded_memory(tmp_path):
    # One clause over a million declared variables: a DPLL mask per declared
    # variable would take n * n / 16 bytes.  Under a 1 GiB address space a
    # regression fails here fast instead of exhausting the machine.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = write_cnf(corpus, "wide.cnf", "p cnf 1000000 1\n1 2 3 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(modsat.__file__).parents[1])}
    outputs = []
    for args in (["oracle", path], ["diff", str(corpus), "--out", str(tmp_path / "r")]):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "modsat.cli", *args], env=env,
            capture_output=True, text=True, preexec_fn=_limit_address_space,
        )
        assert done.returncode == 0, done.stderr
        assert time.perf_counter() - start < 20
        outputs.append(done.stdout)
    assert json.loads(outputs[0])["status"] == "sat"
    record, = json.loads((tmp_path / "r" / "report.json").read_text())["records"]
    assert (record["oracle_status"], record["category"]) == ("sat", "sound_sat")


def test_wide_affine_tableau_is_refused_before_it_is_built(tmp_path):
    # Affine max-sum over 30,000 declared variables: 30,001 rows and a
    # stored column per variable, about 9 * 10**8 cells.  The tableau budget
    # refuses it before a column is allocated, well inside 1 GiB.
    path = write_cnf(tmp_path, "wide.cnf", "p cnf 30000 1\n1 2 3 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(modsat.__file__).parents[1])}
    for command in ("lp", "solve"):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "modsat.cli", command, path,
             "--negation", "affine", "--objective", "max-sum"], env=env,
            capture_output=True, text=True, preexec_fn=_limit_address_space,
        )
        assert time.perf_counter() - start < 10
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: simplex tableau may exceed {simplex.TABLEAU_BUDGET} cells\n"
        )
