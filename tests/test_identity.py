"""Byte identity of generated DIMACS text, of canonical diff reports, of
relaxation rows and of simplex solutions.

The DIMACS and diff digests were taken before clauses became tuples of
signed DIMACS codes, the simplex digests before the tableau dropped its
artificial columns, the relaxation digests before rows were built in
canonical order.  A change to the formula representation, the generator,
the parser, the relaxation, the pipeline, the simplex or the report format
that alters a single byte fails here.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from modsat import harness, pipeline, relax
from modsat.cnf import Formula, clause_of, random_kcnf, write_dimacs
from modsat.errors import UnsupportedFormulaError
from modsat.simplex import LinearConstraint, LpSystem, solve


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated_dimacs() -> str:
    """Canonical text of a seeded batch: widths 2-5, up to 40 variables,
    from no clauses to ratio 6."""
    rng = random.Random(20261018)
    texts = []
    for width in range(2, 6):
        for num_vars in (width, 7, 12, 25, 40):
            num_clauses = rng.randrange(6 * num_vars + 1)
            seed = rng.randrange(2**32)
            texts.append(write_dimacs(random_kcnf(num_vars, num_clauses, width, seed)))
    return "".join(texts)


def diff_reports(corpus_dir, negation, bound, objective) -> tuple[str, str]:
    """Canonical JSON and CSV of ``diff_run`` with round base k on a seeded
    n=12 corpus written to and read back from ``corpus_dir``, plus the
    contradiction."""
    harness.gen_corpus(corpus_dir, 12, 3, count=1, seed=6, ratios=[3, 4.27, 5])
    corpus = harness.load_corpus(corpus_dir)
    corpus.append(("contradiction", harness.contradiction_2cnf()))
    config = pipeline.PipelineConfig(
        negation, bound, pipeline.ROUND_BASE_WIDTH, objective
    )
    report = harness.diff_run(corpus, config)
    return report.to_canonical_json(), report.to_csv()


def simplex_systems() -> list[LpSystem]:
    """Seeded LP systems in three sets: the benchmark's lp-pivot systems
    (affine k-1 max-sum on n=5 3-CNF), every pipeline configuration on
    formulas of width 1-3, and general systems with negative and fractional
    bounds, equality pairs and objectives of either sign.  Together they
    reach infeasible, unbounded and phase-1 pivoting outcomes, including
    zero-level artificials driven out of the basis."""
    rng = random.Random(20261019)
    systems = []
    lp_pivot = pipeline.PipelineConfig(
        relax.AFFINE, relax.BOUND_K_MINUS_1, 2, pipeline.OBJECTIVE_MAX_SUM
    )
    for _ in range(30):
        formula = random_kcnf(5, 21, 3, rng.randrange(2**32))
        systems.append(pipeline.build_system(formula, lp_pivot))
    for _ in range(16):
        width = rng.choice((1, 2, 3))
        num_vars = rng.randint(width, 6)
        num_clauses = rng.randint(1, 5 * num_vars)
        formula = random_kcnf(num_vars, num_clauses, width, rng.randrange(2**32))
        for negation, bound, objective in CONFIGS:
            config = pipeline.PipelineConfig(negation, bound, 2, objective)
            systems.append(pipeline.build_system(formula, config))
    for _ in range(400):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {v: rng.randint(-3, 3) for v in range(n)}
            bound = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            cons.append(LinearConstraint(coeffs, bound))
            if rng.random() < 0.3:
                negated = {v: -c for v, c in coeffs.items()}
                cons.append(LinearConstraint(negated, -bound))
        objective = None
        if rng.random() >= 0.25:
            objective = tuple(rng.randint(-3, 3) for _ in range(n))
        systems.append(LpSystem(n, tuple(cons), objective))
    return systems


def n20_system() -> LpSystem:
    """The affine k-1 max-sum relaxation of the seed-7 n=20 3-CNF at ratio
    4.27: 105 rows and 140 exact pivots, far more per solve than the
    systems above."""
    config = pipeline.PipelineConfig(
        relax.AFFINE, relax.BOUND_K_MINUS_1, 2, pipeline.OBJECTIVE_MAX_SUM
    )
    return pipeline.build_system(random_kcnf(20, 85, 3, 7), config)


def n40_system() -> LpSystem:
    """The same relaxation of the seed-7 n=40 3-CNF at ratio 4.27: 211 rows
    and 627 exact pivots."""
    config = pipeline.PipelineConfig(
        relax.AFFINE, relax.BOUND_K_MINUS_1, 2, pipeline.OBJECTIVE_MAX_SUM
    )
    return pipeline.build_system(random_kcnf(40, 171, 3, 7), config)


def relaxation_formulas() -> list[Formula]:
    """Seeded formulas of widths 1-5 whose codes come in random order, with
    tautologies (x and not x in one clause), unused variables, mixed widths,
    and empty formulas with and without variables."""
    rng = random.Random(20261020)
    formulas = [Formula(0, ()), Formula(3, ())]
    for _ in range(300):
        num_vars = rng.randint(1, 9)
        widths = [rng.randint(1, min(5, 2 * num_vars))]
        if rng.random() < 0.4:
            widths = range(1, min(5, 2 * num_vars) + 1)
        clauses = []
        for _ in range(rng.randint(1, 12)):
            pool = [v for v in range(1, num_vars + 1) for v in (v, -v)]
            if rng.random() < 0.7:  # mostly no tautology
                pool = [v * rng.choice((1, -1)) for v in range(1, num_vars + 1)]
            width = min(rng.choice(widths), len(pool))
            clauses.append(clause_of(*rng.sample(pool, width)))
        unused = rng.choice((0, 0, 1, 4))
        formulas.append(Formula(num_vars + unused, tuple(clauses)))
    return formulas


def relaxation_rows(negation: str, bound: str) -> str:
    """Newline-joined repr of each formula's relaxation, one row as
    (coefficient items in map order, bound, offset), or of its width error."""
    lines = []
    for formula in relaxation_formulas():
        try:
            system = relax.build_relaxation(formula, negation, bound)
        except UnsupportedFormulaError as exc:
            lines.append(f"error {exc}")
            continue
        rows = tuple(
            (tuple(con.coefficients.items()), con.bound, con.offset)
            for con in system.constraints
        )
        lines.append(repr((system.num_vars, rows, system.objective)))
    return "\n".join(lines)


GENERATED_DIMACS_SHA256 = (
    "6dff4b534a6dff5523eaad30ad475d70d37ef7c32df7e6f59eff12c59259d1ed"
)

CONFIGS = list(
    itertools.product(
        relax.NEGATION_MODES,
        relax.BOUND_MODES,
        (pipeline.OBJECTIVE_NONE, pipeline.OBJECTIVE_MAX_SUM),
    )
)

# (canonical JSON, CSV) per configuration
DIFF_SHA256 = {
    ("faithful", "k", "none"): (
        "ff5645a18b5b135df6695f09bb2d44d0829bb47975db23b9c51e37fdd7fa012c",
        "4d8278f1dcd32932736d304c0f5437172f7a85acf890d272a192d3f4bb10f9a6",
    ),
    ("faithful", "k", "maximize_sum"): (
        "a661d069531d7610d0da0b1c039f72914b4c9412afc90ac70dc22a7a935db485",
        "dcaad44166e523936bd9cf587cc890aa85778968d13947254c9386b3477647e9",
    ),
    ("faithful", "k-1", "none"): (
        "5aa3e1c5240219e82a42698e01d99d4ee4e66d3d5390e502ca72f180241d634c",
        "4d8278f1dcd32932736d304c0f5437172f7a85acf890d272a192d3f4bb10f9a6",
    ),
    ("faithful", "k-1", "maximize_sum"): (
        "f0468720a6dedcaba54971058346331ca9d5c311123fd660ff8aba73a1512cfa",
        "dcaad44166e523936bd9cf587cc890aa85778968d13947254c9386b3477647e9",
    ),
    ("affine", "k", "none"): (
        "ed0a02f73f280c20e99d602c2e34d3883eb6540dc58feb12e66e50ddec76719b",
        "195ab3ea4cdb2a5b2a1f5334c4bb5e4bfab76e868f6c7495d22320beaf065c3d",
    ),
    ("affine", "k", "maximize_sum"): (
        "749e79479f9847152c360f0c7530d79c4e027843e8c76483b8ce95ebca9fb0dd",
        "45d8cd69c11e3d980e35587bf242c59c1008227e0a6a0c4848d8248fed6ff205",
    ),
    ("affine", "k-1", "none"): (
        "eb91568f3a3805d2bba11b7bca8af74c05c66ddcc33c01bad207feff2232c19a",
        "9a57d35eb294bbc5daa99485c7f900d799a4b36006eac847f04432788deecc15",
    ),
    ("affine", "k-1", "maximize_sum"): (
        "bee5f2a2debf5d998369fe1800642928e947c7fdef3b6b6866e4503414fe11f8",
        "ad46a57e2114108269ac7191262ec25884ee9e08c3b78fd559c02e4fba65a775",
    ),
}


# newline-joined repr of every solve result, by arithmetic
SIMPLEX_SHA256 = {
    "exact": "ea2333477fad40cc370d60e66bdce908eebff412371200591dbef35c36587a77",
    "float": "3c7a145e2527abf068f5f75a1f078647de0eb97d9426fe69a71c3cd706ca705f",
}

# repr of the exact solve of n20_system(), taken before pivots updated only
# the pivot row's nonzero columns
N20_SIMPLEX_SHA256 = "019d3e14cf49b63ad98e648a08902e838b32ef743f6d455722cd01e6e001b50b"

# repr of the exact solve of n40_system(), taken before the tableau stored
# only its nonbasic columns
N40_SIMPLEX_SHA256 = "ab1cd925fd1ae57cb296beb788164d36ef3a77e85b1ae8768178cc2871984ca3"


# relaxation_rows per (negation mode, bound mode)
RELAXATION_SHA256 = {
    ("faithful", "k"): "035e019139a0a9c376d0fc06f601c7f73fcf83f517c79de45c80799655d0b4de",
    ("faithful", "k-1"): "9f31b5ee29c614db2facdd72dba49f8a6585a48439eb71137c8f9dc2fb5af9b5",
    ("affine", "k"): "126cfbefcce6152727e88be8766a4f30d7bace553091920f5b610df0b23019fe",
    ("affine", "k-1"): "66fdd9cf3a5fb911f55858db289038c8b648eee9e309bc95783a062c107adfbf",
}


def test_generated_dimacs_is_byte_identical():
    assert _sha256(generated_dimacs()) == GENERATED_DIMACS_SHA256


@pytest.mark.parametrize("negation,bound,objective", CONFIGS)
def test_diff_reports_are_byte_identical(tmp_path, negation, bound, objective):
    report_json, report_csv = diff_reports(tmp_path, negation, bound, objective)
    assert (_sha256(report_json), _sha256(report_csv)) == DIFF_SHA256[
        (negation, bound, objective)
    ]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_simplex_outputs_are_pinned(exact):
    text = "\n".join(repr(solve(s, exact=exact)) for s in simplex_systems())
    assert _sha256(text) == SIMPLEX_SHA256["exact" if exact else "float"]


def test_n20_simplex_output_is_pinned():
    sol = solve(n20_system())
    assert sol.pivot_steps == 140
    assert _sha256(repr(sol)) == N20_SIMPLEX_SHA256


def test_n40_simplex_output_is_pinned():
    sol = solve(n40_system())
    assert sol.pivot_steps == 627
    assert _sha256(repr(sol)) == N40_SIMPLEX_SHA256


@pytest.mark.parametrize("negation,bound", list(RELAXATION_SHA256))
def test_relaxation_rows_are_pinned(negation, bound):
    assert _sha256(relaxation_rows(negation, bound)) == RELAXATION_SHA256[
        (negation, bound)
    ]
