"""Every name a module of src/modsat or tests imports is read in that module,
only the checked producers read the unchecked constructors, only the
benchmark reads the alias oracle.verify, and int arguments are checked in
errors alone."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "modsat"


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= read, f"unused imports: {sorted(imported - read)}"



class _ScopedVisitor(ast.NodeVisitor):
    """Collects findings in ``found``, each tagged with the name of its
    enclosing function in ``scope[-1]``."""

    def __init__(self, path):
        self.path, self.scope, self.found = path, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class _UncheckedConstructions(_ScopedVisitor):
    """(file, enclosing function, construction) of every read of an
    ``X._make`` or of ``tuple.__new__``, called or passed on."""

    def visit_Attribute(self, node):
        construction = ast.unparse(node)
        if node.attr == "_make" or construction == "tuple.__new__":
            self.found.add((self.path.name, self.scope[-1], construction))
        self.generic_visit(node)


def test_only_checked_producers_skip_the_constructor_checks():
    # Formula._make, LpSystem._make and tuple.__new__ on a Clause or a
    # LinearConstraint skip every check: each caller checks its data itself,
    # and no other code reads them.
    found = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        visitor = _UncheckedConstructions(path)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    assert found == {
        ("cnf.py", "clause_of", "tuple.__new__"),
        ("cnf.py", "_parse_canonical", "tuple.__new__"),
        ("cnf.py", "parse_dimacs", "Formula._make"),
        ("relax.py", "build_relaxation", "tuple.__new__"),
        ("relax.py", "build_relaxation", "LpSystem._make"),
    }


def _verify_reads(tree, path):
    """Each read of oracle.verify in one module, as ``file:line``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oracle"):
            hit = any(a.name == "verify" for a in node.names)
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "verify" and ast.unparse(node.value).endswith("oracle")
        else:  # oracle.py reading its own alias
            hit = (
                path.name == "oracle.py"
                and isinstance(node, ast.Name)
                and node.id == "verify"
                and isinstance(node.ctx, ast.Load)
            )
        if hit:
            yield f"{path.name}:{node.lineno}"


def test_only_the_benchmark_reads_oracle_verify():
    # oracle.verify is cnf.evaluate under a second name; the package and its
    # tests call evaluate, so deleting the alias touches only the benchmark.
    reads = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        reads += _verify_reads(ast.parse(path.read_text(encoding="utf-8")), path)
    assert reads == []


def _names_int(node):
    """``node`` is ``int`` or a tuple that holds it."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(isinstance(e, ast.Name) and e.id == "int" for e in elts)


class _IntTypeTests(_ScopedVisitor):
    """(file, enclosing function) of every ``type(x) ... int`` comparison and
    every ``isinstance(x, int)`` call."""

    def visit_Compare(self, node):
        left = node.left
        if (
            isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name)
            and left.func.id == "type"
            and any(_names_int(c) for c in node.comparators)
        ):
            self.found.add((self.path.name, self.scope[-1]))
        self.generic_visit(node)

    def visit_Call(self, node):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names_int(node.args[1])
        ):
            self.found.add((self.path.name, self.scope[-1]))
        self.generic_visit(node)


def test_int_arguments_are_checked_in_errors_alone():
    # errors.check_int and errors.check_real hold the int and real-number
    # rules; any other type test on int would be a second copy of them.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            visitor = _IntTypeTests(path)
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            found |= visitor.found
    assert found == {
        # A literal code is a nonzero int of either sign, so it has no floor.
        ("cnf.py", "clause_of"),
        # Picks the values that have a denominator other than 1: a filter,
        # not an argument check.
        ("simplex.py", "_integer_scaling"),
        # Ratios are ints or floats but not Fractions, which check_real
        # accepts: file names format a ratio with :g, which a Fraction lacks
        # on Python 3.11.
        ("harness.py", "gen_corpus"),
    }
