"""Every name a module of src/modsat or tests imports is read in that module,
only the checked producers read the unchecked constructors, and only the
benchmark reads the alias oracle.verify."""

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



class _UncheckedConstructions(ast.NodeVisitor):
    """(file, enclosing function, construction) of every read of an
    ``X._make`` or of ``tuple.__new__``, called or passed on."""

    def __init__(self, path):
        self.path, self.scope, self.found = path, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

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
