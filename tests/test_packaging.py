"""The package imports nothing outside the standard library at run time."""

import ast
import sys
from pathlib import Path

import coprimespec

PACKAGE = Path(coprimespec.__file__).parent


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [(path.name, name) for path in modules
               for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "coprimespec"]
    assert outside == []


def test_the_oracle_keeps_its_own_linear_algebra():
    # The oracle is the independent reference: it must not reuse the
    # engine's linear algebra, lattices, endomorphism rings or spectra.
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("coprimespec"):
                imported.add(module.rsplit(".", 1)[-1])
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert imported, "the oracle imports nothing from the package"
    assert not imported & {"linalg", "lattice", "endo", "coprime"}


# Functions that only tests reference, each kept on purpose.
TEST_ONLY = {
    # The literal routes (every ideal pair) that the fast-path tests compare
    # the minimal-ideal primality tests against.
    "is_prime_ideal", "is_semiprime_ideal",
    # The catalog morphisms that the morphism statements are checked on.
    "chain_inclusion", "permutation_morphism",
}


def test_every_src_function_is_referenced_from_src():
    # A function or method is live when some src module, __init__.py's
    # imports included, names it apart from its own definition: a call, an
    # attribute read, a name or an import.  Dunder methods are exempt.
    defined, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((path.name, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = sorted((module, name) for module, name in defined
                  if name not in referenced and name not in TEST_ONLY)
    assert dead == []
    assert TEST_ONLY <= {name for _, name in defined} - referenced
