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
    # The catalog morphisms that the morphism statements are checked on.
    "chain_inclusion", "permutation_morphism",
}


def _src_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_src_function_is_referenced_from_src():
    # A function is live when some src module, __init__.py's imports
    # included, names it apart from its own definition: a call, an attribute
    # read, a name or an import.  A method is live only through an attribute
    # read, since a bare name of the same spelling is some other function or
    # a local variable.  Dunder methods are exempt.
    functions, methods, names, attributes = set(), set(), set(), set()
    for path, tree in _src_trees():
        in_class = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                in_class.update(map(id, node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (methods if id(node) in in_class else functions).add((path.name, node.name))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    dead = sorted({(module, name) for module, name in functions
                   if name not in names | attributes | TEST_ONLY}
                  | {(module, name) for module, name in methods
                     if name not in attributes
                     and not (name.startswith("__") and name.endswith("__"))})
    assert dead == []
    assert TEST_ONLY <= {name for _, name in functions} - names - attributes


# Imports that perfbench/tracing.py replaces in these modules to count calls;
# the modules themselves do not use them.
PATCH_TARGETS = {
    ("lattice.py", "enumerate_subspaces"),
    ("endo.py", "enumerate_subspaces"),
    ("coprime.py", "enumerate_ideals"),
}


def test_every_src_import_is_used():
    # A name imported into a src module is used when the module reads it as
    # a name.  __init__.py re-exports what it imports, and __future__
    # imports are compiler directives.
    unused = set()
    for path, tree in _src_trees():
        if path.name == "__init__.py":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.name, name) for name in imported - used)
    assert unused == PATCH_TARGETS


# The packed F2 format: its helpers, the slots and methods that hold packed
# ints, and the names of the packed routes.
PACKED_NAMES = {"_pack", "_unpack", "packed", "packed_rows", "packed_columns",
                "_f2", "element_rows"}


def _is_packed_name(name):
    return name in PACKED_NAMES or name.startswith(("f2_", "_f2"))


def test_the_packed_format_stays_in_linalg():
    found = set()
    for path, tree in _src_trees():
        if path.name == "linalg.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                spelled = [node.id]
            elif isinstance(node, ast.Attribute):
                spelled = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                spelled = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spelled = [node.name]
            else:
                continue
            found.update((path.name, name) for name in spelled if _is_packed_name(name))
    assert found == set()


def _true_divisions(tree):
    """The enclosing class and function names of every true division
    (`/` and `/=`) in a module tree, one dotted name per division."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_true_division_only_in_field_inv():
    # Over Q an int divided by an int is a float, so scalars are divided
    # only where `Field.inv` builds a Fraction.
    assert _true_divisions(ast.parse(
        "class Field:\n    def inv(self, a):\n        return 1 / a\n"
        "def f(x):\n    x /= 2\n    return x\n")) == ["Field.inv", "f"]
    outside = [(path.name, scope) for path, tree in _src_trees()
               for scope in _true_divisions(tree)
               if (path.name, scope) != ("fields.py", "Field.inv")]
    assert outside == []
