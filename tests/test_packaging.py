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
