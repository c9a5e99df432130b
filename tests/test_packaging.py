"""The package has no runtime dependency: every import in it is of the
standard library or gext itself, and pyproject.toml declares no
dependency.  Every package of the test extra is imported by
the tests or the benchmark, the package's syntax is that of the oldest
Python that `requires-python` admits, and `__all__` lists exactly the
names that `__init__.py` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gext"
ALLOWED = set(sys.stdlib_module_names) | {"gext"}


def imported_roots(path: Path):
    """Top-level names of the absolute imports in one source file, those
    made by `pytest.importorskip("name")` included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            yield node.args[0].value.split(".")[0]


def pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {(path.name, name) for path in sources
               for name in imported_roots(path) if name not in ALLOWED}
    assert not outside


def test_pyproject_declares_no_dependency():
    assert pyproject()["dependencies"] == []


def test_every_test_extra_is_imported():
    extra = pyproject()["optional-dependencies"]["test"]
    wanted = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
              for spec in extra}
    sources = sorted((ROOT / "tests").glob("*.py"))
    sources += sorted((ROOT / "bench").glob("*.py"))
    used = {name.lower() for path in sources for name in imported_roots(path)}
    assert not wanted - used


def test_sources_parse_as_the_oldest_supported_python():
    """Every module of the package parses with the grammar of the oldest
    Python that pyproject.toml's `requires-python` admits (ast's
    feature_version; a later-only syntax such as `except*` or a `type`
    statement fails)."""
    floor = re.fullmatch(r">=\s*(\d+)\.(\d+)", pyproject()["requires-python"])
    assert floor
    version = (int(floor.group(1)), int(floor.group(2)))
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=version)


def test_all_lists_exactly_the_names_the_package_imports():
    """`gext.__all__` has no duplicates, equals the set of names that
    `__init__.py` imports from its submodules, and every name in it
    resolves on the package."""
    import gext

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert len(gext.__all__) == len(set(gext.__all__))
    assert set(gext.__all__) == imported
    assert all(hasattr(gext, name) for name in gext.__all__)
