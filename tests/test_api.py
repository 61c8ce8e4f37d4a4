"""The public API surface: every exported name exists where it is declared.

The benchmark tracer looks up each name in a layer module's __all__, so
a stale entry there breaks traced runs as surely as a broken import.
No module reads the process environment, so a run's configuration is
exactly the RunConfig its sidecar records.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

import fockladder

MODULES = ("lattice", "floquet", "meanfield", "observables", "experiments", "validation", "cli")


def package_imports():
    # (module, name) for every name fockladder/__init__.py imports from a submodule.
    tree = ast.parse(inspect.getsource(fockladder))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"fockladder.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_declared_names():
    imports = package_imports()
    assert imports, "no submodule imports found in fockladder/__init__.py"
    undeclared = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(f"fockladder.{module}").__all__
    ]
    assert undeclared == []


ENVIRONMENT_READERS = {"environ", "getenv"}


def environment_reads(path):
    # (line, name) of every os.environ/os.getenv use, attribute or import.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT_READERS]
    return reads


def test_no_module_reads_the_environment():
    package_dir = pathlib.Path(fockladder.__file__).parent
    sources = sorted(package_dir.glob("*.py"))
    assert sources, f"no modules found in {package_dir}"
    reads = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in environment_reads(path)
    ]
    assert reads == []
