"""The public API surface: every exported name exists where it is declared.

The benchmark tracer looks up each name in a layer module's __all__, so
a stale entry there breaks traced runs as surely as a broken import.
No module reads the process environment, so a run's configuration is
exactly the RunConfig its sidecar records.  numpy is the one run-time
dependency: no module imports scipy, and a CLI run loads none of it.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

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


def scipy_imports(path):
    # (line, module) of every import of scipy or a scipy submodule.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append((node.lineno, node.module))
    return [(line, name) for line, name in modules if name.split(".")[0] == "scipy"]


def test_no_module_imports_scipy():
    package_dir = pathlib.Path(fockladder.__file__).parent
    imports = [
        f"{path.name}:{line} {name}"
        for path in sorted(package_dir.glob("*.py"))
        for line, name in scipy_imports(path)
    ]
    assert imports == []


def test_cli_run_loads_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "from fockladder.cli import main\n"
        f"main(['ground', '--n', '8', '--out', {str(tmp_path / 'ground.csv')!r}])\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(pathlib.Path(fockladder.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (tmp_path / "ground.csv").exists()
    assert result.stdout.splitlines()[-1] == "[]"
