"""The public API surface: every exported name exists where it is declared.

The benchmark tracer looks up each name in a layer module's __all__, so
a stale entry there breaks traced runs as surely as a broken import.
No module reads the process environment, so a run's configuration is
exactly the RunConfig its sidecar records.  numpy is the one run-time
dependency: no module imports scipy, and a CLI run loads none of it.
Only floquet itself touches a private floquet name: the parity-sector
route is public.  Only floquet constructs a BranchAmbiguityError, whose
message sector_spectra prefixes with the failing point.
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


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_floquet_uses(path):
    # (line, name) of every _-prefixed name imported from floquet or read
    # as an attribute of the name floquet.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("floquet", "fockladder.floquet"):
            uses += [(node.lineno, a.name) for a in node.names if _is_private(a.name)]
        elif (isinstance(node, ast.Attribute) and _is_private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id == "floquet"):
            uses.append((node.lineno, node.attr))
    return uses


def test_no_module_uses_a_private_floquet_name():
    package_dir = pathlib.Path(fockladder.__file__).parent
    sources = [path for path in sorted(package_dir.glob("*.py")) if path.name != "floquet.py"]
    assert sources, f"no modules found in {package_dir}"
    uses = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in private_floquet_uses(path)
    ]
    assert uses == []


def test_private_floquet_guard_sees_imports_and_attributes(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .floquet import _to_fock, solve_ground\n"
        "from fockladder.floquet import _lower_sector\n"
        "from . import floquet\n"
        "floquet._sector_operators(None), floquet.__all__, floquet.spectrum\n",
        encoding="utf-8",
    )
    assert sorted(private_floquet_uses(source)) == [
        (1, "_to_fock"), (2, "_lower_sector"), (4, "_sector_operators"),
    ]


def _names_branch_error(node):
    return (isinstance(node, ast.Name) and node.id == "BranchAmbiguityError"
            or isinstance(node, ast.Attribute) and node.attr == "BranchAmbiguityError")


def branch_error_constructions(path):
    # Lines that call BranchAmbiguityError, or raise the class itself; an
    # except clause naming it constructs nothing.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _names_branch_error(node.func)
        or isinstance(node, ast.Raise) and _names_branch_error(node.exc)
    )


def test_only_floquet_constructs_a_branch_ambiguity():
    # floquet.sector_spectra names the failing point, so no other module
    # builds the error or its message.
    package_dir = pathlib.Path(fockladder.__file__).parent
    sources = [path for path in sorted(package_dir.glob("*.py")) if path.name != "floquet.py"]
    assert sources, f"no modules found in {package_dir}"
    constructions = [
        f"{path.name}:{line}" for path in sources for line in branch_error_constructions(path)
    ]
    assert constructions == []


def test_branch_error_guard_sees_constructions(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .floquet import BranchAmbiguityError\n"
        "from . import floquet\n"
        "try:\n"
        "    raise BranchAmbiguityError(f'at {1}')\n"
        "except (ValueError, BranchAmbiguityError) as exc:\n"
        "    error = floquet.BranchAmbiguityError(str(exc))\n"
        "if isinstance(error, BranchAmbiguityError):\n"
        "    raise BranchAmbiguityError\n",
        encoding="utf-8",
    )
    assert branch_error_constructions(source) == [4, 6, 8]
