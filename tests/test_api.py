"""The public API surface: every exported name exists where it is declared.

The package namespace is exactly the union of the layer modules' __all__,
no name is declared by two layers, and every demo, which imports from
that namespace, runs to completion.

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
# The layers whose __all__ the package namespace re-exports.
LAYERS = MODULES[:-1]
SOURCE_ROOT = pathlib.Path(fockladder.__file__).parent.parent
DEMOS = sorted((SOURCE_ROOT.parent / "demos").glob("*.py"))


def subprocess_env():
    # pytest's pythonpath setting does not reach a subprocess: put the
    # package's source directory on its PYTHONPATH.
    path = os.pathsep.join(filter(None, [str(SOURCE_ROOT), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"fockladder.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_exactly_the_layers_all():
    public = {
        name for name, value in vars(fockladder).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    declared = set().union(*(importlib.import_module(f"fockladder.{name}").__all__ for name in LAYERS))
    assert public == declared


def test_no_name_in_two_layers_all():
    # The package star-imports each layer in turn, so a name declared by
    # two layers would be silently shadowed by the later one.
    owners = {}
    for layer in LAYERS:
        for name in importlib.import_module(f"fockladder.{layer}").__all__:
            owners.setdefault(name, []).append(layer)
    assert {name: layers for name, layers in owners.items() if len(layers) > 1} == {}


def test_demos_found():
    assert DEMOS, f"no demos found next to {SOURCE_ROOT}"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=subprocess_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


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
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=subprocess_env(),
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
