"""The package's public names: every module's __all__ names exist, the
package namespace re-exports only names its modules declare public, every
module uses the names it imports, every private name is defined once and
read, and no module imports scipy."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import tfch


def test_every_all_name_exists():
    for info in pkgutil.iter_modules(tfch.__path__):
        module = importlib.import_module("tfch." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


def test_package_imports_come_from_all():
    tree = ast.parse(Path(tfch.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("tfch." + node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)


def _spans_targets():
    """(module, name) pairs that bench/spans.py rebinds to trace them."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module.rpartition(".")[2], name)
            for module, name, *_ in spans.TARGETS}


def _imported_names(tree):
    """Names bound by the module's top-level imports, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    # no linter ships with the project; this is its unused-import check
    traced = _spans_targets()
    unused = []
    for path in sorted(Path(tfch.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in _imported_names(tree)
                   if name not in used and (path.stem, name) not in traced]
    assert not unused


def _private_definitions(tree):
    """Private names bound by the module's top-level functions, classes and
    assignments; dunders such as __all__ and __version__ are read from
    outside the package and left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [name.id for target in targets
                     for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__")))


def test_every_private_name_is_defined_once_and_used():
    # the dead-code check that a linter would make: a private function,
    # class or constant that no module of the package reads is left over,
    # and one defined in two modules is a copy that should have been one
    defined, read = [], set()
    for path in sorted(Path(tfch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.stem, name) for name in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [(m, name) for m, name in defined if name not in read] == []
    names = [name for _, name in defined]
    assert sorted({name for name in names if names.count(name) > 1}) == []


def _imported_modules(tree):
    """Every module an import statement anywhere in tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy():
    # importing any scipy subpackage costs about 0.3 s of start-up; numpy
    # gives the bits the package needs. Imports inside functions count too:
    # they would only move that cost into the run.
    found = []
    for path in sorted(Path(tfch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.stem, name) for name in _imported_modules(tree)
                  if name.partition(".")[0] == "scipy"]
    assert not found


def test_cli_run_loads_no_scipy(tmp_path):
    probe = ("import sys\n"
             "from tfch.cli import main\n"
             "assert main(['rho-star', '--out', sys.argv[1]]) == 0\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.partition('.')[0] == 'scipy'))\n")
    src = str(Path(tfch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "rho_star.csv").exists()


def test_cli_import_leaves_out_the_verification_battery():
    # only the verify command reads tfch._verification; the other commands
    # do not pay for compiling and running it at start-up
    probe = ("import sys\n"
             "import tfch.cli\n"
             "print('tfch._verification' in sys.modules)\n")
    src = str(Path(tfch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert done.stdout.strip().splitlines()[-1] == "False"
