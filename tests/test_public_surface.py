"""The package's public names: every module's __all__ names exist, the
package namespace re-exports only names its modules declare public, and
every module uses the names it imports."""

import ast
import importlib
import importlib.util
import pkgutil
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
