"""The package's public names: every module's __all__ names exist, and the
package namespace re-exports only names its modules declare public."""

import ast
import importlib
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
