"""Every module's public surface matches what it defines and imports.

Deleting a definition must not leave a dangling name behind: every
``__all__`` entry of every ``src/`` module resolves, and every name a
package ``__init__.py`` imports is one it re-exports through
``__all__`` (an import nothing lists is a re-export nobody asked for).
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize(
    "path", MODULES, ids=[_module_name(path) for path in MODULES]
)
def test_every_all_entry_resolves(path):
    module = importlib.import_module(_module_name(path))
    missing = [
        name for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, f"{module.__name__}.__all__ lists {missing}"


@pytest.mark.parametrize(
    "path",
    [path for path in MODULES if path.name == "__init__.py"],
    ids=_module_name,
)
def test_every_package_import_is_exported(path):
    module = importlib.import_module(_module_name(path))
    imported = [
        alias.asname or alias.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    unlisted = sorted(set(imported) - set(getattr(module, "__all__", ())))
    assert not unlisted, f"{module.__name__} imports but does not export {unlisted}"
