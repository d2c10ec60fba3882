"""Every module-level import in the library's modules is used there.

No linter runs on the source tree, so this catches the dead imports a
deletion leaves behind. `__init__.py` is skipped: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bitretrieve"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def bound_names(tree: ast.Module) -> set[str]:
    """Names bound by the module-level imports, `from __future__` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert bound_names(tree) - used == set()
