"""No module imports a name it never uses: a stdlib stand-in for a linter's
unused-import rule. ``__init__.py`` re-exports, so it is not checked."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [path for folder in (ROOT / "src" / "multiseq", ROOT / "tests")
           for path in sorted(folder.glob("*.py")) if path.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # the names a module exports count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    assert not imported - used, f"unused imports: {sorted(imported - used)}"
