"""Source checks on the package surface: every exported name resolves, and
no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import bsmaj

SRC = Path(bsmaj.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in bsmaj.__all__ if not hasattr(bsmaj, name)]
    assert missing == []


def _unused_imports(tree):
    """Names a module binds by import and never reads. A name listed in the
    module's ``__all__`` counts as read: it is re-exported."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
