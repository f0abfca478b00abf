"""Source checks on the package surface: every exported name resolves and
has a user, no module imports a name it never uses, and the README's limits
table names every MAX_* constant with its value."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import bsmaj

SRC = Path(bsmaj.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in bsmaj.__all__ if not hasattr(bsmaj, name)]
    assert missing == []


def _identifiers(path):
    """Every identifier a Python file names in its code or its strings:
    names, attributes, imported names, and the words of string constants
    (the benchmark names traced functions as ``"module.function"``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_exported_function_and_class_has_a_user():
    # A user is the CLI, a test or the benchmark; anything else stays
    # importable from its module but leaves __all__.
    root = SRC.parents[1]
    files = [SRC / "cli.py", *(root / "tests").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    used = set().union(*(_identifiers(path) for path in files if path != Path(__file__)))
    exported = [name for name in bsmaj.__all__
                if inspect.isfunction(getattr(bsmaj, name)) or inspect.isclass(getattr(bsmaj, name))]
    assert [name for name in exported if name not in used] == []


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


def _limits_table():
    """``module.NAME`` and value of each row of the README's limits table."""
    readme = (SRC.parents[1] / "README.md").read_text()
    return [tuple(cell.strip().strip("`") for cell in line.split("|")[1:3])
            for line in readme.splitlines() if line.startswith("| `")]


def _max_constants():
    """``module.NAME`` of every module-level ``MAX_*`` constant in the package."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                names.update(f"{path.stem}.{t.id}" for t in node.targets
                             if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    return names


def test_readme_limits_table_matches_the_constants():
    rows = _limits_table()
    assert sorted(name for name, _ in rows) == sorted(_max_constants())
    for name, value in rows:
        module, _, constant = name.partition(".")
        current = getattr(importlib.import_module(f"bsmaj.{module}"), constant)
        assert value == str(current), name
