"""Source checks on the package surface: every exported name resolves and
has a user, no module-level function, class or constant is left dead, no module
imports a name it never uses or another module's private name, the README's limits table names every MAX_*
constant with its value, every CLI command writes its output through
one decorator, which alone maps a command's ValueError to click's usage
error, and no functools cache is unbounded."""

import ast
import importlib
import inspect
import re
from collections import Counter
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


def _references(node):
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_function_and_class_is_used():
    # Each one is referenced somewhere in the package outside its own
    # definition, listed in __all__, or is a CLI command; anything else is a
    # helper a refactor left dead.
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = sum(map(_references, trees.values()), Counter())
    commands = {f.name for f in ast.walk(trees[SRC / "cli.py"])
                if isinstance(f, ast.FunctionDef) and "command" in _decorator_names(f)}
    kept = set(bsmaj.__all__) | commands
    dead = [f"{path.stem}.{node.name}" for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in kept
            and references[node.name] == _references(node)[node.name]]
    assert dead == []


def test_every_module_level_constant_is_read():
    # Each UPPERCASE constant is read somewhere in the package outside its
    # own assignment; anything else is a knob a refactor left dead.
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = sum(map(_references, trees.values()), Counter())
    dead = [f"{path.stem}.{target.id}" for path, tree in trees.items() for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and target.id.isupper()
            and references[target.id] == _references(node)[target.id]]
    assert dead == []


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


def _private_imports(tree):
    """(line, name) of each underscore-prefixed name, dunders aside, that a
    module imports from within the package."""
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("bsmaj"))
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    # A name another module needs is public in its own; a private one is
    # free to change with the module that defines it.
    assert _private_imports(ast.parse(path.read_text())) == []


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


def _decorator_names(node):
    """The called attribute or name of each decorator, as ``command`` for
    ``@main.command("x")`` and ``_emits`` for ``@_emits("x")``."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_cli_commands_write_only_through_emits():
    # Output policy (the --out refusal, the envelope, the CSV writer and
    # the error mapping) lives in cli._emits alone: every command carries
    # it, and nothing else writes to stdout or serializes JSON.
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    commands = [f for f in functions if "command" in _decorator_names(f)]
    assert commands
    assert [f.name for f in commands if "_emits" not in _decorator_names(f)] == []
    (emits,) = [f for f in functions if f.name == "_emits"]
    inside = {id(n) for n in ast.walk(emits)}
    writers = [n for n in ast.walk(tree)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and isinstance(n.func.value, ast.Name)
               and (n.func.value.id, n.func.attr)
               in {("click", "echo"), ("json", "dumps"), ("json", "JSONEncoder")}]
    assert {n.func.attr for n in writers} >= {"echo", "JSONEncoder"}
    assert [n.lineno for n in writers if id(n) not in inside] == []


def test_cli_raises_click_errors_only_where_it_maps_them():
    # A command body or helper raises ValueError, as the library does, and
    # _emits makes it a usage error (exit 2). Click's error types are raised
    # only by _emits and ParsedType (whose self.fail is no raise statement),
    # and once by infinitesimal for its exit 1.
    tree = ast.parse((SRC / "cli.py").read_text())
    raised = [(getattr(top, "name", None), ast.unparse(getattr(node.exc, "func", node.exc)))
              for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.Raise) and node.exc is not None
              and ast.unparse(node.exc).startswith("click.")]
    assert [(owner, exc) for owner, exc in raised
            if owner not in {"_emits", "ParsedType"}] == [
        ("infinitesimal_cmd", "click.ClickException")]


def _calls_by_function(node, owner=None):
    """(innermost enclosing function, called name) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        if isinstance(child, ast.Call):
            func = child.func
            yield inner, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        yield from _calls_by_function(child, inner)


def test_cli_parses_through_one_type_and_reads_files_in_one_function():
    # One click type parses every option that needs a parser, and one
    # function opens every input file, so each input is read one way.
    tree = ast.parse((SRC / "cli.py").read_text())
    param_types = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
                   and any(ast.unparse(base) == "click.ParamType" for base in n.bases)]
    assert len(param_types) == 1, param_types
    openers = {owner for owner, name in _calls_by_function(tree)
               if name in {"open", "open_file", "read_text", "read_bytes"}}
    assert len(openers) == 1, openers


def _functools_uses(tree):
    """(line, functools name, the call made of it or None) for every use of a
    ``functools`` name in a module, as ``functools.x`` or imported."""
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            yield node.lineno, node.attr, calls.get(id(node))
        elif isinstance(node, ast.Name) and node.id in imported:
            yield node.lineno, imported[node.id], calls.get(id(node))


def _integer_maxsize(call, namespace):
    """Whether an ``lru_cache(...)`` call passes a maxsize that evaluates to an int."""
    if call is None:
        return False
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    try:
        size = eval(compile(ast.Expression(sizes[0]), "<maxsize>", "eval"), namespace)
    except (IndexError, NameError):
        return False
    return isinstance(size, int) and not isinstance(size, bool)


def test_no_cache_is_unbounded():
    # Memory retained across calls stays bounded for any input: every
    # lru_cache names an integer maxsize, and functools.cache is not used.
    unbounded = []
    for path in sorted(SRC.glob("*.py")):
        namespace = vars(importlib.import_module(f"bsmaj.{path.stem}"))
        for line, name, call in _functools_uses(ast.parse(path.read_text())):
            if name == "cache" or (name == "lru_cache" and not _integer_maxsize(call, namespace)):
                unbounded.append(f"{path.name}:{line} {name}")
    assert unbounded == []
