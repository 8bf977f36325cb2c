"""Every name a kcn module lists in `__all__` is defined in that module, and
something outside the tests uses it."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import kcn

# Every module under kcn, found by walking the package, so a new module is
# checked without being listed here
ALL_MODULES = sorted(m.name.removeprefix("kcn.")
                     for m in pkgutil.walk_packages(kcn.__path__, "kcn.") if not m.ispkg)
# The command-line front door is the one module without `__all__`
WITHOUT_ALL = ["cli"]
MODULES = [m for m in ALL_MODULES if m not in WITHOUT_ALL]

ROOT = pathlib.Path(__file__).resolve().parents[1]
USER_DIRS = ("src/kcn", "scripts", "perfbench")


def test_only_the_cli_lacks_all():
    lacking = [m for m in ALL_MODULES if not hasattr(importlib.import_module(f"kcn.{m}"), "__all__")]
    assert lacking == WITHOUT_ALL


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"kcn.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _own_lines(tree: ast.Module, name: str) -> set[int]:
    """Lines that do not count as a use of `name` in its own module: the
    `__all__` assignment and the first line of the statement that binds it."""
    lines = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name == name:
                lines.add(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            ids = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in ids:
                lines.update(range(node.lineno, node.end_lineno + 1))
            elif name in ids:
                lines.add(node.lineno)
    return lines


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller_outside_tests(name):
    # The library exports what kcn, scripts/ and perfbench/ use; a helper
    # only the tests call belongs in tests/.
    module = importlib.import_module(f"kcn.{name}")
    own = ROOT / "src" / "kcn" / f"{name.replace('.', '/')}.py"
    tree = ast.parse(own.read_text())
    sources = {path: path.read_text().splitlines()
               for d in USER_DIRS for path in sorted((ROOT / d).rglob("*.py"))}
    assert own in sources
    unused = []
    for export in module.__all__:
        word = re.compile(rf"\b{re.escape(export)}\b")
        skip = _own_lines(tree, export)
        if not any(word.search(line)
                   for path, lines in sources.items()
                   for i, line in enumerate(lines, 1)
                   if not (path == own and i in skip)):
            unused.append(export)
    assert unused == []
