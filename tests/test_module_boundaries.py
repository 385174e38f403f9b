"""A module's ``_``-prefixed names are its own: no other ``sqlmend`` module
imports them, except for the pairs allowlisted below (none today)."""

from __future__ import annotations

import ast
from pathlib import Path

import sqlmend

PACKAGE_DIR = Path(sqlmend.__file__).parent

# (importing module, imported module) -> the private names it may import.
ALLOWED: dict[tuple[str, str], set[str]] = {}


def _private_imports(path: Path) -> list[tuple[str, str, int]]:
    """(imported module, name, line) of every ``_``-prefixed name that the
    module at *path* imports from another ``sqlmend`` module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("sqlmend."):
            source = node.module.removeprefix("sqlmend.")
        else:
            continue
        found += [(source, alias.name, node.lineno)
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 10
    crossings = [
        f"{path.name}:{line}: {name} from {source}"
        for path in modules
        for source, name, line in _private_imports(path)
        if source != path.stem and name not in ALLOWED.get((path.stem, source), set())
    ]
    assert crossings == []


def test_the_scan_finds_relative_and_absolute_private_imports(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from .execution import _kept, execute_sql\n"
        "def f():\n"
        "    from sqlmend.sql_analysis import _analyze\n"
        "from . import comparison\n",
        encoding="utf-8",
    )
    assert _private_imports(path) == [("execution", "_kept", 1), ("sql_analysis", "_analyze", 3)]


def test_every_allowlisted_name_is_imported():
    for (importer, source), names in ALLOWED.items():
        imported = {name for module, name, _ in _private_imports(PACKAGE_DIR / f"{importer}.py")
                    if module == source}
        assert names <= imported, (importer, source)
