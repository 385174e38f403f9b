"""A module's ``_``-prefixed names are its own: no other ``sqlmend`` module
imports them, except for the pairs allowlisted below (none today). And JSON
is decoded in two places only: ``datasets.decode_json``, for every input,
and the alignment decoder, for model output."""

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


# (module, top-level definition) -> where JSON may be decoded.
JSON_DECODERS = {("datasets", "decode_json"), ("alignment", "_DECODERS")}


def _json_decodes(path: Path) -> list[tuple[str, int]]:
    """(top-level definition, line) of each use of ``json.load``,
    ``json.loads`` or ``json.JSONDecoder``, each import of them from ``json``,
    and each ``.json()`` call in the module at *path*."""
    names = {"load", "loads", "JSONDecoder"}
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            scope = top.name
        elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            scope = top.targets[0].id
        else:
            scope = "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in names and (
                isinstance(node.value, ast.Name) and node.value.id == "json"
            ):
                found.append((scope, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in names for alias in node.names
            ):
                found.append((scope, node.lineno))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "json" and not node.args
            ):
                found.append((scope, node.lineno))
    return found


def test_json_is_decoded_only_by_the_reader_and_the_alignment_decoder():
    decodes = [
        f"{path.name}:{line}: in {scope}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for scope, line in _json_decodes(path)
        if (path.stem, scope) not in JSON_DECODERS
    ]
    assert decodes == []


def test_every_json_decoder_decodes():
    for module, scope in JSON_DECODERS:
        assert scope in {found for found, _ in _json_decodes(PACKAGE_DIR / f"{module}.py")}


def test_the_scan_finds_each_way_to_decode_json(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import json\n"
        "from json import loads\n"
        "def f(response, handle):\n"
        "    return response.json(), json.load(handle)\n"
        "class C:\n"
        "    decoder = json.JSONDecoder()\n"
        "PARSE = json.loads\n"
        "def g(data):\n"
        "    return json.dumps(data), data.json(1)\n",
        encoding="utf-8",
    )
    assert _json_decodes(path) == [("<module>", 2), ("f", 4), ("f", 4), ("C", 6), ("PARSE", 7)]
