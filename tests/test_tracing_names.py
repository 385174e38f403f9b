"""Every name the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` patches functions and stage methods by name, and a
name the program no longer has crashes the benchmark's traced pass. This
test reads the tracer's tables from its source, without importing or
running the benchmark, so a dropped name fails here first.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name: str) -> list[tuple[str, ...]]:
    """The string fields of each tuple in the module-level list *name*."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return [
                tuple(
                    elt.value
                    for elt in row.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
                for row in node.value.elts
            ]
    raise AssertionError(f"{TRACING} has no {name} table")


@pytest.mark.parametrize("span, module, attribute", _table("FUNCTIONS"))
def test_traced_function_exists(span, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span


@pytest.mark.parametrize("span, module, class_name, method", _table("METHODS"))
def test_traced_method_exists(span, module, class_name, method):
    owner = getattr(importlib.import_module(module), class_name, None)
    assert callable(getattr(owner, method, None)), span
