"""The benchmark tracer's layer boundaries resolve in the package.

perfbench/spans.py wraps names that each linksched module imports from
the layer below; a refactor that drops one of those imports breaks the
traced benchmark, and one that keeps the import but stops calling the
name silently zeroes its span.  This catches both in the test suite.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@functools.cache
def _called_names(module: str) -> frozenset[str]:
    """Every bare name the module calls as name(...)."""
    tree = ast.parse((ROOT / "src" / "linksched" / f"{module}.py").read_text())
    return frozenset(node.func.id for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name))


@pytest.mark.parametrize("module,name,span", _boundaries())
def test_boundary_resolves(module, name, span):
    bound = getattr(importlib.import_module(f"linksched.{module}"), name, None)
    assert callable(bound), f"linksched.{module} has no {name}"
    layer, _, attr = span.partition(".")
    assert bound is getattr(importlib.import_module(f"linksched.{layer}"), attr)


@pytest.mark.parametrize("module,name,span", _boundaries())
def test_boundary_is_called(module, name, span):
    assert name in _called_names(module), \
        f"linksched.{module} binds {name} but never calls it"


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "linksched")
                                        .glob("*.py")), ids=lambda p: p.stem)
def test_no_private_name_crosses_a_module(path):
    """A name a module keeps to itself (a leading underscore, dunders
    aside) is not imported by another linksched module."""
    private = [f"{node.lineno}: {alias.name}"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("linksched"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, f"{path.name} imports private names: {private}"
