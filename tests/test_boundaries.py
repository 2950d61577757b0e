"""The benchmark tracer's layer boundaries resolve in the package.

perfbench/spans.py wraps names that each linksched module imports from
the layer below; a refactor that drops one of those imports breaks the
traced benchmark.  This catches it in the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@pytest.mark.parametrize("module,name,span", _boundaries())
def test_boundary_resolves(module, name, span):
    bound = getattr(importlib.import_module(f"linksched.{module}"), name, None)
    assert callable(bound), f"linksched.{module} has no {name}"
    layer, _, attr = span.partition(".")
    assert bound is getattr(importlib.import_module(f"linksched.{layer}"), attr)
