"""The README's library example runs, and the package root exports
exactly its names, the error classes the CLI maps to an exit code and
__version__, each loaded from its module on first use."""

from __future__ import annotations

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import linksched

README = Path(__file__).resolve().parents[1] / "README.md"
ERRORS = {"ConfigError", "DiscretizationError", "SimplexAnomaly",
          "ReducibleChainError", "ConstructionError", "MassRangeError",
          "SweepError", "InfeasibleCurveError"}


def _library_example() -> str:
    library = README.read_text().split("\n## Library\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_example_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(linksched.__file__))
    proc = subprocess.run([sys.executable, "-c", _library_example()],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ratio, delay = proc.stdout.splitlines()
    assert 1.0 <= float(ratio) <= 1.0 + 9.5 / (64 * 0.5)
    assert float(delay.split(" +- ")[0]) > 0.0


def test_root_exports_the_example_and_the_errors():
    imported = re.search(r"from linksched import \((.*?)\)",
                         _library_example(), re.S).group(1)
    example = {name.strip() for name in imported.split(",") if name.strip()}
    assert len(example) == 16
    assert set(linksched.__all__) == example | ERRORS
    assert len(linksched.__all__) == 24
    public = {name for name in dir(linksched) if not name.startswith("_")
              and not inspect.ismodule(getattr(linksched, name))}
    assert public == example | ERRORS
    for name in public:
        value = getattr(linksched, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("linksched.")
        assert getattr(home, name) is value
    assert isinstance(linksched.__version__, str)


ROOT_ON_DEMAND = """
import sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("linksched.") or m == "numpy")

import linksched
print(loaded())
cfg = linksched.load_config("paper_iv")
linksched.discretize_channel(cfg.channel, 16)
print(loaded())
star = {}
exec("from linksched import *", star)
print(sorted(name for name in star if not name.startswith("__")))
try:
    linksched.sweep_curves
except AttributeError as err:
    print(err)
"""


def test_root_loads_its_layers_on_first_use():
    # in a fresh interpreter: the bare import loads no layer and not
    # numpy, the example's first two calls load linksched.model alone,
    # and a star import takes every root name
    src = os.path.dirname(os.path.dirname(linksched.__file__))
    proc = subprocess.run([sys.executable, "-c", ROOT_ON_DEMAND],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    bare, model, star, missing = proc.stdout.splitlines()
    assert bare == "[]"
    assert model == "['linksched.model', 'numpy']"
    assert star == str(sorted(linksched.__all__))
    assert missing == ("module 'linksched' has no attribute "
                       "'sweep_curves'")
