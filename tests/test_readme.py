"""The README's library example runs, and the package root exports
exactly its names, the error classes the CLI maps to an exit code and
__version__."""

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
    public = {name for name, value in vars(linksched).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == example | ERRORS
    assert isinstance(linksched.__version__, str)
