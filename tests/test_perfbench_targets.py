"""Every library function the benchmark's traced run wraps still exists, so
deleting or renaming one fails here rather than in ``perfbench/run.py
--trace 1``. The names are read from ``perfbench/layers.py`` and resolved
the way its tracer installs them."""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
# run_path compiles the file without writing bytecode next to it.
TARGETS = runpy.run_path(str(LAYERS))["TARGETS"]


@pytest.mark.parametrize(
    "module,attr", [t[1:3] for t in TARGETS], ids=[t[2] for t in TARGETS]
)
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # A method is patched in its class's own __dict__, not an inherited one.
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
