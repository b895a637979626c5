"""The benchmark's traced mode wraps dcots attributes by name
(``perfbench/layers.py``); a rename on the solve path must fail here
rather than in ``perfbench/run.py --trace 1``."""

import importlib
import runpy
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_attribute_resolves():
    wraps = runpy.run_path(str(LAYERS))["WRAPS"]
    missing = [f"dcots.{module}.{attr}" for module, attr, _, _ in wraps
               if not hasattr(importlib.import_module(f"dcots.{module}"), attr)]
    assert wraps and missing == []
