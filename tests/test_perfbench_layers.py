"""The benchmark tracer (perfbench/tracer.py) wraps frue functions and methods
by name.  Every name in its LAYERS table must still exist, or a traced
benchmark run (`perfbench/run.py --trace 1`) breaks with no other test
noticing."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_still_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for name, home, cls_name, attrs, _ in tracer.LAYERS:
        owner = importlib.import_module(home)
        if cls_name is not None:
            owner = vars(owner)[cls_name]
        for attr in attrs:
            assert attr in vars(owner), f"{name}: {home} {cls_name or ''} lost {attr}"
