"""The benchmark tracer (perfbench/tracer.py) wraps frue functions and methods
by name.  Every name in its LAYERS table must still exist, or a traced
benchmark run (`perfbench/run.py --trace 1`) breaks with no other test
noticing."""

import importlib
from pathlib import Path

from frue import hybrids, ue
from frue.matrix import RngHandle

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


def test_traced_pass_intercepts_token_randomness(monkeypatch, toy16):
    # ue_tg and the real-update oracle share one token-randomness path; a
    # traced pass must see it from both, and TG must draw chi once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    inst = hybrids.make_update_instance(toy16)
    with tracer.Tracer().patched() as t:
        hybrids.real_update_sampler(inst, RngHandle(b"traced-draw"))()
        ue.ue_tg(RngHandle(b"traced-tg"), toy16, inst.A, inst.sk_prev, inst.pk_next, 1)
    layers = ("hybrids.sample_token_randomness", "hybrids.token_from_randomness",
              "ue.ue_upd", "ue.ue_tg", "matrix.sample_chi")
    assert {name: t.counts[f"{name}.calls"] for name in layers} == {
        "hybrids.sample_token_randomness": 2, "hybrids.token_from_randomness": 2,
        "ue.ue_upd": 1, "ue.ue_tg": 1, "matrix.sample_chi": 3}
