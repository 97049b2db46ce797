"""The benchmark tracer (perfbench/tracer.py) wraps frue functions and methods
by name.  Every name in its LAYERS table must still exist, or a traced
benchmark run (`perfbench/run.py --trace 1`) breaks with no other test
noticing; the same holds for every frue name the workloads call."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frue import envelope, hybrids, ue
from frue.matrix import RngHandle
from frue.pke import random_message_bits

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_every_traced_layer_still_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for name, home, cls_name, attrs, _ in tracer.LAYERS:
        owner = importlib.import_module(home)
        if cls_name is not None:
            owner = vars(owner)[cls_name]
        for attr in attrs:
            assert attr in vars(owner), f"{name}: {home} {cls_name or ''} lost {attr}"


@pytest.mark.parametrize("workloads", ["lifecycle, oracle, rotate", "lifecycle"])
def test_traced_pass_installs_in_a_fresh_process(workloads):
    # the tracer looks up every layer's module in sys.modules; importing the
    # workloads as run.py does must load each of them, lazy imports or not
    script = (f"import {workloads}\nimport tracer\n"
              "with tracer.Tracer().patched():\n    pass\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), str(PERFBENCH), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=PERFBENCH.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_pass_intercepts_token_randomness(monkeypatch, toy16):
    # ue_tg and the real-update oracle share token_from_randomness and the one
    # chi sampler; a traced pass must see both from each.  The oracle's first
    # draw makes a batch of 24: one chi draw of 24 rounds of the token noise
    # and R, and one token_from_randomness on the stacks; TG draws chi once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    inst = hybrids.make_update_instance(toy16)
    with tracer.Tracer().patched() as t:
        hybrids.real_update_sampler(inst, RngHandle(b"traced-draw"))()
        ue.ue_tg(RngHandle(b"traced-tg"), toy16, inst.A, inst.sk_prev, inst.pk_next, 1)
    layers = ("hybrids.sample_token_randomness", "hybrids.token_from_randomness",
              "ue.ue_upd", "ue.ue_tg", "matrix.sample_chi")
    assert {name: t.counts[f"{name}.calls"] for name in layers} == {
        "hybrids.sample_token_randomness": 1, "hybrids.token_from_randomness": 2,
        "ue.ue_upd": 0, "ue.ue_tg": 1, "matrix.sample_chi": 2}
    tg = (toy16.n * toy16.D + toy16.n) * (2 * toy16.n + toy16.n_bar)
    assert t.counts["matrix.sample_chi.words"] == 24 * (tg + toy16.m_bar * toy16.n) + tg


def test_traced_steps_draw_chi_once(monkeypatch, toy16, deployment16):
    # KeyGen, Enc and TG each draw all their noise as one chi draw, cut in
    # frue.matrix, so each traced step records one draw of all its entries
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    p, A, keys = toy16, deployment16["A"], deployment16["keys"]
    rng = RngHandle(b"traced-steps")
    m = random_message_bits(rng, p)
    steps = {"ue_kg": (lambda: ue.ue_kg(rng, p, A, 0), 2 * p.n * p.n_bar),
             "ue_enc": (lambda: ue.ue_enc(rng, p, A, keys[0], m), p.m_bar * (2 * p.n + p.n_bar)),
             "ue_tg": (lambda: ue.ue_tg(rng, p, A, keys[0].sk_S, keys[1].pk_B, 1),
                       (p.n * p.D + p.n) * (2 * p.n + p.n_bar))}
    for name, (step, entries) in steps.items():
        with tracer.Tracer().patched() as t:
            step()
        assert (t.counts["matrix.sample_chi.calls"],
                t.counts["matrix.sample_chi.words"]) == (1, entries), name


def test_traced_pack_counts_no_read(monkeypatch, toy16, deployment16):
    # every pack_* parses the bytes it wrote, but not through read_envelope,
    # so a traced pack adds nothing to the read layer's counters
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    d = deployment16
    key, tok = d["keys"][0], d["tokens"][1]
    ct = hybrids.sim_ue_enc(RngHandle(b"traced-pack"), toy16)
    with tracer.Tracer().patched() as t:
        envelope.pack_paramset(toy16)
        envelope.pack_epoch_key(toy16, key, d["a_seed"])
        envelope.pack_public_key(toy16, key.epoch, key.pk_B, d["a_seed"])
        envelope.pack_token(toy16, tok)
        envelope.pack_ciphertext(toy16, ct)
    assert t.counts["envelope.pack.calls"] == 5
    assert "envelope.read_envelope.calls" not in t.counts


def _frue_references():
    """(file, line, dotted name) of every attribute the benchmark files read
    from a name they bound by importing frue or one of its modules."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name, a.name) for a in node.names
                             if a.name.split(".")[0] == "frue")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frue":
                bound.update((a.asname or a.name, f"{node.module}.{a.name}")
                             for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                yield path.name, node.lineno, f"{bound[node.value.id]}.{node.attr}"


def test_benchmark_references_to_frue_resolve():
    # the benchmark is frozen: a move or rename in frue that it still uses
    # must fail here, not in a later benchmark run
    refs = list(_frue_references())
    # one reference through each way the benchmark binds frue proves the parse
    assert {"frue.ue_upd", "frue.cli.main", "frue.envelope.read_envelope",
            "frue.hybrids.real_update_sampler"} <= {dotted for *_, dotted in refs}
    for fname, line, dotted in refs:
        owner, attr = dotted.rsplit(".", 1)
        assert hasattr(importlib.import_module(owner), attr), \
            f"perfbench/{fname}:{line}: {dotted} does not exist"
