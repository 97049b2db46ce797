import ast
import ctypes
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from frue import cli, envelope as env
from frue.cli import (EXIT_EPOCH, EXIT_MALFORMED, EXIT_MSGLEN,
                      EXIT_UNKNOWN_NAME, main, message_capacity, pack_message,
                      unpack_message)
from frue.matrix import RngHandle, sample_uniform
from frue.params import (BENCH_LEVELS, BENCH_MODES, UnknownParamSetError,
                         paramset_for, registered_names)
from frue.pke import MessageLengthError
from frue.ue import UeCiphertext


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, args, catch_exceptions=False)


def make_keys(runner, tmp_path, epochs, seed="aa11", params="toy-16"):
    paths = {}
    for e in epochs:
        key, pub = tmp_path / f"k{e}.frue", tmp_path / f"p{e}.frue"
        res = invoke(runner, "keygen", "--params", params, "--epoch", str(e),
                     "--seed", seed, "--out-key", str(key), "--out-pub", str(pub))
        assert res.exit_code == 0, res.output
        paths[e] = (key, pub)
    return paths


def _lifecycle_files(runner, tmp_path):
    """Keys for epochs 0 and 1, a message, its epoch-0 ciphertext and the token."""
    make_keys(runner, tmp_path, (0, 1))
    (tmp_path / "msg").write_bytes(b"hi")
    (tmp_path / "sub").mkdir()
    for args in (["encrypt", "--key", "{d}/p0.frue", "--message-file", "{d}/msg",
                  "--out", "{d}/ct0"],
                 ["token", "--prev-key", "{d}/k0.frue", "--next-pub", "{d}/p1.frue",
                  "--out", "{d}/t1"]):
        assert invoke(runner, *[a.format(d=tmp_path) for a in args]).exit_code == 0
    return {f.name: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}


# -- framing ------------------------------------------------------------------

def test_message_framing_roundtrip(toy16):
    for payload in (b"", b"x", b"12345678"):
        assert unpack_message(pack_message(payload, toy16), toy16) == payload


def test_framing_limits(toy16, toy8):
    cap = message_capacity(toy16)
    with pytest.raises(MessageLengthError):
        pack_message(b"y" * (cap + 1), toy16)
    with pytest.raises(MessageLengthError):
        message_capacity(toy8)     # 32-bit message space cannot hold the frame


# -- lifecycle ------------------------------------------------------------------

def test_full_lifecycle_roundtrip(runner, tmp_path):
    keys = make_keys(runner, tmp_path, range(4))
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"attack!\x00")

    ct = tmp_path / "ct0.frue"
    res = invoke(runner, "encrypt", "--key", str(keys[0][0]), "--message-file",
                 str(msg), "--out", str(ct), "--seed", "01")
    assert res.exit_code == 0, res.output

    prev_ct = ct
    for e in (1, 2, 3):
        tok = tmp_path / f"t{e}.frue"
        res = invoke(runner, "token", "--prev-key", str(keys[e - 1][0]),
                     "--next-pub", str(keys[e][1]), "--out", str(tok),
                     "--seed", f"0{e + 1}")
        assert res.exit_code == 0, res.output
        nxt = tmp_path / f"ct{e}.frue"
        res = invoke(runner, "update", "--token", str(tok), "--ct", str(prev_ct),
                     "--out", str(nxt), "--seed", f"1{e}")
        assert res.exit_code == 0, res.output
        prev_ct = nxt

    out = tmp_path / "out.bin"
    res = invoke(runner, "decrypt", "--key", str(keys[3][0]), "--ct", str(prev_ct),
                 "--out", str(out))
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == b"attack!\x00"


# Every output of the key lifecycle from fixed seeds, in the order a key
# holder runs it.  Each step is (exit code, stdout, stderr, SHA-256 of every
# file it wrote): a change to the CLI, the envelope codec or the scheme that
# alters one byte of any of them fails here.  frodo-640-shake's rotated
# decrypt exits 5: one update overflows its noise budget (certified and
# empirical chain budgets are both 0), and the pinned output records that.
GOLDEN_STEPS = (
    "keygen --params {p} --epoch 0 --seed aa11 --out-key k0 --out-pub p0",
    "keygen --params {p} --epoch 1 --seed aa11 --out-key k1 --out-pub p1",
    "encrypt --key p0 --message-file msg --seed 01 --out ct0",
    "token --prev-key k0 --next-pub p1 --seed 02 --out t1",
    "update --token t1 --ct ct0 --seed 03 --out ct1",
    "decrypt --key k0 --ct ct0 --out m0",
    "decrypt --key k1 --ct ct1 --out m1",
    "params show {p} --out ps",
)
_WARN_640 = ("warning: frodo-640-shake is certified for 0 chained updates and 0 ran "
             "clean in trials; updated ciphertexts may not decrypt\n")
GOLDEN_OUTPUTS = {
    "frodo-640-shake": [
        (0, "wrote k0 and p0 (frodo-640-shake, epoch 0)\n", "",
         {"k0": "307f5b1a9a9a0e528ae388dfaf0c39a0a8fb5b48745c0b88dc9ff41fe971bafb",
          "p0": "82ec2e3ed08b0d5e7546668797b5e4efa32b858ff1b5e55771de730fa1046fc4"}),
        (0, "wrote k1 and p1 (frodo-640-shake, epoch 1)\n", "",
         {"k1": "24604ad9ec5404af9227f2ea64a76f02847807957493014f7eb7e6e02f298c76",
          "p1": "40fc5cc8d634a49c285077e2cd406d9da833e5fa93e54136eb2a1bf06710e509"}),
        (0, "wrote ct0 (epoch 0)\n", "",
         {"ct0": "c2581e0b1fcc42c34cbb4eba48e2bbd6647d5f5be50cd8f7e4e3e3e898da3312"}),
        (0, "wrote t1 (token into epoch 1)\n", _WARN_640,
         {"t1": "0100c8bbffa6a757902986dfc95b0c74a03fada8cdfa696f46b2b095915ffc11"}),
        (0, "wrote ct1 (epoch 1)\n", _WARN_640,
         {"ct1": "4a6cf3e8ea03cf1a4a7b7e440391709f47a695d2765697d7a1adf7a2878fb73b"}),
        (0, "wrote m0 (7 bytes)\n", "",
         {"m0": "5ac03da17d7d5241b49a9a94f86b08a431d7052c8585ca997b373f0bc7da0dcc"}),
        (5, "", "error: decoded length 13584068724964324471 exceeds capacity 8\n", {}),
        (0, "name=frodo-640-shake\nparamset_id=1\nD=15\nq=32768\nB=2\nn=640\nm_bar=8\n"
            "n_bar=8\ns=12\nchi_sample_bits=15\nchi_cdf=4643,13363,20579,25843,29227,31145,"
            "32103,32525,32689,32745,32762,32766,32767\nT_max=16\ngen_mode=shake-like\n"
            "message_bits=128\nbound_certified_epochs=0\nempirical_chain_epochs=0\n"
            "wrote ps\n", "",
         {"ps": "fd2df03a2c66dabae108a0d7ad8ed7b657bdf3a16cddf6fd2aa581e4961d71fc"}),
    ],
    "toy-16": [
        (0, "wrote k0 and p0 (toy-16, epoch 0)\n", "",
         {"k0": "d6ca4ba088e91d46682c1ce20cac389da7da5445bc2a987d15929932c6a31d5b",
          "p0": "e2186747904d2e301bd193973220cd5fc256a0d43e2f7a5e872029bc86742134"}),
        (0, "wrote k1 and p1 (toy-16, epoch 1)\n", "",
         {"k1": "bf98807594376e074e900a0c9d048a2e91136d8c69043b5a55d8655967dcd061",
          "p1": "33732919b158180461538d104540d2ac6521e080c5412410c802385bc9e44fde"}),
        (0, "wrote ct0 (epoch 0)\n", "",
         {"ct0": "12c1f7cdfdc5d27a0427f7e81e836a3e6b7e0aea2c21f106d423678285b71db6"}),
        (0, "wrote t1 (token into epoch 1)\n", "",
         {"t1": "51dc21b797960b9929e7e4df7052cfed92822815d8ec15cba69d218873f9bb13"}),
        (0, "wrote ct1 (epoch 1)\n", "",
         {"ct1": "8cbf66db067bae689d57f412eaf706f349929181c441f126e1a7ab9f93ca6d5f"}),
        (0, "wrote m0 (7 bytes)\n", "",
         {"m0": "5ac03da17d7d5241b49a9a94f86b08a431d7052c8585ca997b373f0bc7da0dcc"}),
        (0, "wrote m1 (7 bytes)\n", "",
         {"m1": "5ac03da17d7d5241b49a9a94f86b08a431d7052c8585ca997b373f0bc7da0dcc"}),
        (0, "name=toy-16\nparamset_id=100\nD=16\nq=65536\nB=1\nn=8\nm_bar=16\nn_bar=8\n"
            "s=1\nchi_sample_bits=15\nchi_cdf=16383,32767\nT_max=4\ngen_mode=toy\n"
            "message_bits=128\nbound_certified_epochs=7\nempirical_chain_epochs=4\n"
            "wrote ps\n", "",
         {"ps": "5106e50a3eb43206b0eb545175978423dc7ee0283ef598b563c8fe7130d6520f"}),
    ],
}


@pytest.mark.parametrize("params", sorted(GOLDEN_OUTPUTS))
def test_lifecycle_outputs_match_golden(runner, tmp_path, monkeypatch, params):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "msg").write_bytes(b"golden\n")
    seen, got = {}, []
    for step in GOLDEN_STEPS:
        res = invoke(runner, *step.format(p=params).split())
        files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in tmp_path.iterdir() if f.name != "msg"}
        got.append((res.exit_code, res.stdout, res.stderr,
                    {name: h for name, h in files.items() if seen.get(name) != h}))
        seen = files
    assert got == GOLDEN_OUTPUTS[params]


def test_token_and_update_warn_without_chain_budget(runner, tmp_path):
    # frodo-640's certified and empirical chain budgets are both 0: token and
    # update still exit 0 and write their files, each with one warning line
    # on stderr; toy-16 (certified for 7 updates, 4 clean in trials) warns not
    warning = ("warning: frodo-640-shake is certified for 0 chained updates and 0 "
               "ran clean in trials; updated ciphertexts may not decrypt")
    for params, want in (("frodo-640", [warning]), ("toy-16", [])):
        d = tmp_path / params
        d.mkdir()
        keys = make_keys(runner, d, (0, 1), params=params)
        (d / "m").write_bytes(b"hi")
        res = invoke(runner, "encrypt", "--key", str(keys[0][1]), "--message-file",
                     str(d / "m"), "--out", str(d / "ct0"), "--seed", "01")
        assert res.exit_code == 0 and res.stderr == ""
        for args, out in (
                (("token", "--prev-key", str(keys[0][0]), "--next-pub", str(keys[1][1]),
                  "--seed", "02"), d / "t1"),
                (("update", "--token", str(d / "t1"), "--ct", str(d / "ct0"),
                  "--seed", "03"), d / "ct1")):
            res = invoke(runner, *args, "--out", str(out))
            assert res.exit_code == 0 and out.is_file()
            assert res.stderr.splitlines() == want


def test_unseeded_steps_draw_fresh_seeds(runner, tmp_path):
    # without --seed each step draws its own random seed: the steps succeed,
    # and two keygens give two different keys
    for name in ("a", "b"):
        res = invoke(runner, "keygen", "--params", "toy-16", "--epoch", "0",
                     "--out-key", str(tmp_path / f"k-{name}"),
                     "--out-pub", str(tmp_path / f"p-{name}"))
        assert res.exit_code == 0, res.output
    assert (tmp_path / "k-a").read_bytes() != (tmp_path / "k-b").read_bytes()
    # token needs one deployment (public-matrix seed) for both keys
    keys = make_keys(runner, tmp_path, (0, 1))
    (tmp_path / "msg").write_bytes(b"fresh")
    for args in (("encrypt", "--key", str(keys[0][1]), "--message-file",
                  str(tmp_path / "msg"), "--out", str(tmp_path / "ct0")),
                 ("token", "--prev-key", str(keys[0][0]), "--next-pub", str(keys[1][1]),
                  "--out", str(tmp_path / "t1")),
                 ("update", "--token", str(tmp_path / "t1"), "--ct", str(tmp_path / "ct0"),
                  "--out", str(tmp_path / "ct1")),
                 ("decrypt", "--key", str(keys[1][0]), "--ct", str(tmp_path / "ct1"),
                  "--out", str(tmp_path / "out"))):
        res = invoke(runner, *args)
        assert res.exit_code == 0, res.output
    assert (tmp_path / "out").read_bytes() == b"fresh"


# Loaded on demand only: the bench timing harness, game-run's JSON reader and
# the exact bound arithmetic.  frue never imports secrets (an unseeded run
# reads os.urandom); numpy.random loads it in a step that draws.
_ON_DEMAND = ("frue.bench", "statistics", "json", "secrets", "fractions", "decimal")


def _modules_loaded(cwd, preload, *argvs):
    """Modules a fresh interpreter loads running each argv through
    frue.cli.main, beyond those that importing preload has loaded."""
    script = textwrap.dedent(f"""
        import sys
        import {preload}
        before = set(sys.modules)
        from frue.cli import main
        for argv in {[argv.split() for argv in argvs]!r}:
            main(argv, standalone_mode=False)
        print(sorted(set(sys.modules) - before))
    """)
    proc = _python(cwd, script)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _python(cwd, script):
    """Run script in a fresh interpreter that imports frue from this tree."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_lifecycle_steps_load_only_what_they_run(tmp_path):
    (tmp_path / "msg").write_bytes(b"budget")
    # every seeded step that draws loads numpy.random, which imports secrets
    # for its own entropy source
    drawing = _modules_loaded(
        tmp_path, "numpy, numpy.random, click",
        "keygen --params toy-16 --epoch 0 --seed aa11 --out-key k0 --out-pub p0",
        "keygen --params toy-16 --epoch 1 --seed aa11 --out-key k1 --out-pub p1",
        "encrypt --key p0 --message-file msg --seed 01 --out ct0",
        "token --prev-key k0 --next-pub p1 --seed 02 --out t1",
        "update --token t1 --ct ct0 --seed 03 --out ct1")
    reading = _modules_loaded(tmp_path, "numpy, click",
                              "decrypt --key k1 --ct ct1 --out out", "params show toy-16")
    assert (tmp_path / "out").read_bytes() == b"budget"
    for loaded in (drawing, reading):
        assert "frue.cli" in loaded
        assert [m for m in _ON_DEMAND if m in loaded] == []


def test_update_epoch_mismatch_exit_code(runner, tmp_path):
    _lifecycle_files(runner, tmp_path)
    ct, tok, ct1 = tmp_path / "ct0", tmp_path / "t1", tmp_path / "ct1"
    invoke(runner, "update", "--token", str(tok), "--ct", str(ct), "--out", str(ct1))
    # applying the same token again: ciphertext is already at the target epoch
    res = runner.invoke(main, ["update", "--token", str(tok), "--ct", str(ct1),
                               "--out", str(tmp_path / "bad.frue")])
    assert res.exit_code == EXIT_EPOCH


def test_token_file_into_epoch_0_is_malformed(runner, tmp_path):
    before = _lifecycle_files(runner, tmp_path)
    tok = bytearray(before["t1"])
    tok[8:12] = (0).to_bytes(4, "little")           # the header's epoch field
    (tmp_path / "t0").write_bytes(tok)
    with pytest.raises(env.MalformedEnvelopeError, match=r"^token epoch must be >= 1$"):
        env.read_envelope(bytes(tok))
    res = runner.invoke(main, ["update", "--token", str(tmp_path / "t0"), "--ct",
                               str(tmp_path / "ct0"), "--out", str(tmp_path / "ct1")])
    assert res.exit_code == EXIT_MALFORMED
    assert "token epoch must be >= 1" in res.stderr
    assert not (tmp_path / "ct1").exists()


def test_token_across_two_epochs_is_epoch_mismatch(runner, tmp_path):
    keys = make_keys(runner, tmp_path, (0, 2))
    out = tmp_path / "t2.frue"
    res = runner.invoke(main, ["token", "--prev-key", str(keys[0][0]), "--next-pub",
                               str(keys[2][1]), "--out", str(out)])
    assert res.exit_code == EXIT_EPOCH
    assert "need consecutive epochs, got 0 -> 2" in res.stderr
    assert not out.exists()


def test_decrypt_with_wrong_epoch_key(runner, tmp_path):
    _lifecycle_files(runner, tmp_path)
    res = runner.invoke(main, ["decrypt", "--key", str(tmp_path / "k1.frue"), "--ct",
                               str(tmp_path / "ct0"), "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == EXIT_EPOCH


def test_truncated_ciphertext_exit_code(runner, tmp_path):
    _lifecycle_files(runner, tmp_path)
    ct = tmp_path / "ct0"
    ct.write_bytes(ct.read_bytes()[:-7])
    res = runner.invoke(main, ["decrypt", "--key", str(tmp_path / "k0.frue"), "--ct",
                               str(ct), "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == EXIT_MALFORMED


def test_ciphertext_with_a_long_tail_is_read_bounded(runner, tmp_path):
    _lifecycle_files(runner, tmp_path)
    ct = tmp_path / "ct0"
    size = ct.stat().st_size
    with open(ct, "r+b") as fh:                     # a sparse 64 MiB tail of zeros
        fh.truncate(size + 64 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(env.MalformedEnvelopeError, match="542 bytes, got 543$"):
            env.read_envelope_file(ct, env.KIND_CIPHERTEXT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"read peaked at {peak} bytes"
    res = runner.invoke(main, ["decrypt", "--key", str(tmp_path / "k0.frue"), "--ct",
                               str(ct), "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == EXIT_MALFORMED
    assert res.stderr == "error: ciphertext of toy-16 must be 542 bytes, got 543\n"
    assert not (tmp_path / "o.bin").exists()


def test_oversized_message_exit_code(runner, tmp_path, toy16):
    keys = make_keys(runner, tmp_path, (0,))
    msg = tmp_path / "big.bin"
    msg.write_bytes(b"q" * (message_capacity(toy16) + 1))
    res = runner.invoke(main, ["encrypt", "--key", str(keys[0][0]),
                               "--message-file", str(msg), "--out",
                               str(tmp_path / "ct.frue")])
    assert res.exit_code == EXIT_MSGLEN
    # a sparse 64 MiB file is refused after capacity + 1 bytes, not read whole
    with open(msg, "r+b") as fh:
        fh.truncate(64 * 2**20)
    tracemalloc.start()
    try:
        res = runner.invoke(main, ["encrypt", "--key", str(keys[0][0]),
                                   "--message-file", str(msg), "--out",
                                   str(tmp_path / "ct.frue")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == EXIT_MSGLEN
    assert peak < 2**20, f"encrypt peaked at {peak} bytes"
    assert res.stderr == "error: message longer than the 8 bytes toy-16 can carry\n"
    assert not (tmp_path / "ct.frue").exists()


def test_decrypt_reads_a_ciphertext_from_a_pipe(runner, tmp_path, fifo):
    # the envelope reader reads forward only, so a FIFO works as --ct
    files = _lifecycle_files(runner, tmp_path)
    res = runner.invoke(main, ["decrypt", "--key", str(tmp_path / "k0.frue"), "--ct",
                               str(fifo(files["ct0"])), "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "o.bin").read_bytes() == b"hi"


def test_deployment_mismatch_rejected(runner, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = make_keys(runner, tmp_path / "a", (0,), seed="aa11")
    b = make_keys(runner, tmp_path / "b", (1,), seed="bb22")
    res = runner.invoke(main, ["token", "--prev-key", str(a[0][0]),
                               "--next-pub", str(b[1][1]), "--out",
                               str(tmp_path / "t.frue")])
    assert res.exit_code == EXIT_MALFORMED


@pytest.mark.parametrize("cmd", ["decrypt", "token", "update"])
def test_mismatched_parameter_sets_rejected(runner, tmp_path, toy8, cmd):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    k16 = make_keys(runner, tmp_path / "a", (0, 1))
    k8 = make_keys(runner, tmp_path / "b", (1,), params="toy-8")
    rng = RngHandle(b"ct8")
    ct8 = tmp_path / "ct8.frue"        # encrypt cannot frame a file in toy-8's 32 bits
    ct8.write_bytes(env.pack_ciphertext(toy8, UeCiphertext(
        0, sample_uniform(rng, toy8.m_bar, toy8.n, toy8),
        sample_uniform(rng, toy8.m_bar, toy8.n_bar, toy8))))
    tok16 = tmp_path / "t1.frue"
    invoke(runner, "token", "--prev-key", str(k16[0][0]), "--next-pub",
           str(k16[1][1]), "--out", str(tok16))
    out = tmp_path / "o.frue"
    args = {"decrypt": ["--key", k16[0][0], "--ct", ct8],
            "token": ["--prev-key", k16[0][0], "--next-pub", k8[1][1]],
            "update": ["--token", tok16, "--ct", ct8]}[cmd]
    res = runner.invoke(main, [cmd, *map(str, args), "--out", str(out)])
    assert res.exit_code == EXIT_MALFORMED, res.output
    assert "different parameter sets" in res.stderr
    assert not out.exists()


def test_decrypt_with_public_key_file_names_the_kind(runner, tmp_path):
    _lifecycle_files(runner, tmp_path)
    res = runner.invoke(main, ["decrypt", "--key", str(tmp_path / "p0.frue"), "--ct",
                               str(tmp_path / "ct0"), "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == EXIT_MALFORMED
    assert res.stderr == "error: expected an epoch-key file, got public-key\n"


def test_encrypt_with_non_key_file_names_both_kinds(runner, tmp_path):
    _lifecycle_files(runner, tmp_path)
    out = tmp_path / "ct2.frue"
    res = runner.invoke(main, ["encrypt", "--key", str(tmp_path / "ct0"), "--message-file",
                               str(tmp_path / "msg"), "--out", str(out)])
    assert res.exit_code == EXIT_MALFORMED
    assert res.stderr == ("error: expected an epoch-key or public-key file, "
                          "got ciphertext\n")
    assert not out.exists()


def test_keygen_epoch_out_of_range_is_usage_error(runner, tmp_path):
    out = ["--out-key", str(tmp_path / "k.frue"), "--out-pub", str(tmp_path / "p.frue")]
    for epoch in ("4294967296", "-1"):
        res = runner.invoke(main, ["keygen", "--params", "toy-16", "--epoch", epoch,
                                   "--seed", "aa11", *out])
        assert res.exit_code == 2, res.output          # usage error, no traceback
        assert "--epoch" in res.output
    assert not (tmp_path / "k.frue").exists()
    res = invoke(runner, "keygen", "--params", "toy-16", "--epoch", "4294967295",
                 "--seed", "aa11", *out)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("seed", ["zz", "abc", "", " "])  # not hex; odd length; no bytes
@pytest.mark.parametrize("args", [
    ["keygen", "--params", "toy-16", "--epoch", "0", "--out-key", "{d}/k", "--out-pub", "{d}/p"],
    ["encrypt", "--key", "{d}/f", "--message-file", "{d}/f", "--out", "{d}/o"],
    ["token", "--prev-key", "{d}/f", "--next-pub", "{d}/f", "--out", "{d}/o"],
    ["update", "--token", "{d}/f", "--ct", "{d}/f", "--out", "{d}/o"],
    ["game-run", "--script", "{d}/f"],
    ["hybrids-test", "--samples", "100"],
], ids=lambda args: args[0])
def test_non_hex_seed_is_usage_error(runner, tmp_path, args, seed):
    (tmp_path / "f").write_bytes(b"")
    res = runner.invoke(main, [a.format(d=tmp_path) for a in args] + ["--seed", seed])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)          # reported, not a traceback
    assert "--seed" in res.stderr and "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]


_ARGS_WITH_DIRS = {         # each command's other arguments; {d} is a directory, {f} a file
    "keygen": ["--params", "toy-16", "--epoch", "0", "--out-key", "{d}/k", "--out-pub", "{d}/p"],
    "encrypt": ["--key", "{f}", "--message-file", "{f}", "--out", "{d}/o"],
    "decrypt": ["--key", "{f}", "--ct", "{f}", "--out", "{d}/o"],
    "token": ["--prev-key", "{f}", "--next-pub", "{f}", "--out", "{d}/o"],
    "update": ["--token", "{f}", "--ct", "{f}", "--out", "{d}/o"],
    "game-run": ["--script", "{f}"],
    "params show": ["toy-16", "--out", "{d}/o"],
    "bench": ["--level", "640", "--mode", "shake-like", "--runs", "1", "--out", "{d}/o"],
}


@pytest.mark.parametrize("cmd, option", [
    (cmd, a) for cmd, args in _ARGS_WITH_DIRS.items() for a in args
    if a.startswith("--") and "{" in args[args.index(a) + 1]])
def test_directory_as_path_is_usage_error(runner, tmp_path, cmd, option):
    (tmp_path / "f").write_bytes(b"")
    (tmp_path / "dir").mkdir()
    args = [a.format(d=tmp_path, f=tmp_path / "f") for a in _ARGS_WITH_DIRS[cmd]]
    args[args.index(option) + 1] = str(tmp_path / "dir")
    res = runner.invoke(main, [*cmd.split(), *args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)          # reported, not a traceback
    assert option in res.stderr and "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "f"]
    assert not any((tmp_path / "dir").iterdir())


_ARGS_MISSING_DIR = {       # real toy-16 inputs; {miss} is a path in a missing directory
    "keygen --out-key": ["keygen", "--params", "toy-16", "--epoch", "2", "--seed", "aa11",
                         "--out-key", "{miss}", "--out-pub", "{d}/p2"],
    "keygen --out-pub": ["keygen", "--params", "toy-16", "--epoch", "2", "--seed", "aa11",
                         "--out-key", "{d}/k2", "--out-pub", "{miss}"],
    "params show --out": ["params", "show", "toy-16", "--out", "{miss}"],
    "encrypt --out": ["encrypt", "--key", "{d}/p0.frue", "--message-file", "{d}/msg",
                      "--out", "{miss}"],
    "decrypt --out": ["decrypt", "--key", "{d}/k0.frue", "--ct", "{d}/ct0", "--out", "{miss}"],
    "token --out": ["token", "--prev-key", "{d}/k0.frue", "--next-pub", "{d}/p1.frue",
                    "--out", "{miss}"],
    "update --out": ["update", "--token", "{d}/t1", "--ct", "{d}/ct0", "--out", "{miss}"],
}


@pytest.mark.parametrize("case", list(_ARGS_MISSING_DIR))
def test_output_in_missing_directory_is_usage_error(runner, tmp_path, case):
    make_keys(runner, tmp_path, (0, 1))
    (tmp_path / "msg").write_bytes(b"hi")
    for args in (["encrypt", "--key", "{d}/p0.frue", "--message-file", "{d}/msg",
                  "--out", "{d}/ct0"],
                 ["token", "--prev-key", "{d}/k0.frue", "--next-pub", "{d}/p1.frue",
                  "--out", "{d}/t1"]):
        assert invoke(runner, *[a.format(d=tmp_path) for a in args]).exit_code == 0
    miss = tmp_path / "nodir" / "o"
    res = runner.invoke(main, [a.format(d=tmp_path, miss=miss)
                               for a in _ARGS_MISSING_DIR[case]])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)          # reported, not a traceback
    assert str(miss) in res.stderr and "Traceback" not in res.stderr
    assert not miss.parent.exists()


def test_failed_output_leaves_no_secret_or_dump(runner, tmp_path):
    miss, key = tmp_path / "nodir" / "o", tmp_path / "k2"
    res = runner.invoke(main, ["keygen", "--params", "toy-16", "--epoch", "2", "--seed",
                               "aa11", "--out-key", str(key), "--out-pub", str(miss)])
    assert res.exit_code == 2 and not key.exists()
    res = runner.invoke(main, ["params", "show", "toy-16", "--out", str(miss)])
    assert res.exit_code == 2 and "name=" not in res.stdout


# per command: arguments in which an output names a key or token file the
# command reads, or its other output, then the two options that name that file
_CLASHES = [
    (["keygen", "--params", "toy-16", "--epoch", "2", "--seed", "aa11",
      "--out-key", "{d}/x", "--out-pub", "{d}/x"], "--out-key", "--out-pub"),
    (["encrypt", "--key", "{d}/p0.frue", "--message-file", "{d}/msg", "--out", "{d}/p0.frue"],
     "--key", "--out"),
    (["decrypt", "--key", "{d}/k0.frue", "--ct", "{d}/ct0", "--out", "{d}/./k0.frue"],
     "--key", "--out"),
    (["token", "--prev-key", "{d}/k0.frue", "--next-pub", "{d}/p1.frue",
      "--out", "{d}/sub/../k0.frue"], "--prev-key", "--out"),
    (["update", "--token", "{d}/t1", "--ct", "{d}/ct0", "--out", "{d}/t1"], "--token", "--out"),
]


@pytest.mark.parametrize("args, option_a, option_b", _CLASHES,
                         ids=[args[0] for args, *_ in _CLASHES])
def test_output_naming_a_file_of_the_command_is_usage_error(runner, tmp_path, args,
                                                           option_a, option_b):
    before = _lifecycle_files(runner, tmp_path)
    res = runner.invoke(main, [a.format(d=tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)          # reported, not a traceback
    assert option_a in res.stderr and option_b in res.stderr
    assert "Traceback" not in res.stderr
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before


def test_update_may_rotate_in_place(runner, tmp_path):
    before = _lifecycle_files(runner, tmp_path)
    res = invoke(runner, "update", "--token", str(tmp_path / "t1"), "--ct",
                 str(tmp_path / "ct0"), "--out", str(tmp_path / "ct0"), "--seed", "03")
    assert res.exit_code == 0, res.output
    assert (tmp_path / "ct0").read_bytes() != before["ct0"]
    res = invoke(runner, "decrypt", "--key", str(tmp_path / "k1.frue"), "--ct",
                 str(tmp_path / "ct0"), "--out", str(tmp_path / "out"))
    assert res.exit_code == 0 and (tmp_path / "out").read_bytes() == b"hi"


def test_failed_rotation_in_place_keeps_the_ciphertext(runner, tmp_path):
    # a write cut short at 100 bytes (the ciphertext has 542) fails the step
    before = _lifecycle_files(runner, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    argv = ["update", "--token", "t1", "--ct", "ct0", "--out", "ct0", "--seed", "03"]
    proc = _python(tmp_path, textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))
        from frue.cli import main
        main({argv!r})
    """))
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr and "Traceback" not in proc.stderr
    assert (tmp_path / "ct0").read_bytes() == before["ct0"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    res = invoke(runner, "decrypt", "--key", str(tmp_path / "k0.frue"), "--ct",
                 str(tmp_path / "ct0"), "--out", str(tmp_path / "out"))
    assert res.exit_code == 0 and (tmp_path / "out").read_bytes() == b"hi"


def test_rotation_keeps_the_mode_and_a_symlink(runner, tmp_path):
    before = _lifecycle_files(runner, tmp_path)
    (tmp_path / "ct0").chmod(0o600)
    (tmp_path / "link").symlink_to("ct0")
    link = str(tmp_path / "link")
    res = invoke(runner, "update", "--token", str(tmp_path / "t1"), "--ct", link,
                 "--out", link, "--seed", "03")
    assert res.exit_code == 0, res.output
    assert os.readlink(link) == "ct0" and (tmp_path / "ct0").read_bytes() != before["ct0"]
    assert stat.S_IMODE((tmp_path / "ct0").stat().st_mode) == 0o600
    # a new output gets the mode a plain open gives it
    res = invoke(runner, "decrypt", "--key", str(tmp_path / "k1.frue"), "--ct", link,
                 "--out", str(tmp_path / "out"))
    assert res.exit_code == 0 and (tmp_path / "out").read_bytes() == b"hi"
    (tmp_path / "plain").touch()
    assert (tmp_path / "out").stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".part")]


def test_output_to_a_pipe_is_written_in_place(runner, tmp_path):
    _lifecycle_files(runner, tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)    # so the writer does not block
    try:
        res = invoke(runner, "decrypt", "--key", str(tmp_path / "k0.frue"), "--ct",
                     str(tmp_path / "ct0"), "--out", str(fifo))
        assert res.exit_code == 0, res.output
        assert os.read(reader, 64) == b"hi"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def _rotate_in_place(runner, tmp_path):
    return runner.invoke(main, ["update", "--token", str(tmp_path / "t1"), "--ct",
                                str(tmp_path / "ct0"), "--out", str(tmp_path / "ct0"),
                                "--seed", "03"])


def test_read_only_output_is_refused(runner, tmp_path, monkeypatch):
    before = _lifecycle_files(runner, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    ct0 = tmp_path / "ct0"
    ct0.chmod(0o400)
    if os.geteuid() == 0:               # root may write any file: answer as the kernel would
        real_open = os.open

        def denying_open(path, flags, *args, **kwargs):
            if os.fspath(path) == str(ct0) and flags & os.O_ACCMODE != os.O_RDONLY:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, flags, *args, **kwargs)
        monkeypatch.setattr(os, "open", denying_open)
    res = _rotate_in_place(runner, tmp_path)
    monkeypatch.undo()
    assert res.exit_code == 2 and "Permission denied" in res.stderr, res.output
    assert ct0.read_bytes() == before["ct0"] and stat.S_IMODE(ct0.stat().st_mode) == 0o400
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_planted_part_file_is_not_written_through(runner, tmp_path):
    before = _lifecycle_files(runner, tmp_path)
    victim = tmp_path / "victim"
    victim.write_bytes(b"victim")
    part = Path(f"{os.path.realpath(tmp_path / 'ct0')}.{os.getpid()}.part")
    part.symlink_to(victim)
    res = _rotate_in_place(runner, tmp_path)
    assert res.exit_code == 2 and "File exists" in res.stderr, res.output
    assert victim.read_bytes() == b"victim" and os.readlink(part) == str(victim)
    assert (tmp_path / "ct0").read_bytes() == before["ct0"]


@pytest.mark.skipif(os.geteuid() != 0, reason="only root may give a file to another user")
def test_rotation_keeps_the_owner_and_group(runner, tmp_path, monkeypatch):
    before = _lifecycle_files(runner, tmp_path)
    ct0 = tmp_path / "ct0"
    os.chown(ct0, 65534, 65534)
    ct0.chmod(0o664)                    # the umask takes the group write bit from a new file
    modes = []                          # the sibling's mode before it gets the old owner
    real_fchown = os.fchown
    monkeypatch.setattr(os, "fchown", lambda fd, uid, gid: (
        modes.append(stat.S_IMODE(os.fstat(fd).st_mode)), real_fchown(fd, uid, gid)))
    res = _rotate_in_place(runner, tmp_path)
    assert res.exit_code == 0, res.output
    assert ct0.read_bytes() != before["ct0"] and modes == [0o600]
    st_ = ct0.stat()
    assert (st_.st_uid, st_.st_gid, stat.S_IMODE(st_.st_mode)) == (65534, 65534, 0o664)


def test_rotation_by_a_user_outside_the_old_group_keeps_the_mode(runner, tmp_path,
                                                                  monkeypatch):
    # fchown refused, as for a group this process is not in: the file is otherwise its own
    before = _lifecycle_files(runner, tmp_path)
    ct0 = tmp_path / "ct0"
    ct0.chmod(0o640)

    def denying_fchown(fd, uid, gid):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))
    monkeypatch.setattr(os, "fchown", denying_fchown)
    res = _rotate_in_place(runner, tmp_path)
    assert res.exit_code == 0, res.output
    assert ct0.read_bytes() != before["ct0"] and stat.S_IMODE(ct0.stat().st_mode) == 0o640
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".part")]


def test_every_output_has_one_writer():
    # frue.cli opens a file for writing in _write alone, so the commit-by-rename
    # rule that keeps the old file on a failed step is stated once
    tree = ast.parse(Path(cli.__file__).read_text())

    def writing_opens(root):
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
                if mode and not (isinstance(mode[0], ast.Constant)
                                 and set(mode[0].value) <= set("rbt")):
                    yield node
            elif ast.unparse(node.func) in ("os.open", "os.fdopen"):   # any mode
                yield node

    writer = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_write")
    inside = set(writing_opens(writer))
    assert inside                                   # the check is not vacuous
    assert [n.lineno for n in writing_opens(tree) if n not in inside] == []


def _commands(group: click.Group):
    for cmd in group.commands.values():
        yield cmd
        if isinstance(cmd, click.Group):
            yield from _commands(cmd)


def test_every_path_option_rejects_directories():
    paths = [(cmd.name, param.name, param.type.dir_okay) for cmd in _commands(main)
             for param in cmd.params if isinstance(param.type, click.Path)]
    assert len(paths) == 17                     # the walk reaches into `params`
    assert [p for p in paths if p[2]] == []


def test_params_commands(runner):
    res = invoke(runner, "params", "list")
    assert res.exit_code == 0
    for name in ("frodo-640-shake", "frodo-1344-aes", "toy-16", "toy-8"):
        assert name in res.output
    res = invoke(runner, "params", "show", "toy-16")
    assert "n=8" in res.output and "D=16" in res.output
    res = runner.invoke(main, ["params", "show", "nope"])
    assert res.exit_code == EXIT_UNKNOWN_NAME


@pytest.mark.parametrize("args", [
    ("params", "show", "nope"),
    ("keygen", "--params", "nope", "--epoch", "0", "--out-key", "k", "--out-pub", "p"),
])
def test_unknown_params_name_is_reported(runner, args):
    with runner.isolated_filesystem():
        res = invoke(runner, *args)
    assert res.exit_code == EXIT_UNKNOWN_NAME
    assert "unknown parameter set 'nope'" in res.stderr
    assert "toy-16" in res.stderr
    assert "Traceback" not in res.output


def test_params_show_writes_envelope(runner, tmp_path):
    from frue import envelope as env
    out = tmp_path / "toy16.frue"
    res = invoke(runner, "params", "show", "toy-16", "--out", str(out))
    assert res.exit_code == 0
    e = env.read_envelope_file(out, env.KIND_PARAMSET)
    assert e.p.name == "toy-16" and "chi_cdf=" in e.payload


def test_verify_bound_command(runner):
    res = invoke(runner, "verify-bound", "--params", "toy-16", "--max-epochs", "4")
    assert res.exit_code == 0
    assert "certified" in res.output and "2312" in res.output
    res = runner.invoke(main, ["verify-bound", "--params", "frodo-640",
                               "--max-epochs", str(2**20)])
    assert res.exit_code == 1
    assert "NOT certified" in res.output
    assert "empirically" in res.output
    res = runner.invoke(main, ["verify-bound", "--params", "toy-16",
                               "--max-epochs", "0"])
    assert res.exit_code == 2                      # usage error


def test_game_run_clean_and_trivial(runner, tmp_path, toy16):
    hexmsg = "00" * (toy16.ell // 8)
    clean = tmp_path / "clean.jsonl"
    clean.write_text("\n".join(json.dumps(r) for r in [
        {"op": "enc", "message": hexmsg},
        {"op": "next"},
        {"op": "upd", "qid": 1},
        {"op": "dec", "qid": 1},
        {"op": "guess", "bit": 1},
    ]))
    res = invoke(runner, "game-run", "--script", str(clean), "--seed", "0abc")
    assert res.exit_code == 0
    assert "verdict=clean" in res.output and "returned=1" in res.output

    trivial = tmp_path / "trivial.jsonl"
    trivial.write_text("\n".join(json.dumps(r) for r in [
        {"op": "enc", "message": hexmsg},
        {"op": "next"},
        {"op": "chall", "message": "ff" * (toy16.ell // 8), "qid": 1},
        {"op": "corr", "inp": "key", "epoch": 1},
        {"op": "upd-ct"},
    ]))
    res = invoke(runner, "game-run", "--script", str(trivial), "--seed", "0abc")
    assert res.exit_code == 0
    assert "verdict=trivial-win" in res.output
    assert "K  = [1]" in res.output


HEX16 = "00" * 16                  # one toy-16 message: ell = 128 bits

TWO_HOP = [
    ({"op": "enc", "message": "00112233445566778899aabbccddeeff"},
     "enc -> qid 1 at epoch 0"),
    ({"op": "upd", "qid": 9}, "upd qid 9 -> reject"),           # no such qid
    ({"op": "chall", "message": HEX16, "qid": 9}, "chall -> reject"),
    ({"op": "next"}, "next -> epoch 1"),
    ({"op": "upd", "qid": 1}, "upd qid 1 -> ok"),
    ({"op": "next"}, "next -> epoch 2"),
    ({"op": "upd", "qid": 1}, "upd qid 1 -> ok"),               # the version upd made
    ({"op": "dec", "qid": 1}, "dec -> 00112233445566778899aabbccddeeff"),
    ({"op": "dec", "qid": 7}, "dec -> reject"),
    ({"op": "upd", "qid": 1}, "upd qid 1 -> reject"),           # already at epoch 2
    ({"op": "chall", "message": "ff" * 16, "qid": 1}, "chall -> reject"),
    ({"op": "next"}, "next -> epoch 3"),
    ({"op": "upd-ct"}, "upd-ct -> reject"),                     # no challenge issued
    ({"op": "dec"}, "dec -> reject"),
    ({"op": "corr", "inp": "token", "epoch": 3}, "corr token @ 3 -> ok"),
    ({"op": "guess", "bit": 1}, "guess 1"),
]


@pytest.mark.parametrize("bit", ["0", "1"])
def test_game_run_two_hop_transcript(runner, tmp_path, bit):
    # a qid's ciphertext is its latest version in the game's log: updated
    # twice, it decrypts; unknown, stale or late, the game's oracles refuse it
    script = tmp_path / "two_hop.jsonl"
    script.write_text("\n".join(json.dumps(rec) for rec, _ in TWO_HOP))
    res = invoke(runner, "game-run", "--script", str(script), "--seed", "0abc",
                 "--bit", bit)
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[:len(TWO_HOP)] == [f"[{i}] {want}" for i, (_, want) in enumerate(TWO_HOP)]
    assert lines[len(TWO_HOP):] == [
        "K  = []", "T  = [3]", "C  = []", "K* = []", "T* = [3]", "C* = []",
        "twf=0 verdict=clean guess=1 returned=1"]


def test_game_run_token_into_epoch_0_is_refused(runner, tmp_path):
    # no token enters epoch 0: the game refuses the corruption and records nothing
    script = tmp_path / "token0.jsonl"
    script.write_text("\n".join(json.dumps(r) for r in [
        {"op": "next"},
        {"op": "corr", "inp": "token", "epoch": 0},
        {"op": "guess", "bit": 0},
    ]))
    res = invoke(runner, "game-run", "--script", str(script), "--seed", "0abc")
    assert res.exit_code == 0
    assert res.stdout.splitlines() == [
        "[0] next -> epoch 1", "[1] corr token @ 0 -> reject", "[2] guess 0",
        "K  = []", "T  = []", "C  = []", "K* = []", "T* = []", "C* = []",
        "twf=0 verdict=clean guess=0 returned=0"]


@pytest.mark.parametrize("bad, code", [
    ("not json", EXIT_MALFORMED),
    ("[1, 2]", EXIT_MALFORMED),
    ('"enc"', EXIT_MALFORMED),
    ('{"op": "bogus"}', EXIT_MALFORMED),
    ('{"qid": 1}', EXIT_MALFORMED),
    ('{"op": "enc"}', EXIT_MALFORMED),
    ('{"op": "upd"}', EXIT_MALFORMED),
    ('{"op": "enc", "message": 7}', EXIT_MALFORMED),
    ('{"op": "enc", "message": "zz"}', EXIT_MALFORMED),
    ('{"op": "chall", "message": "zz", "qid": 1}', EXIT_MALFORMED),
    (f'{{"op": "chall", "message": "{HEX16}"}}', EXIT_MALFORMED),
    ('{"op": "upd", "qid": "1"}', EXIT_MALFORMED),
    ('{"op": "upd", "qid": true}', EXIT_MALFORMED),
    ('{"op": "dec", "qid": 1.0}', EXIT_MALFORMED),
    ('{"op": "corr", "inp": "key"}', EXIT_MALFORMED),
    ('{"op": "corr", "inp": "key", "epoch": "0"}', EXIT_MALFORMED),
    ('{"op": "corr", "inp": "bogus", "epoch": 0}', EXIT_MALFORMED),
    ('{"op": "guess", "bit": "x"}', EXIT_MALFORMED),
    ('{"op": "guess", "bit": 2}', EXIT_MALFORMED),
    ('{"op": "guess", "bit": true}', EXIT_MALFORMED),
    ('{"op": "enc", "message": "00"}', EXIT_MSGLEN),
    (f'{{"op": "enc", "message": "{HEX16}00"}}', EXIT_MSGLEN),    # one byte too long
    ('{"op": "chall", "message": "00", "qid": 1}', EXIT_MSGLEN),
])
def test_game_run_rejects_bad_record(runner, tmp_path, bad, code):
    script = tmp_path / "bad.jsonl"
    # blank lines are not records, so the bad line is record 2
    script.write_text(f'{{"op": "enc", "message": "{HEX16}"}}\n\n{{"op": "next"}}\n{bad}\n')
    res = runner.invoke(main, ["game-run", "--script", str(script), "--seed", "0abc"])
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)          # reported, not a traceback
    assert "script record 2: " in res.stderr


_FUZZ_VALUE = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=4), st.lists(st.integers(), max_size=2))
_FUZZ_MESSAGE = st.one_of(st.just(HEX16), st.just(HEX16), st.just(HEX16),
                          st.binary(min_size=15, max_size=17).map(bytes.hex))
_FUZZ_QID = st.integers(0, 4)
_VALID_RECORD = st.one_of(
    st.fixed_dictionaries({"op": st.just("enc"), "message": _FUZZ_MESSAGE}),
    st.just({"op": "next"}),
    st.fixed_dictionaries({"op": st.just("upd"), "qid": _FUZZ_QID}),
    st.fixed_dictionaries({"op": st.just("corr"), "inp": st.sampled_from(["key", "token"]),
                           "epoch": st.integers(-1, 4)}),
    st.fixed_dictionaries({"op": st.just("chall"), "message": _FUZZ_MESSAGE,
                           "qid": _FUZZ_QID}),
    st.just({"op": "upd-ct"}),
    st.fixed_dictionaries({"op": st.just("dec")}, optional={"qid": _FUZZ_QID}),
    st.fixed_dictionaries({"op": st.just("guess"), "bit": st.integers(0, 1)}),
)
_JUNK_RECORD = st.fixed_dictionaries(
    {"op": st.one_of(st.sampled_from(["enc", "upd", "corr", "chall", "dec", "guess"]),
                     _FUZZ_VALUE)},
    optional={name: _FUZZ_VALUE for name in ("message", "qid", "inp", "epoch", "bit")})
_JUNK_LINE = st.one_of(_JUNK_RECORD.map(json.dumps), st.text(max_size=12))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_VALID_RECORD.map(json.dumps), max_size=10),
       st.one_of(st.none(), _JUNK_LINE), st.integers(0, 10))
def test_game_run_fuzzed_script_exits_cleanly(runner, tmp_path, lines, junk, at):
    if junk is not None:
        lines.insert(at, junk)
    script = tmp_path / "fuzz.jsonl"
    script.write_text("\n".join(lines), encoding="utf-8")
    res = runner.invoke(main, ["game-run", "--script", str(script), "--seed", "0abc"])
    assert res.exit_code in (0, EXIT_MALFORMED, EXIT_MSGLEN), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_hybrids_test_command(runner):
    res = invoke(runner, "hybrids-test", "--params", "toy-16", "--samples", "200",
                 "--seed", "1dea")
    assert res.exit_code == 0
    assert res.stdout == (
        "decrypt agreement      : 200/200\n"
        "real-vs-hybrid distance: 0.16000 (baseline 0.15000)\n"
        "smudging distance      : 0.02636 (baseline 0.02505, analytic 0.00049)\n"
        "sim uniformity chi2(15): 17.88 (alpha=0.001 cutoff 37.70)\n")


def test_hybrids_test_default_seed(runner):
    # an absent --seed is the documented default, not a fresh random seed
    args = ("hybrids-test", "--params", "toy-16", "--samples", "200")
    res = invoke(runner, *args)
    assert res.exit_code == 0
    assert res.output == invoke(runner, *args, "--seed", "1bad5eed").output


def test_bench_single_run_reports_zero_std(runner, tmp_path):
    out = tmp_path / "bench.csv"
    # a repeated level is timed once
    res = invoke(runner, "bench", "--level", "640", "--mode", "shake-like",
                 "--level", "640", "--runs", "1", "--out", str(out))
    assert res.exit_code == 0
    assert res.output.count("frodo-640 (shake-like)") == 1
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,mode,op,runs,mean_s,std_s"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[2] for r in rows] == ["UE.KG", "UE.Enc", "UE.Dec", "UE.TG", "UE.Upd"]
    for r in rows:
        assert r[0] == "640" and r[1] == "shake-like" and r[3] == "1"
        assert float(r[5]) == 0.0
        assert float(r[4]) >= 0.0


def test_bench_unknown_level(runner):
    res = runner.invoke(main, ["bench", "--level", "123", "--runs", "1"])
    assert res.exit_code == EXIT_UNKNOWN_NAME
    # every target is resolved before any is timed
    res = runner.invoke(main, ["bench", "--level", "640", "--level", "123", "--runs", "1"])
    assert res.exit_code == EXIT_UNKNOWN_NAME
    assert "frodo-640" not in res.output and "UE." not in res.output
    # the library raises the one unknown-name error, with the same message
    with pytest.raises(UnknownParamSetError) as exc:
        paramset_for("123", "aes-like")
    assert str(exc.value) == "no benchmark target for level=123 mode=aes-like"
    from frue.bench import run_benchmarks
    with pytest.raises(ValueError, match="runs must be >= 1"):
        run_benchmarks(["640"], ["shake-like"], runs=0)


def test_bench_targets_are_the_registered_frodo_sets():
    for level in BENCH_LEVELS:
        for mode in BENCH_MODES:
            p = paramset_for(level, mode)
            assert p.name in registered_names() and p.name.startswith("frodo-")
            assert (str(p.n), p.gen_mode) == (level, mode)
    # and conversely: every registered non-toy set is one target, named once
    targets = [paramset_for(level, mode).name for level in BENCH_LEVELS for mode in BENCH_MODES]
    assert sorted(targets) == sorted(n for n in registered_names() if not n.startswith("toy-"))


def _openblas_thread_count_calls():
    """(get, set) thread-count calls of the OpenBLAS numpy links to; skip
    the test when numpy's BLAS exposes none of them."""
    core = getattr(np, "_core", None) or np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for get, set_ in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                      ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                      ("openblas_get_num_threads", "openblas_set_num_threads")):
        if hasattr(lib, get) and hasattr(lib, set_):
            return getattr(lib, get), getattr(lib, set_)
    pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count calls")


def test_single_blas_thread_sets_one_thread_and_restores_the_count(monkeypatch):
    from frue.bench import _single_blas_thread

    def no_library(*args, **kwargs):
        raise OSError("cannot load numpy's extension")

    get_threads, set_threads = _openblas_thread_count_calls()
    start = get_threads()
    set_threads(2)              # a count other than 1, so a restore shows
    try:
        if get_threads() != 2:
            pytest.skip("OpenBLAS here runs at most one thread")
        with _single_blas_thread():
            assert get_threads() == 1
        assert get_threads() == 2
        with pytest.raises(RuntimeError), _single_blas_thread():
            assert get_threads() == 1
            raise RuntimeError("inside the block")
        assert get_threads() == 2
        inside = None
        with monkeypatch.context() as m:    # an extension ctypes cannot load:
            m.setattr(ctypes, "CDLL", no_library)
            with _single_blas_thread():     # the block runs at the count it had
                inside = get_threads()
        assert inside == 2
    finally:
        set_threads(start)


UNKNOWN_TARGETS = {("--mode", "aes"): "level=640 mode=aes",
                   ("--level", "0640"): "level=0640 mode=aes-like"}


@pytest.mark.parametrize("args", list(UNKNOWN_TARGETS))
def test_bench_unknown_target(runner, args):
    res = runner.invoke(main, ["bench", *args, "--runs", "1"])
    assert res.exit_code == EXIT_UNKNOWN_NAME
    assert res.stdout == ""
    assert res.stderr == f"error: no benchmark target for {UNKNOWN_TARGETS[args]}\n"
