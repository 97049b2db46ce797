import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from frue import envelope as env
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


# Loaded on demand only: the bench timing harness, game-run's JSON reader, the
# random source of an unseeded run and the exact bound arithmetic.
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
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


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
    keys = make_keys(runner, tmp_path, (0, 1))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"z")
    ct = tmp_path / "ct.frue"
    invoke(runner, "encrypt", "--key", str(keys[0][0]), "--message-file",
           str(msg), "--out", str(ct))
    tok = tmp_path / "t1.frue"
    invoke(runner, "token", "--prev-key", str(keys[0][0]), "--next-pub",
           str(keys[1][1]), "--out", str(tok))
    ct1 = tmp_path / "ct1.frue"
    invoke(runner, "update", "--token", str(tok), "--ct", str(ct), "--out", str(ct1))
    # applying the same token again: ciphertext is already at the target epoch
    res = runner.invoke(main, ["update", "--token", str(tok), "--ct", str(ct1),
                               "--out", str(tmp_path / "bad.frue")])
    assert res.exit_code == EXIT_EPOCH


def test_decrypt_with_wrong_epoch_key(runner, tmp_path):
    keys = make_keys(runner, tmp_path, (0, 1))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"z")
    ct = tmp_path / "ct.frue"
    invoke(runner, "encrypt", "--key", str(keys[0][0]), "--message-file",
           str(msg), "--out", str(ct))
    res = runner.invoke(main, ["decrypt", "--key", str(keys[1][0]), "--ct",
                               str(ct), "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == EXIT_EPOCH


def test_truncated_ciphertext_exit_code(runner, tmp_path):
    keys = make_keys(runner, tmp_path, (0,))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"z")
    ct = tmp_path / "ct.frue"
    invoke(runner, "encrypt", "--key", str(keys[0][0]), "--message-file",
           str(msg), "--out", str(ct))
    ct.write_bytes(ct.read_bytes()[:-7])
    res = runner.invoke(main, ["decrypt", "--key", str(keys[0][0]), "--ct",
                               str(ct), "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == EXIT_MALFORMED


def test_oversized_message_exit_code(runner, tmp_path, toy16):
    keys = make_keys(runner, tmp_path, (0,))
    msg = tmp_path / "big.bin"
    msg.write_bytes(b"q" * (message_capacity(toy16) + 1))
    res = runner.invoke(main, ["encrypt", "--key", str(keys[0][0]),
                               "--message-file", str(msg), "--out",
                               str(tmp_path / "ct.frue")])
    assert res.exit_code == EXIT_MSGLEN


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
    keys = make_keys(runner, tmp_path, (0,))
    (tmp_path / "m").write_bytes(b"z")
    ct = tmp_path / "ct.frue"
    invoke(runner, "encrypt", "--key", str(keys[0][1]), "--message-file",
           str(tmp_path / "m"), "--out", str(ct))
    res = runner.invoke(main, ["decrypt", "--key", str(keys[0][1]), "--ct", str(ct),
                               "--out", str(tmp_path / "o.bin")])
    assert res.exit_code == EXIT_MALFORMED
    assert res.stderr == "error: expected an epoch-key file, got public-key\n"


def test_encrypt_with_non_key_file_names_both_kinds(runner, tmp_path):
    keys = make_keys(runner, tmp_path, (0,))
    (tmp_path / "m").write_bytes(b"z")
    ct = tmp_path / "ct.frue"
    invoke(runner, "encrypt", "--key", str(keys[0][0]), "--message-file",
           str(tmp_path / "m"), "--out", str(ct))
    out = tmp_path / "ct2.frue"
    res = runner.invoke(main, ["encrypt", "--key", str(ct), "--message-file",
                               str(tmp_path / "m"), "--out", str(out)])
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
    e = env.read_envelope_file(out, expect_kind=env.KIND_PARAMSET)
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
    assert "decrypt agreement      : 200/200" in res.output
    assert "smudging distance" in res.output


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


def test_bench_targets_are_the_registered_frodo_sets():
    for level in BENCH_LEVELS:
        for mode in BENCH_MODES:
            p = paramset_for(level, mode)
            assert p.name in registered_names() and p.name.startswith("frodo-")
            assert (str(p.n), p.gen_mode) == (level, mode)


UNKNOWN_TARGETS = {("--mode", "aes"): "level=640 mode=aes",
                   ("--level", "0640"): "level=0640 mode=aes-like"}


@pytest.mark.parametrize("args", list(UNKNOWN_TARGETS))
def test_bench_unknown_target(runner, args):
    res = runner.invoke(main, ["bench", *args, "--runs", "1"])
    assert res.exit_code == EXIT_UNKNOWN_NAME
    assert res.stdout == ""
    assert res.stderr == f"error: no benchmark target for {UNKNOWN_TARGETS[args]}\n"
