"""Command-line surface: key lifecycle, file encryption, bound checks,
benchmarks, and the test-oracle commands.

Exit codes are stable: 0 success, 1 `verify-bound` verdict NOT certified,
2 usage error (bad flags or values, a directory given as a file path, an
output path that resolves to a key or token file the command reads or to
its other output, or a file the OS will not open, such as an output path
in a missing directory), 3 malformed envelope, game-run script record or
mismatched input files, 4 epoch mismatch, 5 message length error, 6 unknown
parameter-set name.  One place maps exceptions to codes:
the group class of `main`, so every command shares it.

File encryption frames the plaintext inside the ell-bit message block as an
8-byte little-endian length followed by the raw bytes and zero padding, so
decryption recovers the exact input.  Parameter sets with ell < 72 bits
cannot hold the frame and are rejected for file encryption.
"""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import replace

import click
import numpy as np

from . import envelope as env
from .game import run_experiment, starred_sets
from .hybrids import (high_bits_projection, hyb_update_sampler,
                      make_update_instance, real_update_sampler, sim_ue_enc,
                      smudging_estimate, statistical_distance_estimate)
from .matrix import DimensionMismatchError, RngHandle, gen_public_matrix
from .params import (UnknownParamSetError, bound_sides, empirical_chain_epochs,
                     load_paramset, max_certified_epochs, params_dump,
                     registered_names, validate_correctness_bound)
from .pke import (MessageLengthError, bits_from_bytes, bytes_from_bits, pke_enc,
                  pke_setup)
from .ue import EpochKey, EpochMismatchError, ue_dec, ue_kg, ue_tg, ue_upd

EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_EPOCH = 4
EXIT_MSGLEN = 5
EXIT_UNKNOWN_NAME = 6


class ScriptRecordError(ValueError):
    """A game-run script line that is not a well-formed oracle call."""


_ERROR_CODES = {
    OSError: EXIT_USAGE,
    env.MalformedEnvelopeError: EXIT_MALFORMED,
    DimensionMismatchError: EXIT_MALFORMED,
    ScriptRecordError: EXIT_MALFORMED,
    EpochMismatchError: EXIT_EPOCH,
    MessageLengthError: EXIT_MSGLEN,
    UnknownParamSetError: EXIT_UNKNOWN_NAME,
}


class _ErrorBoundary(click.Group):
    """Command group whose commands report an _ERROR_CODES exception as
    `error: ...` on stderr and exit with its code (SystemExit in-process)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_ERROR_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for err_type, code in _ERROR_CODES.items()
                          if isinstance(exc, err_type)))


# a directory given for any file option is a usage error, not an OSError
_IN_FILE = click.Path(exists=True, dir_okay=False)
_OUT_FILE = click.Path(dir_okay=False)


def _hex_seed(ctx, param, value: str | None) -> bytes:
    """Click callback for --seed: hex text to bytes, or 32 fresh random bytes
    when the option is absent; not hex, or no bytes, is a usage error."""
    if value is None:
        return os.urandom(32)
    try:
        seed = bytes.fromhex(value)
    except ValueError:
        seed = b""
    if seed == b"":
        raise click.BadParameter(f"{value!r} is not a hex string of at least one byte")
    return seed


def _write(path: str, data: bytes) -> None:
    """The CLI's one file writer: writes a new `.part` sibling of the real path and renames
    it onto that path with the old file's mode, and its owner and group where this process
    may set them.  A failed step leaves the old file whole (no fsync: not power loss)."""
    if os.path.exists(path) and not os.path.isfile(path):   # a device or pipe: in place
        with open(path, "wb") as fh:
            fh.write(data)
        return
    real = os.path.realpath(path)
    old = os.stat(path) if os.path.exists(path) else None
    if old is not None:                     # refuse a file we may not write, as open() does
        os.close(os.open(path, os.O_WRONLY))
    part = f"{real}.{os.getpid()}.part"     # O_EXCL: never through a planted file or link
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                 0o666 if old is None else old.st_mode & 0o700)   # owner alone until done
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if old is not None:
                try:                        # root keeps the owner; anyone, a group they are in
                    os.fchown(fd, old.st_uid if os.geteuid() == 0 else -1, old.st_gid)
                except PermissionError:
                    pass
                os.fchmod(fd, old.st_mode & 0o7777)
        os.replace(part, real)
    except BaseException:                   # the step failed: the old file stands
        os.unlink(part)
        raise


def _no_clash(out: tuple[str, str], *keys: tuple[str, str]) -> None:
    """Usage error if output (option, path) resolves to the file of one of keys."""
    for option, path in keys:
        if os.path.realpath(path) == os.path.realpath(out[1]):
            raise click.UsageError(f"{out[0]} and {option} name the same file {path!r}")


# -- message framing --------------------------------------------------------

def message_capacity(p) -> int:
    """Largest file (in bytes) one ciphertext can carry."""
    if p.ell < 72:
        raise MessageLengthError(
            f"{p.name}: message space of {p.ell} bits cannot hold the 8-byte "
            "length frame")
    return (p.ell - 64) // 8


def pack_message(data: bytes, p) -> np.ndarray:
    cap = message_capacity(p)
    if len(data) > cap:
        raise MessageLengthError(
            f"message longer than the {cap} bytes {p.name} can carry")
    frame = struct.pack("<Q", len(data)) + data
    return bits_from_bytes(frame.ljust((p.ell + 7) // 8, b"\x00"), p.ell)


def unpack_message(bits: np.ndarray, p) -> bytes:
    cap = message_capacity(p)
    block = bytes_from_bits(bits)[:8 + cap]
    (length,) = struct.unpack_from("<Q", block, 0)
    if length > cap:
        raise MessageLengthError(f"decoded length {length} exceeds capacity {cap}")
    return block[8:8 + length]


# -- command group -----------------------------------------------------------

@click.group(cls=_ErrorBoundary)
def main():
    """Updatable encryption tool: rotate keys, update ciphertexts in place."""


@main.group()
def params():
    """Inspect registered parameter sets."""


@params.command("list")
def params_list():
    for name in registered_names():
        p = load_paramset(name)
        click.echo(f"{name:18} id={p.paramset_id:<3} n={p.n:<5} D={p.D:<3} "
                   f"B={p.B} {p.m_bar}x{p.n_bar} s={p.s} mode={p.gen_mode}")


@params.command("show")
@click.argument("name")
@click.option("--out", "out_path", type=_OUT_FILE, default=None,
              help="Also write the dump as a paramset envelope file.")
def params_show(name, out_path):
    p = load_paramset(name)
    if out_path:
        _write(out_path, env.pack_paramset(p))
    click.echo(params_dump(p) + (f"wrote {out_path}\n" if out_path else ""), nl=False)


@main.command()
@click.option("--params", "params_name", required=True, help="Parameter set name.")
@click.option("--epoch", type=click.IntRange(min=0, max=2**32 - 1), required=True,
              help="Epoch index, 0 <= e < 2**32 (stored as 32 bits).")
@click.option("--seed", callback=_hex_seed,
              help="Hex seed; reuse one seed across epochs to share the public matrix.")
@click.option("--out-key", type=_OUT_FILE, required=True)
@click.option("--out-pub", type=_OUT_FILE, required=True)
def keygen(params_name, epoch, seed, out_key, out_pub):
    """Generate an epoch key; writes the secret key file and the public-key file."""
    _no_clash(("--out-pub", out_pub), ("--out-key", out_key))
    p = load_paramset(params_name)
    a_seed, A = pke_setup(RngHandle(seed).derive("a-seed"), p)
    key = ue_kg(RngHandle(seed).derive(f"epoch:{epoch}"), p, A, epoch)
    _write(out_pub, env.pack_public_key(p, epoch, key.pk_B, a_seed))
    _write(out_key, env.pack_epoch_key(p, key, a_seed))     # never before its public key
    click.echo(f"wrote {out_key} and {out_pub} ({p.name}, epoch {epoch})")


def _read_pair(path_a, kind_a: int, path_b, kind_b: int):
    """Read two envelope files of the given kinds; they must share a parameter set."""
    a = env.read_envelope_file(path_a, kind_a)
    b = env.read_envelope_file(path_b, kind_b)
    if a.p.paramset_id != b.p.paramset_id:
        raise env.MalformedEnvelopeError(
            f"{env.KIND_NAMES[kind_a]} and {env.KIND_NAMES[kind_b]} files use "
            f"different parameter sets ({a.p.name}, {b.p.name})")
    return a, b


@main.command()
@click.option("--key", "key_path", type=_IN_FILE, required=True)
@click.option("--message-file", type=_IN_FILE, required=True)
@click.option("--seed", callback=_hex_seed)
@click.option("--out", type=_OUT_FILE, required=True)
def encrypt(key_path, message_file, seed, out):
    """Encrypt a file under an epoch key (public-key file suffices)."""
    _no_clash(("--out", out), ("--key", key_path))
    e = env.read_envelope_file(key_path, env.KIND_EPOCH_KEY, env.KIND_PUBLIC_KEY)
    key, a_seed = e.payload                     # an EpochKey, or a public key's pk_B
    pk_B = key.pk_B if e.kind == env.KIND_EPOCH_KEY else key
    with open(message_file, "rb") as fh:             # one byte past capacity is refused
        data = fh.read(message_capacity(e.p) + 1)
    bits = pack_message(data, e.p)
    A = gen_public_matrix(a_seed, e.p)
    ct = pke_enc(RngHandle(seed).derive("encrypt"), e.p, A, pk_B, bits)
    _write(out, env.pack_ciphertext(e.p, replace(ct, epoch=e.epoch)))
    click.echo(f"wrote {out} (epoch {e.epoch})")


@main.command()
@click.option("--key", "key_path", type=_IN_FILE, required=True)
@click.option("--ct", "ct_path", type=_IN_FILE, required=True)
@click.option("--out", type=_OUT_FILE, required=True)
def decrypt(key_path, ct_path, out):
    """Decrypt a ciphertext file with the matching epoch key."""
    _no_clash(("--out", out), ("--key", key_path))
    ke, ce = _read_pair(key_path, env.KIND_EPOCH_KEY, ct_path, env.KIND_CIPHERTEXT)
    key, _ = ke.payload
    bits = ue_dec(ke.p, key, ce.payload)
    data = unpack_message(bits, ke.p)
    _write(out, data)
    click.echo(f"wrote {out} ({len(data)} bytes)")


def _warn_without_chain_budget(p) -> None:
    """One line on stderr when neither the bound nor the library's trials
    give p one clean update: its updated ciphertexts are not expected to
    decrypt.  The command's exit code and files stay as they are."""
    if max_certified_epochs(p) == 0 and empirical_chain_epochs(p) == 0:
        click.echo(f"warning: {p.name} is certified for 0 chained updates and 0 ran "
                   "clean in trials; updated ciphertexts may not decrypt", err=True)


@main.command()
@click.option("--prev-key", type=_IN_FILE, required=True,
              help="Epoch-key file for epoch e.")
@click.option("--next-pub", type=_IN_FILE, required=True,
              help="Public-key file for epoch e+1.")
@click.option("--seed", callback=_hex_seed)
@click.option("--out", type=_OUT_FILE, required=True)
def token(prev_key, next_pub, seed, out):
    """Generate the update token from the old secret key and new public key."""
    _no_clash(("--out", out), ("--prev-key", prev_key), ("--next-pub", next_pub))
    ke, pe = _read_pair(prev_key, env.KIND_EPOCH_KEY, next_pub, env.KIND_PUBLIC_KEY)
    key, a_seed_prev = ke.payload
    pk_next, a_seed_next = pe.payload
    if a_seed_prev != a_seed_next:
        raise env.MalformedEnvelopeError(
            "keys belong to different deployments (public-matrix seeds differ)")
    if pe.epoch != ke.epoch + 1:
        raise EpochMismatchError(
            f"need consecutive epochs, got {ke.epoch} -> {pe.epoch}")
    A = gen_public_matrix(a_seed_prev, ke.p)
    tok = ue_tg(RngHandle(seed).derive("token"), ke.p, A, key.sk_S, pk_next, pe.epoch)
    _write(out, env.pack_token(ke.p, tok))
    click.echo(f"wrote {out} (token into epoch {pe.epoch})")
    _warn_without_chain_budget(ke.p)


@main.command()
@click.option("--token", "token_path", type=_IN_FILE, required=True)
@click.option("--ct", "ct_path", type=_IN_FILE, required=True)
@click.option("--seed", callback=_hex_seed)
@click.option("--out", type=_OUT_FILE, required=True)
def update(token_path, ct_path, seed, out):
    """Re-encrypt a ciphertext file to the token's target epoch; --out may be --ct."""
    _no_clash(("--out", out), ("--token", token_path))
    te, ce = _read_pair(token_path, env.KIND_TOKEN, ct_path, env.KIND_CIPHERTEXT)
    ct2 = ue_upd(RngHandle(seed).derive("update"), te.p, te.payload, ce.payload)
    _write(out, env.pack_ciphertext(te.p, ct2))
    click.echo(f"wrote {out} (epoch {ct2.epoch})")
    _warn_without_chain_budget(te.p)


@main.command("verify-bound")
@click.option("--params", "params_name", required=True)
@click.option("--max-epochs", "T", type=click.IntRange(min=1), required=True)
def verify_bound(params_name, T):
    """Evaluate the epoch-correctness inequality for T chained updates."""
    p = load_paramset(params_name)
    lhs, rhs = bound_sides(p, T)
    ok = validate_correctness_bound(p, T)
    click.echo(f"parameter set : {p.name}")
    click.echo(f"epoch budget T: {T}")
    click.echo(f"noise bound   : {lhs}")
    click.echo(f"per-update cap: q/(T*2^(B+1)) = {rhs} "
               f"(~{float(rhs):.4f})")
    cert = max_certified_epochs(p)
    click.echo(f"verdict       : {'certified' if ok else 'NOT certified'} for T={T}")
    click.echo(f"certified up to T={'unbounded' if cert is None else cert}; "
               f"empirically clean chains observed up to T={empirical_chain_epochs(p)}")
    if not ok:
        sys.exit(1)


@main.command("bench")
@click.option("--params", "names", multiple=True, default=registered_names(),
              help="Repeatable parameter-set name; default: every registered set.")
@click.option("--runs", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--out", "out_csv", type=_OUT_FILE, default=None,
              help="Also write machine-readable CSV here.")
def bench(names, runs, out_csv):
    """Time UE.KG / UE.Enc / UE.Dec / UE.TG / UE.Upd per parameter set."""
    from . import bench as bench_mod    # the timing harness loads only here

    results = bench_mod.run_benchmarks(names, runs)
    click.echo(bench_mod.format_table(results), nl=False)
    if out_csv:
        _write(out_csv, bench_mod.to_csv(results).encode())
        click.echo(f"wrote {out_csv}")


# -- scripted security-game runner -------------------------------------------

def _message_bits(i: int, hexmsg: str, p) -> np.ndarray:
    """Record i's hex message as ell bits; it must be exactly ell/8 bytes."""
    try:
        raw = bytes.fromhex(hexmsg)
    except ValueError:
        raise ScriptRecordError(f"script record {i}: message is not hex") from None
    if 8 * len(raw) != p.ell:
        raise MessageLengthError(f"script record {i}: message of {len(raw)} bytes, "
                                 f"{p.name} takes exactly {p.ell // 8}")
    return bits_from_bytes(raw, p.ell)


def _run_game_script(script, p, rng: RngHandle, b: int) -> None:
    """Replay the JSON-lines script as the adversary of one run_experiment
    game, checking each record as it is read and echoing its oracle result;
    then echo the leakage sets, their closures and the verdict.  A qid is its
    last version in the game's log L, or None: the oracles judge it alone."""
    import json

    game, guess = None, 0

    def adversary(g) -> int:
        nonlocal game, guess
        game = g
        said = lambda out: "ok" if out is not None else "reject"
        latest = lambda qid: next((c for c, r in reversed(g.L.items()) if r[0] == qid), None)
        for i, line in enumerate(ln for ln in script if ln.strip()):
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError):
                rec = None                              # falls to the last case
            match rec:
                case dict() if any(type(rec.get(f)) is bool for f in ("qid", "epoch", "bit")):
                    raise ScriptRecordError(f"script record {i}: a boolean is not an integer")
                case {"op": "enc", "message": str(hexmsg)}:
                    g.o_enc(_message_bits(i, hexmsg, p))
                    click.echo(f"[{i}] enc -> qid {g.qid} at epoch {g.e}")
                case {"op": "next"}:
                    g.o_next()
                    click.echo(f"[{i}] next -> epoch {g.e}")
                case {"op": "upd", "qid": int(qid)}:
                    click.echo(f"[{i}] upd qid {qid} -> {said(g.o_upd(latest(qid)))}")
                case {"op": "corr", "inp": "key" | "token" as inp, "epoch": int(e_hat)}:
                    click.echo(f"[{i}] corr {inp} @ {e_hat} -> {said(g.o_corr(inp, e_hat))}")
                case {"op": "chall", "message": str(hexmsg), "qid": int(qid)}:
                    m_bar = _message_bits(i, hexmsg, p)
                    click.echo(f"[{i}] chall -> {said(g.o_chall(m_bar, latest(qid)))}")
                case {"op": "upd-ct"}:
                    click.echo(f"[{i}] upd-ct -> {said(g.o_upd_ct())}")
                case {"op": "dec"} if type(rec.get("qid", 0)) is int:
                    target = latest(rec["qid"]) if "qid" in rec else g.chall_ct
                    out = g.o_dec(target)
                    click.echo(f"[{i}] dec -> " + ("reject" if out is None
                                                   else bytes_from_bits(out).hex()))
                case {"op": "guess", "bit": int(0 | 1 as guess)}:
                    click.echo(f"[{i}] guess {guess}")
                case _:
                    raise ScriptRecordError(f"script record {i}: not a well-formed oracle "
                                            f"call: {line.strip()[:80]}")
        return guess

    returned = run_experiment(adversary, b, rng, p)
    ls = game.leakage
    for name, s in zip(("K", "T", "C", "K*", "T*", "C*"),
                       (ls.K, ls.T, ls.C, *starred_sets(ls))):
        click.echo(f"{name:3}= {sorted(s)}")
    click.echo(f"twf={game.twf} verdict={'trivial-win' if game.twf else 'clean'} "
               f"guess={guess} returned={returned}")


@main.command("game-run")
@click.option("--script", "script_path", type=_IN_FILE, required=True,
              help="JSON-lines trace: one {\"op\": ..., ...} record per line.")
@click.option("--params", "params_name", default="toy-16", show_default=True)
@click.option("--bit", type=click.IntRange(0, 1), default=0, show_default=True)
@click.option("--seed", callback=_hex_seed)
def game_run(script_path, params_name, bit, seed):
    """Replay a scripted oracle trace and report leakage sets and the verdict."""
    p = load_paramset(params_name)
    with open(script_path, encoding="utf-8", errors="replace") as fh:
        _run_game_script(fh, p, RngHandle(seed).derive("game"), bit)


@main.command("hybrids-test")
@click.option("--params", "params_name", default="toy-16", show_default=True)
@click.option("--samples", type=click.IntRange(min=100), default=20000, show_default=True)
@click.option("--seed", callback=_hex_seed, default="1bad5eed")
def hybrids_test(params_name, samples, seed):
    """Run the hybrid/simulator statistical checks and print the distances."""
    p = load_paramset(params_name)
    rng = RngHandle(seed).derive("hybrids")
    inst = make_update_instance(p)
    proj = high_bits_projection(p)

    pairs = min(500, samples)
    agree = 0
    key_next = EpochKey(epoch=1, sk_S=inst.sk_next, pk_B=inst.pk_next)
    real = real_update_sampler(inst, rng.derive("agree-real"))
    hyb = hyb_update_sampler(inst, rng.derive("agree-hyb"))
    for _ in range(pairs):
        a = ue_dec(p, key_next, real())
        b = ue_dec(p, key_next, hyb())
        agree += bool(np.array_equal(a, b) and np.array_equal(a, inst.m))
    click.echo(f"decrypt agreement      : {agree}/{pairs}")

    d_rh = statistical_distance_estimate(
        real_update_sampler(inst, rng.derive("d-real")),
        hyb_update_sampler(inst, rng.derive("d-hyb")), samples, proj)
    d_rr = statistical_distance_estimate(
        real_update_sampler(inst, rng.derive("b-real-1")),
        real_update_sampler(inst, rng.derive("b-real-2")), samples, proj)
    click.echo(f"real-vs-hybrid distance: {d_rh:.5f} (baseline {d_rr:.5f})")

    b1, b2 = 1, 1024
    sm, sm_base = smudging_estimate(b1, b2, max(samples, 1_000_000), rng.derive("smudge"))
    click.echo(f"smudging distance      : {sm:.5f} (baseline {sm_base:.5f}, "
               f"analytic {b1 / (2 * b2 + 1):.5f})")

    draws = max(2, samples // (p.m_bar * p.n))
    flat = np.concatenate([
        sim_ue_enc(rng.derive(f"sim{i}"), p).C1.data.ravel() >> (p.D - 4)
        for i in range(draws)])
    counts = np.bincount(flat, minlength=16)
    expected = flat.size / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    click.echo(f"sim uniformity chi2(15): {chi2:.2f} (alpha=0.001 cutoff 37.70)")


if __name__ == "__main__":
    main()
