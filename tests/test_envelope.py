import ast
import functools
import hashlib
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frue import envelope as env
from frue.hybrids import sim_ue_tg
from frue.matrix import MatrixZq, RngHandle, gen_public_matrix, sample_uniform
from frue.params import load_paramset, params_dump, registered_names
from frue.pke import random_message_bits
from frue.ue import EpochKey, UeCiphertext, UpdateToken, ue_enc


def synthetic_objects(p, seed):
    """Shape-correct random key/token/ciphertext for serialization tests."""
    rng = RngHandle(seed)
    nD = p.n * p.D
    key = EpochKey(epoch=2, sk_S=sample_uniform(rng, p.n, p.n_bar, p),
                   pk_B=sample_uniform(rng, p.n, p.n_bar, p))
    tok = UpdateToken(epoch=3, d1_a=sample_uniform(rng, nD, p.n, p),
                      d1_b=sample_uniform(rng, nD, p.n_bar, p),
                      d2_a=sample_uniform(rng, p.n, p.n, p),
                      d2_b=sample_uniform(rng, p.n, p.n_bar, p))
    ct = UeCiphertext(epoch=1, C1=sample_uniform(rng, p.m_bar, p.n, p),
                      C2=sample_uniform(rng, p.m_bar, p.n_bar, p))
    return key, tok, ct


@pytest.mark.parametrize("name", registered_names())
def test_roundtrip_every_kind_every_paramset(name):
    p = load_paramset(name)
    key, tok, ct = synthetic_objects(p, b"env-" + name.encode())
    a_seed = bytes(range(16))

    blob = env.pack_epoch_key(p, key, a_seed)
    e = env.read_envelope(blob)
    got_key, got_seed = e.payload
    assert (e.p.name, e.epoch) == (name, 2)
    assert got_key == key and got_seed == a_seed
    assert env.pack_epoch_key(e.p, got_key, got_seed) == blob

    blob = env.pack_public_key(p, 2, key.pk_B, a_seed)
    e = env.read_envelope(blob)
    assert e.payload == (key.pk_B, a_seed)
    assert env.pack_public_key(e.p, e.epoch, *e.payload) == blob

    blob = env.pack_token(p, tok)
    e = env.read_envelope(blob)
    assert e.payload == tok
    assert env.pack_token(e.p, e.payload) == blob

    blob = env.pack_ciphertext(p, ct)
    e = env.read_envelope(blob)
    assert e.payload == ct
    assert env.pack_ciphertext(e.p, e.payload) == blob

    blob = env.pack_paramset(p)
    e = env.read_envelope(blob)
    assert e.payload == params_dump(p)
    assert env.pack_paramset(e.p) == blob


GOLDEN_SHA256_PARAMSET = {
    "frodo-640-shake": "fd2df03a2c66dabae108a0d7ad8ed7b657bdf3a16cddf6fd2aa581e4961d71fc",
    "frodo-976-shake": "97a1a9b800adb3211415dbd37a634b36a6292aed53bedc88a47c0b9be1289c65",
    "frodo-1344-shake": "6ba63e675126a9b1014a18e50ea7086d5b51c7c4eb45d0e06dbfecb9955df041",
    "frodo-640-aes": "19372bbe55a84188ee4be0902553550d282d88909dd33ddf6481a0f7557d2b04",
    "frodo-976-aes": "34b988ea6959fe37f15f46f5c19b50490f147a0afcc503d941c6f6cd689a2e4a",
    "frodo-1344-aes": "4ca73d84def1f3355a61c57d420f01b606d98997050c4499ec3daa905abf10ee",
    "toy-16": "5106e50a3eb43206b0eb545175978423dc7ee0283ef598b563c8fe7130d6520f",
    "toy-8": "06b6b39e3bd6ce96e65d3286d7164d2a2ebab2a670e681168211a73b545cbbc5",
}


def test_paramset_files_keep_their_bytes():
    # a v1 paramset file must parse to exactly params_dump(p), so every byte
    # of each registered set's payload is pinned
    assert sorted(GOLDEN_SHA256_PARAMSET) == sorted(registered_names())
    for name, digest in GOLDEN_SHA256_PARAMSET.items():
        assert hashlib.sha256(env.pack_paramset(load_paramset(name))).hexdigest() == digest, name


def test_roundtrip_with_real_objects(toy16, deployment16):
    d = deployment16
    rng = RngHandle(b"env-real")
    ct = ue_enc(rng, toy16, d["A"], d["keys"][0], random_message_bits(rng, toy16))
    blob = env.pack_ciphertext(toy16, ct)
    assert env.read_envelope(blob).payload == ct
    blob = env.pack_token(toy16, d["tokens"][1])
    assert env.read_envelope(blob).payload == d["tokens"][1]


def test_parsed_records_share_memory_with_the_envelope(toy16):
    # each record reads its words in place from the envelope bytes, uncopied
    key, tok, ct = synthetic_objects(toy16, b"env-shared")
    blob = env.pack_token(toy16, tok)
    raw = np.frombuffer(blob, dtype=np.uint8)
    got = env.read_envelope(blob).payload
    for m in (got.d1_a, got.d1_b, got.d2_a, got.d2_b):
        assert np.shares_memory(m.data, raw)
    assert got == tok and env.pack_token(toy16, got) == blob


def test_malformed_inputs_rejected(toy16):
    key, tok, ct = synthetic_objects(toy16, b"mal")
    good = env.pack_ciphertext(toy16, ct)

    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(good[:10])                       # truncated
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(b"NOPE" + good[4:])              # magic
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(good[:4] + b"\x09" + good[5:])   # version
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(good[:5] + b"\x77" + good[6:])   # kind
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(good[:6] + b"\xff\xff" + good[8:])  # paramset id
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(good + b"\x00")                  # trailing bytes
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(good[:-3])                       # short payload
    with pytest.raises(env.MalformedEnvelopeError,
                       match="epoch-key of toy-16 must be 302 bytes, got 297$"):
        env.read_envelope(env.pack_epoch_key(toy16, key, bytes(16))[:-5])  # seed cut

    dump = env.pack_paramset(toy16)
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(dump[:-5] + b"junk!")            # paramset text edited
    with pytest.raises(env.MalformedEnvelopeError,
                       match="^paramset of toy-16 must be 209 bytes, got 12$"):
        env.read_envelope(dump[:8] + (77).to_bytes(4, "little"))   # no dump, epoch 77
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(dump[:8] + (77).to_bytes(4, "little") + dump[12:])  # epoch 77


def test_wrong_shape_payload_rejected(toy16, toy8):
    # a toy-8 ciphertext body under a toy-16 header cannot parse
    *_, ct8 = synthetic_objects(toy8, b"shape")
    big_header = env.pack_ciphertext(toy16, synthetic_objects(toy16, b"shape2")[2])[:env._HEADER.size]
    body8 = env.pack_ciphertext(toy8, ct8)[env._HEADER.size:]
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope(big_header + body8)
    # a transposed record has the right length but not the layout's shape: refused on
    # write, and on read once its record header is rewritten in a good token's bytes
    _, tok, _ = synthetic_objects(toy16, b"shape3")
    tok_t = replace(tok, d1_a=MatrixZq(tok.d1_a.data.T, tok.d1_a.D))
    transposed = r"^d1_a: expected \(128, 8\) at D=16, got \(8, 128\) at D=16$"
    with pytest.raises(env.MalformedEnvelopeError, match=transposed):
        env.pack_token(toy16, tok_t)
    blob = bytearray(env.pack_token(toy16, tok))
    blob[env._HEADER.size:env._HEADER.size + 9] = struct.pack("<IIB", 8, 128, 16)
    with pytest.raises(env.MalformedEnvelopeError, match=transposed):
        env.read_envelope(bytes(blob))


def test_seed_length_enforced(toy16, toy8):
    key, _, _ = synthetic_objects(toy16, b"seed")
    with pytest.raises(env.MalformedEnvelopeError):
        env.pack_epoch_key(toy16, key, b"short")
    # records that do not add up to the layout are refused on write, as on read
    *_, ct8 = synthetic_objects(toy8, b"seed8")
    with pytest.raises(env.MalformedEnvelopeError, match="ciphertext of toy-16 must be"):
        env.pack_ciphertext(toy16, ct8)
    # records of the right shape at a D other than the set's, as the reader refuses them
    _, _, ct = synthetic_objects(toy16, b"seedD")
    with pytest.raises(env.MalformedEnvelopeError,
                       match=r"^C1: expected \(16, 8\) at D=16, got \(16, 8\) at D=8$"):
        env.pack_ciphertext(toy16, replace(ct, C1=MatrixZq(ct.C1.data & 0xFF, 8)))
    # header fields the header cannot hold, an unregistered set, a dump not the registry's
    for epoch in (-1, 2**32):
        with pytest.raises(env.MalformedEnvelopeError,
                           match=f"^epoch {epoch} or paramset id 100 does not fit the header$"):
            env.pack_ciphertext(toy16, replace(ct, epoch=epoch))
    with pytest.raises(env.MalformedEnvelopeError,
                       match="^epoch 1 or paramset id 65536 does not fit the header$"):
        env.pack_ciphertext(replace(toy16, paramset_id=2**16), ct)
    with pytest.raises(env.MalformedEnvelopeError, match="^unknown paramset id 999$"):
        env.pack_ciphertext(replace(toy16, paramset_id=999, name="mine"), ct)
    with pytest.raises(env.MalformedEnvelopeError,
                       match="^paramset payload is not the current dump of toy-16 at epoch 0$"):
        env.pack_paramset(replace(toy16, T_max=5))


def test_every_envelope_has_one_writer():
    # _pack alone builds a header, and each pack_* hands it one envelope's parts,
    # so the rule _pack runs on its bytes covers every envelope frue writes
    tree = ast.parse(Path(env.__file__).read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    header_packs = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and ast.unparse(node) == "_HEADER.pack"]
    assert header_packs                             # the check is not vacuous
    inside = set(ast.walk(funcs["_pack"]))
    assert [n.lineno for n in header_packs if n not in inside] == []
    packers = [name for name in funcs if name.startswith("pack_")]
    assert len(packers) == 5
    for name in packers:
        body = funcs[name].body
        assert len(body) == 1 and isinstance(body[0], ast.Return), name
        call = body[0].value
        assert isinstance(call, ast.Call) and ast.unparse(call.func) == "_pack", name


def test_read_envelope_file_kind_check(tmp_path, toy16):
    _, tok, _ = synthetic_objects(toy16, b"file")
    path = tmp_path / "tok.frue"
    path.write_bytes(env.pack_token(toy16, tok))
    assert env.read_envelope_file(path, env.KIND_TOKEN).payload == tok
    with pytest.raises(TypeError):                  # no kind to expect
        env.read_envelope_file(path)
    with pytest.raises(env.MalformedEnvelopeError):
        env.read_envelope_file(path, env.KIND_CIPHERTEXT)
    # a 13.3 MB frodo-640 token is refused from its header, before its body is read
    p640 = load_paramset("frodo-640")
    path.write_bytes(env.pack_token(p640, sim_ue_tg(RngHandle(b"file640"), p640)))
    tracemalloc.start()
    try:
        with pytest.raises(env.MalformedEnvelopeError,
                           match="^expected a ciphertext file, got token$"):
            env.read_envelope_file(path, env.KIND_CIPHERTEXT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"read peaked at {peak} bytes"


@functools.cache
def _token640() -> bytes:
    """A synthetic 13.3 MB frodo-640 token envelope."""
    p = load_paramset("frodo-640")
    return env.pack_token(p, synthetic_objects(p, b"one-copy")[1])


def _traced_read(path) -> tuple[env.Envelope, int]:
    """read_envelope_file of a token, and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        got = env.read_envelope_file(path, env.KIND_TOKEN)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_envelope_file_keeps_one_copy_of_the_words(tmp_path):
    # a 13.3 MB frodo-640 token file is read into one buffer that its
    # matrices view in place: the read peaks at about the file's size, not
    # twice it (the rest read, then joined to the header)
    path = tmp_path / "tok.frue"
    path.write_bytes(_token640())
    size = path.stat().st_size
    got, peak = _traced_read(path)
    assert peak < 1.2 * size, f"read of {size} bytes peaked at {peak} bytes"
    assert got.payload == env.read_envelope(path.read_bytes()).payload
    assert not got.payload.d1_a.data.flags.owndata and got.payload.d1_a.shape == (9600, 640)


def test_read_envelope_file_takes_a_header_split_across_pipe_reads(fifo):
    # a pipe whose first read holds less than the 12-byte header is read as a
    # file is: the header to its end, then the rest into the one buffer, so a
    # 13.3 MB frodo-640 token keeps one copy of its words here too
    blob = _token640()
    got, peak = _traced_read(fifo(blob, split=5))
    assert peak < 1.2 * len(blob), f"read of {len(blob)} bytes peaked at {peak} bytes"
    assert got.payload == env.read_envelope(blob).payload
    assert not got.payload.d1_a.data.flags.owndata


def test_read_envelope_file_seeds_are_bytes(tmp_path, toy16):
    # a seed is a value of its own, bytes, not a view of the buffer the file was read into
    key, _, _ = synthetic_objects(toy16, b"seed")
    a_seed = bytes(range(16))
    for kind, blob in ((env.KIND_EPOCH_KEY, env.pack_epoch_key(toy16, key, a_seed)),
                       (env.KIND_PUBLIC_KEY, env.pack_public_key(toy16, 2, key.pk_B, a_seed))):
        path = tmp_path / f"{kind}.frue"
        path.write_bytes(blob)
        _, got = env.read_envelope_file(path, kind).payload
        assert type(got) is bytes and got == a_seed
        assert gen_public_matrix(got, toy16) == gen_public_matrix(a_seed, toy16)


@functools.cache
def _toy16_blobs() -> tuple[bytes, ...]:
    """One valid toy-16 envelope of each kind."""
    p = load_paramset("toy-16")
    key, tok, ct = synthetic_objects(p, b"env-fuzz")
    a_seed = bytes(range(16))
    return (env.pack_paramset(p), env.pack_epoch_key(p, key, a_seed),
            env.pack_public_key(p, 2, key.pk_B, a_seed), env.pack_token(p, tok),
            env.pack_ciphertext(p, ct))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(0, 4),
       st.lists(st.tuples(st.one_of(st.integers(0, 40), st.integers(0, 2**16)),
                          st.integers(0, 255)), max_size=4),
       st.one_of(st.none(), st.integers(0, 2**16)), st.binary(max_size=3))
def test_mutated_envelope_raises_only_malformed(kind, edits, cut, tail):
    blob = bytearray(_toy16_blobs()[kind])
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    data = bytes(blob[:cut]) + tail
    try:
        e = env.read_envelope(data)
    except env.MalformedEnvelopeError:
        return
    assert _repack(e) == data           # whatever parses re-packs to the same bytes


def _repack(e: env.Envelope) -> bytes:
    """The bytes the kind's pack_* function writes for a parsed envelope."""
    if e.kind == env.KIND_PARAMSET:
        return env.pack_paramset(e.p)
    if e.kind == env.KIND_EPOCH_KEY:
        return env.pack_epoch_key(e.p, *e.payload)
    if e.kind == env.KIND_PUBLIC_KEY:
        return env.pack_public_key(e.p, e.epoch, *e.payload)
    if e.kind == env.KIND_TOKEN:
        return env.pack_token(e.p, e.payload)
    return env.pack_ciphertext(e.p, e.payload)
