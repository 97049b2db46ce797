"""Binary file envelopes for keys, tokens, and ciphertexts.

Layout: magic "FRUE", version byte, kind byte, paramset id (2 bytes LE), epoch (4 bytes
LE), then the payload: for a paramset, the text of params.params_dump; for every other
kind, the matrix records `_layout` declares, in its order (MatrixZq.to_bytes format), then
a 16-byte seed for the kinds in `_SEEDED`.  One rule, `_parse`, judges every envelope on
pack and on parse alike, header and paramset included: magic, version, a known kind and
id, the length (`_size`), each record's shape and D, then for a paramset epoch 0 and the
current dump, and for a token an epoch of at least 1, all with MalformedEnvelopeError.  So
pack writes only what parse accepts, every envelope that parses re-packs to the same
bytes, and a later change to a registered set makes its older paramset files unreadable.
A file or a pipe is read one way, into one buffer its matrices view (read_envelope_file).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .matrix import MatrixZq, _record_size
from .params import ParamSet, UnknownParamSetError, load_by_id, params_dump
from .pke import A_SEED_LEN
from .ue import EpochKey, EpochMismatchError, UeCiphertext, UpdateToken

MAGIC = b"FRUE"
VERSION = 1

KIND_PARAMSET = 1
KIND_EPOCH_KEY = 2
KIND_PUBLIC_KEY = 3
KIND_TOKEN = 4
KIND_CIPHERTEXT = 5

KIND_NAMES = {
    KIND_PARAMSET: "paramset",
    KIND_EPOCH_KEY: "epoch-key",
    KIND_PUBLIC_KEY: "public-key",
    KIND_TOKEN: "token",
    KIND_CIPHERTEXT: "ciphertext",
}

_HEADER = struct.Struct("<4sBBHI")  # magic, version, kind, paramset_id, epoch

_SEEDED = (KIND_EPOCH_KEY, KIND_PUBLIC_KEY)     # kinds that end with an a_seed
# the object each kind builds from its epoch and matrix records; a public key's is pk_B
_PAYLOAD_TYPES = {KIND_EPOCH_KEY: EpochKey, KIND_PUBLIC_KEY: lambda epoch, pk_B: pk_B,
                  KIND_TOKEN: UpdateToken, KIND_CIPHERTEXT: UeCiphertext}


def _layout(kind: int, p: ParamSet) -> tuple[tuple[str, int, int], ...]:
    """Matrix records of an envelope in file order, as (attribute name, rows, cols);
    every record is at D = p.D, and a paramset has none."""
    nD = p.n * p.D
    return {
        KIND_PARAMSET: (),
        KIND_EPOCH_KEY: (("sk_S", p.n, p.n_bar), ("pk_B", p.n, p.n_bar)),
        KIND_PUBLIC_KEY: (("pk_B", p.n, p.n_bar),),
        KIND_TOKEN: (("d1_a", nD, p.n), ("d1_b", nD, p.n_bar),
                     ("d2_a", p.n, p.n), ("d2_b", p.n, p.n_bar)),
        KIND_CIPHERTEXT: (("C1", p.m_bar, p.n), ("C2", p.m_bar, p.n_bar)),
    }[kind]


class MalformedEnvelopeError(ValueError):
    """Envelope bytes do not parse as a well-formed record."""


@dataclass(frozen=True)
class Envelope:
    kind: int
    p: ParamSet
    epoch: int
    payload: object     # per-kind object, see read_envelope


def _pack(kind: int, p: ParamSet, epoch: int, fields: dict[str, MatrixZq],
          tail: bytes = b"") -> bytes:
    try:
        header = _HEADER.pack(MAGIC, VERSION, kind, p.paramset_id, epoch)
    except struct.error:
        raise MalformedEnvelopeError(f"epoch {epoch} or paramset id {p.paramset_id} "
                                     "does not fit the header") from None
    # one join of every record's header and words: no record is copied first
    data = b"".join([header, *(part for name, _, _ in _layout(kind, p)
                               for part in fields[name]._record()), tail])
    _parse(data)    # not read_envelope: the benchmark tracer would count each pack as a read
    return data


def pack_paramset(p: ParamSet) -> bytes:
    return _pack(KIND_PARAMSET, p, 0, {}, params_dump(p).encode())


def pack_epoch_key(p: ParamSet, key: EpochKey, a_seed: bytes) -> bytes:
    return _pack(KIND_EPOCH_KEY, p, key.epoch, vars(key), a_seed)


def pack_public_key(p: ParamSet, epoch: int, pk_B: MatrixZq, a_seed: bytes) -> bytes:
    return _pack(KIND_PUBLIC_KEY, p, epoch, {"pk_B": pk_B}, a_seed)


def pack_token(p: ParamSet, tok: UpdateToken) -> bytes:
    return _pack(KIND_TOKEN, p, tok.epoch, vars(tok))


def pack_ciphertext(p: ParamSet, ct: UeCiphertext) -> bytes:
    return _pack(KIND_CIPHERTEXT, p, ct.epoch, vars(ct))


def _size(kind: int, p: ParamSet) -> int:
    """Bytes of a well-formed envelope of this kind and parameter set."""
    return _HEADER.size + sum(_record_size(r, c) for _, r, c in _layout(kind, p)) + (
        len(params_dump(p).encode()) if kind == KIND_PARAMSET else A_SEED_LEN * (kind in _SEEDED))


def _read_header(data: bytes) -> tuple[int, ParamSet, int]:
    if len(data) < _HEADER.size:
        raise MalformedEnvelopeError("short header")
    magic, version, kind, pid, epoch = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise MalformedEnvelopeError("bad magic")
    if version != VERSION:
        raise MalformedEnvelopeError(f"unsupported version {version}")
    if kind not in KIND_NAMES:
        raise MalformedEnvelopeError(f"unknown kind {kind}")
    try:
        p = load_by_id(pid)
    except UnknownParamSetError:
        raise MalformedEnvelopeError(f"unknown paramset id {pid}") from None
    return kind, p, epoch


def _parse(data: bytes) -> Envelope:
    """The one rule on envelope bytes, run by read_envelope and by every pack_*."""
    kind, p, epoch = _read_header(data)
    if len(data) != (size := _size(kind, p)):
        raise MalformedEnvelopeError(
            f"{KIND_NAMES[kind]} of {p.name} must be {size} bytes, got {len(data)}")
    fields, off = {}, _HEADER.size
    for name, rows, cols in _layout(kind, p):
        try:
            m, off = MatrixZq.from_bytes_at(data, off)
        except ValueError as exc:
            raise MalformedEnvelopeError(f"{name}: {exc}") from None
        if m.shape != (rows, cols) or m.D != p.D:
            raise MalformedEnvelopeError(
                f"{name}: expected {(rows, cols)} at D={p.D}, got {m.shape} at D={m.D}")
        fields[name] = m
    if kind == KIND_PARAMSET:
        dump = params_dump(p)
        if epoch != 0 or data[off:] != dump.encode():
            raise MalformedEnvelopeError(
                f"paramset payload is not the current dump of {p.name} at epoch 0")
        return Envelope(kind, p, epoch, dump)
    try:
        obj = _PAYLOAD_TYPES[kind](epoch=epoch, **fields)
    except EpochMismatchError as exc:       # a token into epoch 0, refused by UpdateToken
        raise MalformedEnvelopeError(str(exc)) from None
    return Envelope(kind, p, epoch, (obj, bytes(data[off:])) if kind in _SEEDED else obj)


def read_envelope(data: bytes) -> Envelope:
    """Parse envelope bytes or a read-only buffer, or raise MalformedEnvelopeError.  By kind,
    the payload is: paramset, the params_dump text; epoch-key, (EpochKey, a_seed bytes);
    public-key, (pk_B, a_seed bytes); token, an UpdateToken; ciphertext, a UeCiphertext."""
    return _parse(data)


def read_envelope_file(path, kind: int, *kinds: int) -> Envelope:
    """Read a file whose header names kind or one of kinds, and at most _size + 1 bytes.
    The header is read, then the rest with one readinto, into one uninitialised
    buffer that the matrices view in place: a file and a pipe keep one copy alike."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        got, p, _ = _read_header(head)
        if got not in (kinds := (kind, *kinds)):
            names = " or ".join(KIND_NAMES[k] for k in kinds)
            raise MalformedEnvelopeError(f"expected {'an' if names[0] in 'aeiou' else 'a'} "
                                         f"{names} file, got {KIND_NAMES[got]}")
        buf = memoryview(np.empty(_size(got, p) + 1, np.uint8))
        buf[:_HEADER.size] = head
        end = _HEADER.size + fh.readinto(buf[_HEADER.size:])
        return read_envelope(buf[:end].toreadonly())
