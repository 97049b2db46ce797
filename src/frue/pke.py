"""Frodo-style LWE public-key encryption: setup, keygen, encrypt, decrypt.

Messages are bit vectors of length ell = B * m_bar * n_bar.  encode() packs
consecutive B-bit groups row-major into an m_bar x n_bar matrix, mapping a
group value k to k * q / 2**B; decode() inverts with nearest-integer
rounding of c * 2**B / q (ties round up), reduced mod 2**B.  Within a group,
bit index l carries weight 2**l, and the same order is used when converting
bytes to bits (least significant bit of each byte first).

Keys and ciphertexts are EpochKey and UeCiphertext (aliased PkeKeyPair and
PkeCiphertext); the PKE layer outputs epoch 0, and frue.ue stamps the epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import (DimensionMismatchError, MatrixZq, RngHandle, _chi_cut,
                     _lincomb, gen_public_matrix)
from .params import ParamSet


class MessageLengthError(ValueError):
    """Message bit length does not match the parameter set."""


@dataclass(frozen=True)
class EpochKey:
    epoch: int
    sk_S: MatrixZq          # n x n_bar
    pk_B: MatrixZq          # n x n_bar, equals A @ sk_S + E with E chi-bounded


@dataclass(frozen=True)
class UeCiphertext:
    epoch: int
    C1: MatrixZq            # m_bar x n
    C2: MatrixZq            # m_bar x n_bar


PkeKeyPair = EpochKey
PkeCiphertext = UeCiphertext

A_SEED_LEN = 16             # bytes of the seed that expands the public matrix A


# -- message bits ---------------------------------------------------------

def as_bits(m, ell: int) -> np.ndarray:
    bits = np.asarray(m)
    if bits.ndim != 1 or bits.size != ell:
        raise MessageLengthError(f"expected {ell} message bits, got shape {bits.shape}")
    # checked before the cast, which would wrap 256 to 0 and truncate 0.9 to 0
    if bits.dtype.kind in "fc" or (bits.size and (bits.min() < 0 or bits.max() > 1)):
        raise MessageLengthError("message entries must be bits")
    return bits.astype(np.uint8, copy=False)


def bits_from_bytes(data: bytes, nbits: int) -> np.ndarray:
    if not hasattr(type(nbits), "__index__") or not 0 <= nbits <= 8 * len(data):
        raise MessageLengthError(f"need 0 <= nbits <= {8 * len(data)}, got {nbits}")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")[:nbits]


def bytes_from_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def random_message_bits(rng: RngHandle, p: ParamSet) -> np.ndarray:
    return rng.integers(0, 2, size=p.ell, dtype=np.int64).astype(np.uint8)


# -- encode / decode ------------------------------------------------------

def encode(m, p: ParamSet) -> MatrixZq:
    """Pack ell message bits into an m_bar x n_bar matrix via k -> k * 2**(D-B)."""
    k = as_bits(m, p.ell).reshape(-1, p.B) @ (1 << np.arange(p.B, dtype=np.int64))
    return MatrixZq((k << (p.D - p.B)).reshape(p.m_bar, p.n_bar), p.D)


def decode(M: MatrixZq, p: ParamSet) -> np.ndarray:
    """Per-entry nearest-integer inverse of encode; exact in integers.

    round(c * 2**B / q) with ties up equals (c * 2**(B+1) + q) >> (D+1).
    """
    if M.shape != (p.m_bar, p.n_bar) or M.D != p.D:
        raise DimensionMismatchError(f"expected {p.m_bar}x{p.n_bar} matrix at D={p.D}")
    c = M.data.astype(np.int64)
    k = (((c << (p.B + 1)) + p.q) >> (p.D + 1)) & ((1 << p.B) - 1)
    shifts = np.arange(p.B, dtype=np.int64)
    bits = (k.reshape(-1, 1) >> shifts) & 1
    return bits.reshape(p.ell).astype(np.uint8)


# -- the four algorithms --------------------------------------------------

def pke_setup(rng: RngHandle, p: ParamSet) -> tuple[bytes, MatrixZq]:
    """Draw a fresh seed and expand the shared n x n public matrix A."""
    a_seed = rng.bytes(A_SEED_LEN)
    return a_seed, gen_public_matrix(a_seed, p)


def pke_keygen(rng: RngHandle, p: ParamSet, A: MatrixZq) -> EpochKey:
    """Sample S, E from chi and publish B = A @ S + E, as an epoch-0 key."""
    S, E = _chi_cut(rng, p, (p.n, p.n_bar), (p.n, p.n_bar))
    return EpochKey(epoch=0, sk_S=S, pk_B=_lincomb((1, A, S), (1, E)))


def pke_enc_traced(rng: RngHandle, p: ParamSet, A: MatrixZq, pk_B: MatrixZq,
                   m) -> tuple[UeCiphertext, MatrixZq]:
    """Encrypt at epoch 0; also return the C2 noise term E'' (for instrumentation)."""
    msg = encode(m, p)
    S1, E1, E2 = _chi_cut(rng, p, (p.m_bar, p.n), (p.m_bar, p.n), (p.m_bar, p.n_bar))
    C1 = _lincomb((1, S1, A), (1, E1))                   # S1 A + E1
    C2 = _lincomb((1, S1, pk_B), (1, E2), (1, msg))      # S1 B + E2 + encode(m)
    return UeCiphertext(epoch=0, C1=C1, C2=C2), E2


def pke_enc(rng: RngHandle, p: ParamSet, A: MatrixZq, pk_B: MatrixZq, m) -> UeCiphertext:
    return pke_enc_traced(rng, p, A, pk_B, m)[0]


def pke_dec(p: ParamSet, sk_S: MatrixZq, ct: UeCiphertext) -> np.ndarray:
    return decode(_lincomb((1, ct.C2), (-1, ct.C1, sk_S)), p)
