"""The updatable encryption scheme: epoch keys, tokens, ciphertext updates.

A token Delta_{e+1} is, in essence, a homomorphic encryption of the old
secret key under the new public key.  Applying it to a ciphertext
homomorphically decrypts under the old key (by the gadget of frue.matrix)
and re-randomizes under the new one, without touching the plaintext.

Epoch tags are carried on ciphertexts and tokens and enforced at every
operation; mismatches raise instead of silently producing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matrix import (DimensionMismatchError, MatrixZq, RngHandle, _lincomb,
                     ord_bits, sample_chi, tensor_d)
from .params import ParamSet
from .pke import EpochKey, UeCiphertext, pke_dec, pke_enc, pke_keygen


class EpochMismatchError(ValueError):
    """Ciphertext / token / key epochs are not aligned for this operation."""


class NoValidPlaneError(ValueError):
    """No bit plane is clean enough to read the old key out of a token."""


@dataclass(frozen=True)
class UpdateToken:
    """Delta_{e+1}: two ciphertext-like pairs keyed to the target epoch.

    The (1)-pair additionally hides -tensor_d(S_e) in its second component;
    the (2)-pair is a plain encryption of zero used for re-randomization.
    """
    epoch: int              # target epoch e+1
    d1_a: MatrixZq          # nD x n
    d1_b: MatrixZq          # nD x n_bar
    d2_a: MatrixZq          # n  x n
    d2_b: MatrixZq          # n  x n_bar

    def __post_init__(self):
        if self.epoch < 1:
            raise EpochMismatchError("token epoch must be >= 1")


def ue_kg(rng: RngHandle, p: ParamSet, A: MatrixZq, epoch: int) -> EpochKey:
    """Fresh epoch key: a PKE key pair stamped with the epoch index."""
    return replace(pke_keygen(rng, p, A), epoch=epoch)


def ue_enc(rng: RngHandle, p: ParamSet, A: MatrixZq, key: EpochKey, m) -> UeCiphertext:
    """PKE encryption under the key's public part, stamped with its epoch."""
    return replace(pke_enc(rng, p, A, key.pk_B, m), epoch=key.epoch)


def ue_dec(p: ParamSet, key: EpochKey, ct: UeCiphertext) -> np.ndarray:
    if ct.epoch != key.epoch:
        raise EpochMismatchError(f"ciphertext epoch {ct.epoch} != key epoch {key.epoch}")
    return pke_dec(p, key.sk_S, ct)


@dataclass(frozen=True)
class TokenRandomness:
    """Every noise sample one token generation consumes."""
    S1p: MatrixZq           # nD x n
    E1p: MatrixZq           # nD x n
    E1pp: MatrixZq          # nD x n_bar
    S2p: MatrixZq           # n x n
    E2p: MatrixZq           # n x n
    E2pp: MatrixZq          # n x n_bar


def sample_token_randomness(rng: RngHandle, p: ParamSet) -> TokenRandomness:
    """Draw the token noise, in this order, each matrix i.i.d. from chi:

      S'_(1), E'_(1) at nD x n, E''_(1) at nD x n_bar,
      S'_(2), E'_(2) at n x n,  E''_(2) at n x n_bar.

    This is the one place the layout and order are written down; ue_tg and
    the hybrid oracles both draw through it.  The six matrices come from one
    flat chi batch, sliced row-major.  A draw of w words consumes ceil(w / 4)
    Philox outputs (sample_chi), and every size here has the factor n, a
    multiple of 8, so the batch yields exactly what six separate draws in
    the same order would.
    """
    nD = p.n * p.D
    shapes = ((nD, p.n), (nD, p.n), (nD, p.n_bar),
              (p.n, p.n), (p.n, p.n), (p.n, p.n_bar))
    flat = sample_chi(rng, 1, sum(r * c for r, c in shapes), p).data
    mats, off = [], 0
    for r, c in shapes:
        mats.append(MatrixZq._new(flat[0, off:off + r * c].reshape(r, c), p.D))
        off += r * c
    return TokenRandomness(*mats)


def token_from_randomness(p: ParamSet, A: MatrixZq, sk_prev: MatrixZq,
                          pk_next: MatrixZq, epoch_next: int,
                          tr: TokenRandomness) -> UpdateToken:
    """Assemble Delta_{e+1} from explicit noise samples:

      Delta^(1) = (S'_(1) A + E'_(1),  S'_(1) B_next + E''_(1) - tensor_d(S_prev))
      Delta^(2) = (S'_(2) A + E'_(2),  S'_(2) B_next + E''_(2)).
    """
    if sk_prev.shape != (p.n, p.n_bar) or pk_next.shape != (p.n, p.n_bar):
        raise DimensionMismatchError("keys must be n x n_bar")
    return UpdateToken(
        epoch=epoch_next,
        d1_a=_lincomb((1, tr.S1p, A), (1, tr.E1p)),
        d1_b=_lincomb((1, tr.S1p, pk_next), (1, tr.E1pp), (-1, tensor_d(sk_prev))),
        d2_a=_lincomb((1, tr.S2p, A), (1, tr.E2p)),
        d2_b=_lincomb((1, tr.S2p, pk_next), (1, tr.E2pp)))


def ue_tg(rng: RngHandle, p: ParamSet, A: MatrixZq, sk_prev: MatrixZq,
          pk_next: MatrixZq, epoch_next: int) -> UpdateToken:
    """Token generation; needs only the old secret key and the new public key.

    Draws its noise with sample_token_randomness (which fixes the order) and
    assembles the token with token_from_randomness.
    """
    return token_from_randomness(p, A, sk_prev, pk_next, epoch_next,
                                 sample_token_randomness(rng, p))


def ue_upd(rng: RngHandle, p: ParamSet, tok: UpdateToken, ct: UeCiphertext) -> UeCiphertext:
    """Move a ciphertext to the next epoch; randomized, never idempotent.

    Checks the epochs before it draws R from chi at m_bar x n, then with
    O = ord_bits(C1) returns (O d1_a + R d2_a,  C2 + O d1_b + R d2_b).
    """
    if ct.epoch + 1 != tok.epoch:
        raise EpochMismatchError(
            f"token moves ciphertexts from epoch {tok.epoch - 1} to {tok.epoch}, "
            f"got one at epoch {ct.epoch}")
    R = sample_chi(rng, p.m_bar, p.n, p)
    O = ord_bits(ct.C1)
    return UeCiphertext(epoch=tok.epoch, C1=_lincomb((1, O, tok.d1_a), (1, R, tok.d2_a)),
                        C2=_lincomb((1, ct.C2), (1, O, tok.d1_b), (1, R, tok.d2_b)))


def select_recovery_plane(p: ParamSet) -> int:
    """Largest bit plane k* that survives the token noise.

    Needs 2**(k-1) * (s+1) < q/2 (signed lift stays faithful) and
    2**(k-2) > 2*n*s**2 + s (rounding swallows the noise).
    """
    noise = 2 * p.n * p.s * p.s + p.s
    for k in range(p.D, 0, -1):
        if (1 << k) * (p.s + 1) < p.q and (1 << k) > 4 * noise:
            return k
    raise NoValidPlaneError(
        f"no bit plane of {p.name} separates the key from noise <= {noise}")


def derive_prev_secret(p: ParamSet, sk_next: MatrixZq, tok: UpdateToken) -> MatrixZq:
    """Recover S_e from (sk_{e+1}, Delta_{e+1}): the backward-leak direction.

    W = d1_b - d1_a @ sk_next equals -tensor_d(S_e) + N with
    ||N||_max <= 2*n*s**2 + s, so plane k* holds -2**(k*-1) * S_e plus noise
    small enough that per-entry rounding is exact.
    """
    k = select_recovery_plane(p)
    W = _lincomb((1, tok.d1_b), (-1, tok.d1_a, sk_next))
    w = -W.signed()[(k - 1) * p.n: k * p.n].astype(np.int64)
    recovered = ((w << 1) + (1 << (k - 1))) >> k   # round-half-up of w / 2**(k-1)
    return MatrixZq.from_signed(recovered, p.D)
