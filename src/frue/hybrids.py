"""Hybrid and simulator procedures, used as statistical test oracles.

hyb_ue_upd re-derives an updated ciphertext directly from the plaintext, the
next public key, and the token's noise samples (drawn by
frue.ue.sample_token_randomness, as ue_tg draws them), instead of pushing the
old ciphertext through the token.  Up to a bounded cross-noise term (the product
of encryption noise with key material, which the real update drags along),
the two routes produce the same distribution; tests quantify the gap with
an empirical total-variation estimate on projected marginals.

real_update_sampler and hyb_update_sampler read ahead, k draws per batch: one
chi draw of k rounds of the token noise and R, then one call of the token and
update formulas (or the hybrid's) on the stacks they form (frue.matrix).  A
batch builds its k ciphertexts and drops its stacks before it hands out the
first.  The words and their order are those of k single draws, so each draw
equals the single calls on the same handle (sample_token_randomness,
token_from_randomness and ue_upd, or hyb_ue_upd) bit for bit, and after whole
batches the handle is where those calls leave it.  k is
min(24, max(1, 2**20 // w)), w the chi words of one draw: 24 at toy-16
(w = 3392) and toy-8 (w = 1472), and 1 at every frodo set, whose draws keep
the 2-D products, pairing included.  At toy-16 (one BLAS thread on a 2-core
shared x86-64 host) a draw read about 100 us single, 30 us at k = 8, 20 us at
k = 24 to 64 and 25-30 us at k = 256, as a batch's float64 stacks outgrow L2.
24 also divides the 72 real and 24 hybrid draws of a perfbench oracle-toy16
round, so each round starts at a batch boundary and the benchmark's two
traced passes count the same calls.

A sampler owns its handle.  It draws the words of up to k - 1 draws before
they are asked for, so another user of the same handle would read
different words than with single calls.  The CLI, the tests and the
benchmark each give every sampler a fresh handle (a new seed or derive()).
real_update_sampler refuses a ciphertext its token does not move before it
draws.  A batch that raises (a malformed instance, say keys of the wrong
shape) spends its sampler: every later call raises StopIteration.

The Sim procedures draw every matrix record of the object's file
(envelope._layout) uniformly, in file order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .envelope import KIND_CIPHERTEXT, KIND_PUBLIC_KEY, KIND_TOKEN, _layout
from .matrix import MatrixZq, RngHandle, _chi_cut, _lincomb, _unstack, sample_uniform
from .params import ParamSet
from .pke import encode, pke_enc_traced, pke_setup, random_message_bits
from .ue import (TokenRandomness, UeCiphertext, UpdateToken, _check_update_epochs,
                 _token_shapes, _update, ord_bits, sample_token_randomness,
                 token_from_randomness, ue_kg)


def hyb_ue_upd(rng: RngHandle, p: ParamSet, A: MatrixZq, ct: UeCiphertext,
               pk_next: MatrixZq, msg: MatrixZq, E_ct: MatrixZq,
               tr: TokenRandomness) -> UeCiphertext:
    """Rebuild the updated ciphertext from plaintext-side data.

    With O = ord_bits(C1) and fresh R from chi:
      S+  = O @ S1p + R @ S2p
      E+  = O @ E1p + R @ E2p
      E++ = O @ E1pp + R @ E2pp + E_ct
    and the output is (S+ A + E+,  S+ B_next + E++ + msg), where msg is the
    plaintext m already encoded (encode(m, p)) and E_ct is the C2 noise of
    the ciphertext being updated (caller-instrumented).
    """
    return _hyb_update(A, ct, pk_next, msg, E_ct, tr, *_chi_cut(rng, p, (p.m_bar, p.n)))


def _hyb_update(A: MatrixZq, ct: UeCiphertext, pk_next: MatrixZq, msg: MatrixZq,
                E_ct: MatrixZq, tr: TokenRandomness, R: MatrixZq) -> UeCiphertext:
    """hyb_ue_upd's formula with its R given.  The noise and R may be stacks
    (frue.matrix), and the result then is one: k reconstructions."""
    O = ord_bits(ct.C1)
    s_dag = _lincomb((1, O, tr.S1p), (1, R, tr.S2p))
    return UeCiphertext(
        epoch=ct.epoch + 1,
        C1=_lincomb((1, s_dag, A), (1, O, tr.E1p), (1, R, tr.E2p)),
        C2=_lincomb((1, s_dag, pk_next), (1, O, tr.E1pp), (1, R, tr.E2pp),
                    (1, E_ct), (1, msg)))


def _sim_records(rng: RngHandle, kind: int, p: ParamSet) -> dict[str, MatrixZq]:
    """Uniform draws of the matrix records a file of this kind holds, in order."""
    return {name: sample_uniform(rng, rows, cols, p)
            for name, rows, cols in _layout(kind, p)}


def sim_ue_kg(rng: RngHandle, p: ParamSet) -> MatrixZq:
    """Simulated public key: uniform n x n_bar."""
    return _sim_records(rng, KIND_PUBLIC_KEY, p)["pk_B"]


def sim_ue_tg(rng: RngHandle, p: ParamSet, epoch: int = 1) -> UpdateToken:
    """Simulated token: uniform components of the real token's shapes."""
    return UpdateToken(epoch=epoch, **_sim_records(rng, KIND_TOKEN, p))


def sim_ue_upd(rng: RngHandle, p: ParamSet, epoch: int = 1) -> UeCiphertext:
    return sim_ue_enc(rng, p, epoch)


def sim_ue_enc(rng: RngHandle, p: ParamSet, epoch: int = 0) -> UeCiphertext:
    return UeCiphertext(epoch=epoch, **_sim_records(rng, KIND_CIPHERTEXT, p))


def statistical_distance_estimate(sampler_a: Callable[[], object],
                                  sampler_b: Callable[[], object],
                                  num_samples: int,
                                  projection: Callable[[object], int]) -> float:
    """Empirical total-variation distance between two projected sample streams.

    Both samplers are drawn num_samples times; the projection must map each
    sample to an integer in a small range, or sampling noise dominates.
    """
    _check_samples(num_samples)
    xs, ys = [np.fromiter((projection(draw()) for _ in range(num_samples)),
                          dtype=np.int64, count=num_samples)
              for draw in (sampler_a, sampler_b)]
    return _empirical_tv(xs, ys)


# -- canned instances for the distribution checks ---------------------------

@dataclass(frozen=True)
class UpdateInstance:
    """A fixed scene (keys, plaintext, traced ciphertext) over which the real
    and hybrid update routes are compared as distributions."""
    p: ParamSet
    A: MatrixZq
    sk_prev: MatrixZq
    pk_next: MatrixZq
    sk_next: MatrixZq
    m: object
    ct: UeCiphertext
    E_ct: MatrixZq


def make_update_instance(p: ParamSet, seed: bytes = b"frue-upd-instance") -> UpdateInstance:
    rng = RngHandle(seed)
    _, A = pke_setup(rng, p)
    k0 = ue_kg(rng, p, A, 0)
    k1 = ue_kg(rng, p, A, 1)
    m = random_message_bits(rng, p)
    ct, e_ct = pke_enc_traced(rng, p, A, k0.pk_B, m)
    return UpdateInstance(p=p, A=A, sk_prev=k0.sk_S, pk_next=k1.pk_B,
                          sk_next=k1.sk_S, m=m, ct=ct, E_ct=e_ct)


# k = min(_BATCH, max(1, _BATCH_WORDS // w)), w a draw's chi words (module docstring)
_BATCH = 24
_BATCH_WORDS = 2**20


def _read_ahead(p: ParamSet, rng: RngHandle,
                update: Callable[[TokenRandomness, MatrixZq], UeCiphertext]
                ) -> Callable[[], UeCiphertext]:
    """The draws of one batch after another: a batch is one chi draw of k
    rounds of sample_token_randomness's shapes and R, in the words and order
    of k single draws, and one call of `update` on the stacks they form."""
    shapes = (*_token_shapes(p), (p.m_bar, p.n))
    k = min(_BATCH, max(1, _BATCH_WORDS // sum(r * c for r, c in shapes)))

    def batch() -> list[UeCiphertext]:
        *tr, R = _chi_cut(rng, p, *shapes, k=k)
        ct = update(TokenRandomness(*tr), R)
        return [UeCiphertext(epoch=ct.epoch, C1=c1, C2=c2)
                for c1, c2 in zip(_unstack(ct.C1), _unstack(ct.C2))]

    return itertools.chain.from_iterable(iter(batch, None)).__next__


def real_update_sampler(inst: UpdateInstance, rng: RngHandle) -> Callable[[], UeCiphertext]:
    """One draw = fresh token randomness, then the real update route
    (token_from_randomness, then ue_upd), read ahead in batches; the
    sampler owns `rng`, and refuses a late ciphertext before it draws."""
    _check_update_epochs(1, inst.ct)
    return _read_ahead(inst.p, rng, lambda tr, R: _update(
        token_from_randomness(inst.p, inst.A, inst.sk_prev, inst.pk_next, 1, tr),
        inst.ct, R))


def hyb_update_sampler(inst: UpdateInstance, rng: RngHandle) -> Callable[[], UeCiphertext]:
    """One draw = fresh token randomness, then the hybrid reconstruction
    (hyb_ue_upd), read ahead in batches; the sampler owns `rng` (module
    docstring)."""
    msg = encode(inst.m, inst.p)      # the same plaintext on every draw
    return _read_ahead(inst.p, rng, lambda tr, R: _hyb_update(
        inst.A, inst.ct, inst.pk_next, msg, inst.E_ct, tr, R))


def high_bits_projection(p: ParamSet) -> Callable[[UeCiphertext], int]:
    """Project a ciphertext to the top 4 bits of one C2 entry (alphabet 16)."""
    shift = p.D - 4

    def project(ct: UeCiphertext) -> int:
        return int(ct.C2.data[0, 0]) >> shift

    return project


def _check_samples(num_samples: int) -> None:
    """Refuse a sample count below 1 before anything is drawn."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")


def _empirical_tv(xs, ys) -> float:
    lo = int(min(xs.min(), ys.min()))
    hi = int(max(xs.max(), ys.max()))
    cx = np.bincount(xs - lo, minlength=hi - lo + 1)
    cy = np.bincount(ys - lo, minlength=hi - lo + 1)
    return float(np.abs(cx - cy).sum()) / (2.0 * len(xs))


def smudging_estimate(b1: int, b2: int, num_samples: int,
                      rng: RngHandle) -> tuple[float, float]:
    """Empirical TV between uniform noise on [-b2, b2] and the same noise
    shifted by a fixed e1 = b1, plus a same-distribution baseline.

    The analytic distance is b1 / (2*b2 + 1): drowning a small offset in a
    much wider uniform draw leaves the distribution nearly unchanged.
    """
    _check_samples(num_samples)
    wide = lambda: rng.integers(-b2, b2 + 1, size=num_samples)
    dist = _empirical_tv(wide(), wide() + b1)
    baseline = _empirical_tv(wide(), wide())
    return dist, baseline
