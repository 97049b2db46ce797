import hashlib
from dataclasses import replace

import numpy as np
import pytest

from frue import envelope as env
from frue.hybrids import (high_bits_projection, hyb_ue_upd,
                          hyb_update_sampler, make_update_instance,
                          real_update_sampler, sample_token_randomness,
                          sim_ue_enc, sim_ue_kg, sim_ue_tg, sim_ue_upd,
                          smudging_estimate, statistical_distance_estimate,
                          token_from_randomness)
from frue.matrix import DimensionMismatchError, MatrixZq, RngHandle, sample_chi
from frue.params import load_paramset
from frue.pke import encode, pke_enc_traced, pke_setup, random_message_bits
from frue.ue import EpochMismatchError, ue_dec, ue_kg, ue_upd

from conftest import adhoc_paramset, noiseless_paramset

CHI2_CUTOFF_15DF_001 = 37.697


def scene(p, seed=b"hyb-scene"):
    rng = RngHandle(seed)
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    return rng, A, k0, k1


def test_token_randomness_entries_within_support(toy16):
    rng, A, k0, k1 = scene(toy16)
    tr = sample_token_randomness(rng, toy16)
    for mat in (tr.S1p, tr.E1p, tr.E1pp, tr.S2p, tr.E2p, tr.E2pp, k1.pk_B - A @ k1.sk_S):
        assert mat.max_norm() <= toy16.s


def test_hyb_output_decrypts_to_same_message(toy16):
    rng, A, k0, k1 = scene(toy16)
    ok = 0
    for _ in range(200):
        m = random_message_bits(rng, toy16)
        ct, e_ct = pke_enc_traced(rng, toy16, A, k0.pk_B, m)
        tr = sample_token_randomness(rng, toy16)
        out = hyb_ue_upd(rng, toy16, A, ct, k1.pk_B, encode(m, toy16), e_ct, tr)
        assert out.epoch == 1
        ok += np.array_equal(ue_dec(toy16, k1, out), m)
    assert ok == 200


def test_hyb_noiseless_collapses_to_encoded_message():
    p = noiseless_paramset(D=10, B=2, n=8, m_bar=2, n_bar=2)
    rng, A, k0, k1 = scene(p)
    m = random_message_bits(rng, p)
    ct, e_ct = pke_enc_traced(rng, p, A, k0.pk_B, m)
    tr = sample_token_randomness(rng, p)
    out = hyb_ue_upd(rng, p, A, ct, k1.pk_B, encode(m, p), e_ct, tr)
    assert out.C1 == MatrixZq.zeros(p.m_bar, p.n, p.D)
    assert out.C2 == encode(m, p)


def test_real_and_hybrid_agree_up_to_garbage_term(toy16):
    # under shared token randomness and shared R, the only difference is the
    # cross-noise the real route drags along: S'_enc E_pk(e) - E'_enc S_e
    p = toy16
    rng = RngHandle(b"pairing")
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    m = random_message_bits(rng, p)
    s1 = sample_chi(rng, p.m_bar, p.n, p)
    e1 = sample_chi(rng, p.m_bar, p.n, p)
    e2 = sample_chi(rng, p.m_bar, p.n_bar, p)
    msg = encode(m, p)
    from frue.ue import UeCiphertext
    ct = UeCiphertext(0, s1 @ A + e1, s1 @ k0.pk_B + e2 + msg)
    tr = sample_token_randomness(rng, p)
    tok = token_from_randomness(p, A, k0.sk_S, k1.pk_B, 1, tr)
    real = ue_upd(RngHandle(b"pairing-R"), p, tok, ct)         # same seed: same R
    hyb = hyb_ue_upd(RngHandle(b"pairing-R"), p, A, ct, k1.pk_B, msg, e2, tr)
    garbage = s1 @ (k0.pk_B - A @ k0.sk_S) - e1 @ k0.sk_S
    assert real.C1 == hyb.C1
    assert real.C2 - hyb.C2 == garbage
    wide = MatrixZq.zeros(p.n, p.n_bar + 1, p.D)        # one column too many
    with pytest.raises(DimensionMismatchError, match="n x n_bar"):
        token_from_randomness(p, A, wide, k1.pk_B, 1, tr)


def test_sim_output_shapes(toy16):
    rng = RngHandle(b"sim")
    p = toy16
    nD = p.n * p.D
    assert sim_ue_kg(rng, p).shape == (p.n, p.n_bar)
    tok = sim_ue_tg(rng, p)
    assert tok.d1_a.shape == (nD, p.n) and tok.d1_b.shape == (nD, p.n_bar)
    assert tok.d2_a.shape == (p.n, p.n) and tok.d2_b.shape == (p.n, p.n_bar)
    for ct in (sim_ue_upd(rng, p), sim_ue_enc(rng, p)):
        assert ct.C1.shape == (p.m_bar, p.n)
        assert ct.C2.shape == (p.m_bar, p.n_bar)


def test_sim_deterministic_under_seed(toy16):
    assert sim_ue_enc(RngHandle(b"s"), toy16).C1 == sim_ue_enc(RngHandle(b"s"), toy16).C1
    assert sim_ue_tg(RngHandle(b"t"), toy16).d1_a == sim_ue_tg(RngHandle(b"t"), toy16).d1_a


SIM_SHA256 = {
    "toy-16": "cf6503a4591415c987f9c7a5ead2a208d91eee1009763dbc7e444bce62fcfd17",
    "toy-8": "938eac461dc0ddf072a3bc77bda0c5abba3b3a826fc671d70087690a8371260c",
    "frodo-640-shake": "24786561346367444af975f9ce0ecd2ea5c641e25dac757469c5bc851bfcb9e7",
}


def test_sim_draws_keep_their_bytes():
    # every simulator's output from a fixed seed, in its v1 file form (epoch
    # included), so a change to their draw order or shapes shows here
    for name, digest in SIM_SHA256.items():
        p = load_paramset(name)
        rng = RngHandle(b"sim-bytes-" + name.encode())
        h = hashlib.sha256(sim_ue_kg(rng, p).data)
        h.update(env.pack_token(p, sim_ue_tg(rng, p, 3)))
        for ct in (sim_ue_enc(rng, p, 0), sim_ue_enc(rng, p, 5), sim_ue_upd(rng, p)):
            h.update(env.pack_ciphertext(p, ct))
        assert h.hexdigest() == digest, name


def test_sim_marginals_uniform_chi_square():
    p = adhoc_paramset(D=4, n=8, m_bar=4, n_bar=4)
    rng = RngHandle(b"simchi")
    draws = []
    for _ in range(3200):                      # > 1e5 entries in total
        ct = sim_ue_enc(rng, p)
        draws.append(ct.C1.data.ravel())
    flat = np.concatenate(draws)
    counts = np.bincount(flat, minlength=16)
    expected = flat.size / 16
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CUTOFF_15DF_001


# -- statistical distance ------------------------------------------------------

def _stream_sampler(values):
    it = iter(values)
    return lambda: next(it)


def test_self_distance_baseline_small():
    rng = RngHandle(b"self")
    a = rng.integers(0, 16, size=1_000_000).tolist()
    b = rng.integers(0, 16, size=1_000_000).tolist()
    est = statistical_distance_estimate(_stream_sampler(a), _stream_sampler(b),
                                        1_000_000, int)
    assert est < 0.01


def test_uniform_vs_constant_distance():
    rng = RngHandle(b"const")
    a = rng.integers(0, 16, size=100_000).tolist()
    est = statistical_distance_estimate(_stream_sampler(a), lambda: 0,
                                        100_000, int)
    assert est >= 1 - 1 / 16 - 0.01


def test_smudging_margin_at_fixed_seed():
    dist, baseline = smudging_estimate(1, 1024, 1_000_000, RngHandle(b"smudge"))
    assert dist <= 2**-9 + baseline
    assert baseline < 0.05


def test_distance_estimates_refuse_an_empty_sample():
    with pytest.raises(ValueError, match=r"^num_samples must be >= 1, got 0$"):
        statistical_distance_estimate(lambda: 0, lambda: 0, 0, int)
    with pytest.raises(ValueError, match=r"^num_samples must be >= 1, got 0$"):
        smudging_estimate(1, 2, 0, RngHandle(b"empty"))
    # a negative count is refused as requested, before any draw
    with pytest.raises(ValueError, match=r"^num_samples must be >= 1, got -1$"):
        statistical_distance_estimate(lambda: 0, lambda: 0, -1, int)
    with pytest.raises(ValueError, match=r"^num_samples must be >= 1, got -1$"):
        smudging_estimate(1, 2, -1, RngHandle(b"empty"))


def _single_draws(inst, rng, sampler):
    """Today's single calls on one handle: the reference for a batched sampler."""
    p, msg = inst.p, encode(inst.m, inst.p)
    while True:
        tr = sample_token_randomness(rng, p)
        if sampler is real_update_sampler:
            tok = token_from_randomness(p, inst.A, inst.sk_prev, inst.pk_next, 1, tr)
            yield ue_upd(rng, p, tok, inst.ct)
        else:
            yield hyb_ue_upd(rng, p, inst.A, inst.ct, inst.pk_next, msg, inst.E_ct, tr)


@pytest.mark.parametrize("sampler", [real_update_sampler, hyb_update_sampler])
@pytest.mark.parametrize("name", ["toy-16", "toy-8"])
def test_batched_samplers_equal_single_draws(name, sampler):
    # a sampler reads k = 24 draws ahead (toy-8's D = 8 masks every sum); its
    # draws are 2-D and equal the single calls across batch boundaries, and
    # after whole batches the handle is where k single draws leave it
    p, k = load_paramset(name), 24
    inst = make_update_instance(p)
    rng, ref_rng = RngHandle(b"batched"), RngHandle(b"batched")
    draw, ref = sampler(inst, rng), _single_draws(inst, ref_rng, sampler)
    for i in range(3 * k):
        ct = draw()
        assert ct.C1.data.ndim == ct.C2.data.ndim == 2
        assert ct == next(ref), i
    assert rng.bytes(8) == ref_rng.bytes(8)
    # one draw reads exactly one batch ahead
    rng, ref_rng = RngHandle(b"one-batch"), RngHandle(b"one-batch")
    sampler(inst, rng)()
    ref = _single_draws(inst, ref_rng, sampler)
    for _ in range(k):
        next(ref)
    assert rng.bytes(8) == ref_rng.bytes(8)


def test_batched_real_draws_check_the_epochs(toy16):
    # as ue_upd does, a batch refuses a ciphertext its token does not move
    inst = make_update_instance(toy16)
    late = replace(inst, ct=replace(inst.ct, epoch=1))
    with pytest.raises(EpochMismatchError, match="got one at epoch 1"):
        real_update_sampler(late, RngHandle(b"late"))()


def test_late_real_sampler_is_refused_before_it_draws(toy16):
    # the epoch check runs when the sampler is built, so a refused sampler
    # has read nothing from its handle
    inst = make_update_instance(toy16)
    late = replace(inst, ct=replace(inst.ct, epoch=1))
    rng = RngHandle(b"late")
    with pytest.raises(EpochMismatchError, match="got one at epoch 1"):
        real_update_sampler(late, rng)
    assert rng.bytes(8) == RngHandle(b"late").bytes(8)
    # a batch that raises all the same (an old secret key of the wrong
    # shape) spends its sampler
    draw = real_update_sampler(replace(inst, sk_prev=inst.ct.C1), rng)
    with pytest.raises(DimensionMismatchError):
        draw()
    with pytest.raises(StopIteration):
        draw()


def test_batched_real_draw_at_frodo640_is_the_single_route():
    # a frodo-640 draw is 13 194 240 chi words (3 298 560 Philox outputs), so
    # a batch holds one (k = 1): 2-D matrices throughout, pairing included
    p = load_paramset("frodo-640-shake")
    inst = make_update_instance(p)
    rng, ref_rng = RngHandle(b"batched-640"), RngHandle(b"batched-640")
    assert real_update_sampler(inst, rng)() == next(_single_draws(inst, ref_rng,
                                                                   real_update_sampler))
    assert rng.bytes(8) == ref_rng.bytes(8)


def test_update_marginals_close_quick(toy16):
    # 20k-sample sanity version of the full acceptance comparison
    inst = make_update_instance(toy16)
    proj = high_bits_projection(toy16)
    d = statistical_distance_estimate(
        real_update_sampler(inst, RngHandle(b"qa")),
        hyb_update_sampler(inst, RngHandle(b"qb")), 20_000, proj)
    base = statistical_distance_estimate(
        real_update_sampler(inst, RngHandle(b"qc")),
        real_update_sampler(inst, RngHandle(b"qd")), 20_000, proj)
    assert d <= 3 * base
