import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frue import envelope as env
from frue.hybrids import hyb_ue_upd
from frue.matrix import MatrixZq, RngHandle, sample_chi, sample_uniform
from frue.params import load_paramset
from frue.pke import (pke_dec, pke_enc, pke_enc_traced, pke_keygen, pke_setup,
                      random_message_bits)
from frue.ue import (EpochMismatchError, NoValidPlaneError,
                     derive_prev_secret, ord_bits, sample_token_randomness,
                     select_recovery_plane, tensor_d, token_from_randomness,
                     ue_dec, ue_enc, ue_kg, ue_tg, ue_upd)

from conftest import adhoc_paramset, noiseless_paramset


# -- bit ordering and the gadget stack -------------------------------------

def test_ord_zero_and_small_example():
    assert ord_bits(MatrixZq.zeros(2, 3, 4)) == MatrixZq.zeros(2, 12, 4)
    # 3 = 11b, 1 = 01b: low-bit plane [1, 1], high-bit plane [1, 0]
    assert ord_bits(MatrixZq([[3, 1]], 2)) == MatrixZq([[1, 1, 1, 0]], 2)


def test_ord_reconstructs_input():
    rng = RngHandle(b"ordrec")
    p = adhoc_paramset(D=9)
    for _ in range(1000):
        m = sample_uniform(rng, 2, 3, p)
        y = ord_bits(m).data.reshape(2, 9, 3).astype(np.uint32)
        back = (y << np.arange(9, dtype=np.uint32)[None, :, None]).sum(axis=1) % p.q
        assert np.array_equal(back, m.data)


def test_tensor_examples():
    assert tensor_d(MatrixZq([[1]], 2)) == MatrixZq([[1], [2]], 2)
    assert tensor_d(MatrixZq([[3]], 3)) == MatrixZq([[3], [6], [4]], 3)  # 12 mod 8


def test_tensor_blocks_are_scaled_copies():
    rng = RngHandle(b"tblocks")
    p = adhoc_paramset(D=7)
    m = sample_uniform(rng, 4, 3, p)
    t = tensor_d(m)
    for k in range(1, p.D + 1):
        block = MatrixZq(t.data[(k - 1) * 4: k * 4], p.D)
        assert block == MatrixZq.from_signed(m.data.astype(np.int64) << (k - 1), p.D)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=12),
       st.integers())
def test_ord_tensor_identity_random(rows, inner, cols, D, seed):
    rng = RngHandle(str(seed))
    p = adhoc_paramset(D=D)
    c = sample_uniform(rng, rows, inner, p)
    s = sample_uniform(rng, inner, cols, p)
    assert ord_bits(c) @ tensor_d(s) == c @ s


def test_ord_tensor_identity_exhaustive_1x1():
    for D in range(1, 5):
        q = 1 << D
        for cv in range(q):
            c = MatrixZq([[cv]], D)
            oc = ord_bits(c)
            for sv in range(q):
                s = MatrixZq([[sv]], D)
                assert (oc @ tensor_d(s)).data[0, 0] == (cv * sv) % q


# -- scheme operations -------------------------------------------------------

def test_kg_stamps_epoch_and_separates_randomness(deployment16):
    d = deployment16
    assert [k.epoch for k in d["keys"]] == list(range(len(d["keys"])))
    assert d["keys"][0].sk_S != d["keys"][1].sk_S


def test_enc_dec_roundtrip(deployment16):
    d = deployment16
    rng = RngHandle(b"ue-rt")
    for _ in range(200):
        m = random_message_bits(rng, d["p"])
        ct = ue_enc(rng, d["p"], d["A"], d["keys"][0], m)
        assert ct.epoch == 0
        assert np.array_equal(ue_dec(d["p"], d["keys"][0], ct), m)


def test_ue_is_pke_plus_an_epoch(deployment16):
    # UE.KG and UE.Enc draw exactly as PKE.KG and PKE.Enc and only stamp the
    # epoch; the PKE layer itself outputs epoch 0
    p, A = deployment16["p"], deployment16["A"]
    kp = pke_keygen(RngHandle(b"ue-pke-kg"), p, A)
    assert kp.epoch == 0
    assert ue_kg(RngHandle(b"ue-pke-kg"), p, A, 5) == replace(kp, epoch=5)
    key = ue_kg(RngHandle(b"ue-pke-kg3"), p, A, 3)
    m = random_message_bits(RngHandle(b"ue-pke-m"), p)
    ct = pke_enc(RngHandle(b"ue-pke-enc"), p, A, key.pk_B, m)
    assert ct.epoch == 0
    assert ue_enc(RngHandle(b"ue-pke-enc"), p, A, key, m) == replace(ct, epoch=3)


def test_dec_rejects_epoch_mismatch(deployment16):
    d = deployment16
    rng = RngHandle(b"ue-epoch")
    ct = ue_enc(rng, d["p"], d["A"], d["keys"][0], random_message_bits(rng, d["p"]))
    with pytest.raises(EpochMismatchError):
        ue_dec(d["p"], d["keys"][1], ct)


def test_unrelated_key_same_epoch_decrypts_garbage(deployment16):
    d = deployment16
    rng = RngHandle(b"ue-wrongkey")
    wrong = ue_kg(rng, d["p"], d["A"], 0)
    mismatches = 0
    for _ in range(100):
        m = random_message_bits(rng, d["p"])
        ct = ue_enc(rng, d["p"], d["A"], d["keys"][0], m)
        mismatches += not np.array_equal(ue_dec(d["p"], wrong, ct), m)
    assert mismatches >= 99


def test_tg_noiseless_reveals_gadget_structure():
    # with zero noise and an explicit nonzero old secret, the hidden block is
    # exactly the negated gadget stack
    p = noiseless_paramset(D=10, n=8, m_bar=2, n_bar=2)
    rng = RngHandle(b"tg0")
    A = sample_uniform(rng, p.n, p.n, p)
    sk_prev = MatrixZq.from_signed(rng.integers(-1, 2, size=(p.n, p.n_bar)), p.D)
    pk_next = sample_uniform(rng, p.n, p.n_bar, p)
    tok = ue_tg(rng, p, A, sk_prev, pk_next, 1)
    assert tok.d1_a == MatrixZq.zeros(p.n * p.D, p.n, p.D)
    assert tok.d1_b == -tensor_d(sk_prev)
    assert tok.d2_a == MatrixZq.zeros(p.n, p.n, p.D)
    assert tok.d2_b == MatrixZq.zeros(p.n, p.n_bar, p.D)


def test_tg_components_stay_near_their_means(deployment16):
    d = deployment16
    p = d["p"]
    tr = sample_token_randomness(RngHandle(b"tg-instr"), p)
    tok = token_from_randomness(p, d["A"], d["keys"][0].sk_S, d["keys"][1].pk_B, 1, tr)
    assert (tok.d1_a - tr.S1p @ d["A"]).max_norm() <= p.s
    assert (tok.d2_a - tr.S2p @ d["A"]).max_norm() <= p.s


def test_update_chain_decrypts_and_respects_error_budget(deployment16):
    d = deployment16
    p = d["p"]
    rng = RngHandle(b"chain")
    per_update_bound = 2 * (p.n**2 * p.D * p.s**3 + p.n**2 * p.s**3) \
        + p.n * p.D * p.s + p.n * p.s**2
    for _ in range(100):
        m = random_message_bits(rng, p)
        ct = ue_enc(rng, p, d["A"], d["keys"][0], m)
        phi_prev = ct.C2 - ct.C1 @ d["keys"][0].sk_S
        for e in range(1, p.T_max + 1):
            ct = ue_upd(rng, p, d["tokens"][e], ct)
            assert ct.epoch == e
            phi = ct.C2 - ct.C1 @ d["keys"][e].sk_S
            assert (phi - phi_prev).max_norm() <= per_update_bound
            phi_prev = phi
        assert np.array_equal(ue_dec(p, d["keys"][p.T_max], ct), m)
    # toy-16's bit-plane products (inner n * D = 128) are exact in one
    # float32 product, so they stay on the float64 route
    mats = [ct.C1, ct.C2, *(getattr(t, f) for t in d["tokens"].values()
                            for f in ("d1_a", "d1_b", "d2_a", "d2_b"))]
    assert hasattr(d["tokens"][1].d1_a, "_f64")
    assert not any(hasattr(x, "_f32t") for x in mats)


def test_update_error_telescopes(deployment16):
    d = deployment16
    p = d["p"]
    rng = RngHandle(b"telescope")
    per_update = 2 * (p.n**2 * p.D * p.s**3 + p.n**2 * p.s**3) \
        + p.n * p.D * p.s + p.n * p.s**2
    m = random_message_bits(rng, p)
    ct = ue_enc(rng, p, d["A"], d["keys"][0], m)
    base = (ct.C2 - ct.C1 @ d["keys"][0].sk_S)
    for e in range(1, p.T_max + 1):
        ct = ue_upd(rng, p, d["tokens"][e], ct)
        drift = ((ct.C2 - ct.C1 @ d["keys"][e].sk_S) - base).max_norm()
        assert drift <= e * per_update


def test_update_requires_consecutive_epoch(deployment16):
    d = deployment16
    rng = RngHandle(b"upd-epoch")
    ct = ue_enc(rng, d["p"], d["A"], d["keys"][0], random_message_bits(rng, d["p"]))
    with pytest.raises(EpochMismatchError):
        ue_upd(rng, d["p"], d["tokens"][2], ct)
    # a rejected update draws nothing: the handle's next chi draw is the
    # first one of a fresh handle with the same seed
    spent = RngHandle(b"upd-reject")
    with pytest.raises(EpochMismatchError):
        ue_upd(spent, d["p"], d["tokens"][2], ct)
    fresh = RngHandle(b"upd-reject")
    assert sample_chi(spent, 4, 4, d["p"]) == sample_chi(fresh, 4, 4, d["p"])


def test_update_noiseless_is_exact():
    p = noiseless_paramset(D=12, B=2, n=8, m_bar=2, n_bar=2)
    rng = RngHandle(b"upd0")
    A = sample_uniform(rng, p.n, p.n, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    tok = ue_tg(rng, p, A, k0.sk_S, k1.pk_B, 1)
    m = random_message_bits(rng, p)
    ct = ue_enc(rng, p, A, k0, m)
    ct1 = ue_upd(rng, p, tok, ct)
    assert np.array_equal(ue_dec(p, k1, ct1), m)
    assert ((ct1.C2 - ct1.C1 @ k1.sk_S) - (ct.C2 - ct.C1 @ k0.sk_S)).max_norm() == 0


def test_updates_are_randomized(deployment16):
    d = deployment16
    rng = RngHandle(b"upd-rand")
    ct = ue_enc(rng, d["p"], d["A"], d["keys"][0], random_message_bits(rng, d["p"]))
    u1 = ue_upd(RngHandle(b"ra"), d["p"], d["tokens"][1], ct)
    u2 = ue_upd(RngHandle(b"rb"), d["p"], d["tokens"][1], ct)
    assert u1.C1 != u2.C1


def test_updated_ciphertext_unreadable_under_old_key(deployment16):
    # uni-directional ciphertext movement: the old secret no longer decrypts
    d = deployment16
    p = d["p"]
    rng = RngHandle(b"uni-ct")
    wrong = 0
    for _ in range(100):
        m = random_message_bits(rng, p)
        ct = ue_enc(rng, p, d["A"], d["keys"][0], m)
        ct1 = ue_upd(rng, p, d["tokens"][1], ct)
        old_view = pke_dec(p, d["keys"][0].sk_S, ct1)
        wrong += not np.array_equal(old_view, m)
    assert wrong >= 99


def test_one_token_many_ciphertexts_exact_at_frodo640():
    # each token matrix is converted once and reused: ord_bits(C1) @ d1_a and
    # @ d1_b run in float32 chunks, R @ d2_a and @ d2_b in float64; every
    # update must still be bit-exact
    p = load_paramset("frodo-640-shake")
    rng = RngHandle(b"upd640")
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    tok = ue_tg(rng, p, A, k0.sk_S, k1.pk_B, 1)
    mask = p.q - 1
    d2_a, d2_b = tok.d2_a.data.astype(np.int64), tok.d2_b.data.astype(np.int64)
    for i in range(3):
        ct = ue_enc(rng, p, A, k0, random_message_bits(rng, p))
        got = ue_upd(RngHandle(b"upd640-%d" % i), p, tok, ct)
        R = sample_chi(RngHandle(b"upd640-%d" % i), p.m_bar, p.n, p).data.astype(np.int64)
        # O @ X as row selection: row i of O marks bit k of C1[i, j] at k*n + j
        c1 = ct.C1.data.astype(np.int64)
        O = ((c1[:, None, :] >> np.arange(p.D)[None, :, None]) & 1).reshape(p.m_bar, -1) == 1
        o_d1a = np.stack([tok.d1_a.data[row].sum(axis=0, dtype=np.int64) for row in O])
        o_d1b = np.stack([tok.d1_b.data[row].sum(axis=0, dtype=np.int64) for row in O])
        assert got.epoch == 1
        assert np.array_equal(got.C1.data, (o_d1a + R @ d2_a) & mask)
        assert np.array_equal(got.C2.data,
                              (ct.C2.data.astype(np.int64) + o_d1b + R @ d2_b) & mask)
    # d1_a keeps only its float32 copy (half the bytes of a float64 one)
    assert hasattr(tok.d1_a, "_f32t") and not hasattr(tok.d1_a, "_f64")
    assert hasattr(tok.d2_a, "_f64") and not hasattr(tok.d2_a, "_f32t")


# Pinned key stream: a change to the draw order or dtype of TG, Upd or the
# hybrid must update these digests on purpose, and say so.
GOLDEN_SHA256 = {
    "token": "47cf949a3b5121ae5843f91300831bb46a62d216e4f5867ca82da569fce9475f",
    "upd": "c4e631de46a5988ebe6e88553ec0ca54f8fea6f66ca115d708a896bce00bdba2",
    "hyb": "54987571fa5fbba57d81f790bbdeff11fb8c615a9c1fb8be2c6239ae59c0a3ec",
}


def test_key_stream_matches_golden_digests(toy16):
    p = toy16
    rng = RngHandle(b"golden-scene")
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    m = random_message_bits(rng, p)
    ct, e_ct = pke_enc_traced(rng, p, A, k0.pk_B, m)
    tok = ue_tg(RngHandle(b"golden-tg"), p, A, k0.sk_S, k1.pk_B, 1)
    upd = ue_upd(RngHandle(b"golden-upd"), p, tok, ct)
    tr = sample_token_randomness(RngHandle(b"golden-tg"), p)
    hyb = hyb_ue_upd(RngHandle(b"golden-upd"), p, A, ct, k1.pk_B, m, e_ct, tr)
    got = {"token": env.pack_token(p, tok), "upd": env.pack_ciphertext(p, upd),
           "hyb": env.pack_ciphertext(p, hyb)}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == GOLDEN_SHA256


# The same at frodo-640-shake, whose update runs the float32 chunk route
GOLDEN_SHA256_640 = {
    "token": "4bad882062aab14395f0cf8950050c5bc2991d8c6b6b8b7a44a796735f4953be",
    "upd": "5c5503347c41bae69eb8697b5004150f863487fbff081709afa892a528ae96cd",
}


def test_key_stream_matches_golden_digests_at_frodo640():
    p = load_paramset("frodo-640-shake")
    rng = RngHandle(b"golden-scene-640")
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    ct = ue_enc(rng, p, A, k0, random_message_bits(rng, p))
    tok = ue_tg(RngHandle(b"golden-tg-640"), p, A, k0.sk_S, k1.pk_B, 1)
    upd = ue_upd(RngHandle(b"golden-upd-640"), p, tok, ct)
    got = {"token": env.pack_token(p, tok), "upd": env.pack_ciphertext(p, upd)}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == GOLDEN_SHA256_640
    # the update reads C1's bit planes without keeping anything on C1
    assert [s for s in MatrixZq.__slots__ if hasattr(ct.C1, s)] == ["data", "D"]


# -- backward-leak key derivation ---------------------------------------------

def test_derive_prev_secret_100_trials(deployment16):
    d = deployment16
    p = d["p"]
    for t in range(100):
        rng = RngHandle(f"derive-{t}")
        k0, k1 = ue_kg(rng, p, d["A"], 0), ue_kg(rng, p, d["A"], 1)
        tok = ue_tg(rng, p, d["A"], k0.sk_S, k1.pk_B, 1)
        assert derive_prev_secret(p, k1.sk_S, tok) == k0.sk_S


def test_derive_prev_secret_noiseless():
    p = noiseless_paramset(D=8, n=8, m_bar=2, n_bar=2)
    rng = RngHandle(b"derive0")
    A = sample_uniform(rng, p.n, p.n, p)
    sk_prev = MatrixZq.from_signed(rng.integers(-1, 2, size=(p.n, p.n_bar)), p.D)
    k1 = ue_kg(rng, p, A, 1)
    tok = ue_tg(rng, p, A, sk_prev, k1.pk_B, 1)
    assert derive_prev_secret(p, k1.sk_S, tok) == sk_prev
    # with no noise every plane below the sign cutoff works; the rule takes
    # the highest one
    assert select_recovery_plane(p) == p.D - 1


def test_no_valid_plane_on_undersized_modulus():
    cramped = adhoc_paramset(D=6, B=1, n=8, s=1)
    with pytest.raises(NoValidPlaneError):
        select_recovery_plane(cramped)
    rng = RngHandle(b"cramped")
    A = sample_uniform(rng, cramped.n, cramped.n, cramped)
    k0, k1 = ue_kg(rng, cramped, A, 0), ue_kg(rng, cramped, A, 1)
    tok = ue_tg(rng, cramped, A, k0.sk_S, k1.pk_B, 1)
    with pytest.raises(NoValidPlaneError):
        derive_prev_secret(cramped, k1.sk_S, tok)


def test_token_epoch_must_be_positive(deployment16):
    d = deployment16
    with pytest.raises(EpochMismatchError):
        ue_tg(RngHandle(b"e0"), d["p"], d["A"], d["keys"][0].sk_S,
              d["keys"][1].pk_B, 0)
