import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frue.pke
import frue.ue
from frue import envelope as env
from frue.hybrids import hyb_ue_upd
from frue.matrix import MatrixZq, RngHandle, _chi_cut, sample_chi, sample_uniform
from frue.params import load_paramset, registered_names
from frue.pke import (encode, pke_dec, pke_enc, pke_enc_traced, pke_keygen, pke_setup,
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
    # update-sized inputs: one C1 at each frodo level, 8 and 64 frodo-640 C1s
    # stacked by rows, toy-16's 16 x 8 C1, and empty shapes.  Each records its
    # chunk, and its words, in whatever layout, compare, hash and serialize as
    # a C-order copy of them does
    shapes = [(8, 640, 15), (64, 640, 15), (512, 640, 15), (8, 976, 16),
              (8, 1344, 16), (16, 8, 16), (0, 5, 9), (5, 0, 9)]
    for rows, cols, D in shapes:
        p = adhoc_paramset(D=D)
        m = sample_uniform(rng, rows, cols, p)
        out = ord_bits(m)
        assert out.shape == (rows, cols * D) and out._k == (2**26 - 1) // (p.q // 2)
        y = out.data.reshape(rows, D, cols).astype(np.uint32)
        back = (y << np.arange(D, dtype=np.uint32)[None, :, None]).sum(axis=1)
        assert np.array_equal(back, m.data)
        plain = MatrixZq(np.ascontiguousarray(out.data), D)
        assert out == plain and hash(out) == hash(plain)
        assert out.to_bytes() == plain.to_bytes()
    # the planes keep no product copy until a product reads one: an 8-row
    # left side pairs its right side's columns against a C-contiguous float64
    # copy of its transpose, built then
    p = adhoc_paramset(D=15)
    O = ord_bits(sample_uniform(rng, 8, 640, p))
    assert [s for s in MatrixZq.__slots__ if hasattr(O, s)] == ["data", "D", "_k"]
    O @ sample_uniform(rng, 9600, 640, p)
    assert O._f64t.dtype == np.float64 and O._f64t.flags.c_contiguous
    assert np.array_equal(O._f64t, O.data.T)
    # below the pairing floor (toy-16's inner 128) the planes' float64 copy
    # of the lift is C-contiguous too, though the words are a transposed view
    p = adhoc_paramset(D=16)
    T = ord_bits(sample_uniform(rng, 16, 8, p))
    T @ sample_uniform(rng, 128, 8, p)
    assert T._f64.flags.c_contiguous and np.array_equal(T._f64, T.data)


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
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=12),
       st.integers())
@example(0, 5, 3, 4, 0)     # ord_bits of 0 x n
@example(3, 5, 0, 4, 0)     # tensor_d of n x 0
@example(3, 0, 2, 4, 0)     # m x 0 @ 0 x k
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
    # toy-16's bit-plane products (inner n * D = 128) are below _PAIR_ROWS,
    # so they stay on the float64 route and pair no columns
    mats = [ct.C1, ct.C2, *(getattr(t, f) for t in d["tokens"].values()
                            for f in ("d1_a", "d1_b", "d2_a", "d2_b"))]
    assert hasattr(d["tokens"][1].d1_a, "_f64")
    assert not any(hasattr(x, "_colpairs") for x in mats)


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


def _updates_match_row_selection(p, label, count):
    """Run `count` updates on one token and check each against int64 row
    selection; returns the token, whose kept copies the caller checks."""
    rng = RngHandle(b"upd" + label)
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    tok = ue_tg(rng, p, A, k0.sk_S, k1.pk_B, 1)
    mask = p.q - 1
    d2_a, d2_b = tok.d2_a.data.astype(np.int64), tok.d2_b.data.astype(np.int64)
    for i in range(count):
        ct = ue_enc(rng, p, A, k0, random_message_bits(rng, p))
        got = ue_upd(RngHandle(b"upd%s-%d" % (label, i)), p, tok, ct)
        R = sample_chi(RngHandle(b"upd%s-%d" % (label, i)), p.m_bar, p.n, p)
        R = R.data.astype(np.int64)
        # O @ X as row selection: row i of O marks bit k of C1[i, j] at k*n + j
        c1 = ct.C1.data.astype(np.int64)
        O = ((c1[:, None, :] >> np.arange(p.D)[None, :, None]) & 1).reshape(p.m_bar, -1) == 1
        o_d1a = np.stack([tok.d1_a.data[row].sum(axis=0, dtype=np.int64) for row in O])
        o_d1b = np.stack([tok.d1_b.data[row].sum(axis=0, dtype=np.int64) for row in O])
        assert got.epoch == 1
        assert np.array_equal(got.C1.data, (o_d1a + R @ d2_a) & mask)
        assert np.array_equal(got.C2.data,
                              (ct.C2.data.astype(np.int64) + o_d1b + R @ d2_b) & mask)
    return tok


def test_one_token_many_ciphertexts_exact_at_frodo640():
    # each token matrix is converted once and reused: ord_bits(C1) @ d1_a and
    # @ d1_b pair d1's columns in chunks of 4095 inner rows (D = 15), and the
    # 8-row chi R pairs d2_a's and d2_b's columns in one chunk; every update
    # must still be bit-exact
    tok = _updates_match_row_selection(load_paramset("frodo-640-shake"), b"640", 3)
    # d1_a and d2_a keep only their column pairs (half a float64 copy)
    assert hasattr(tok.d1_a, "_colpairs") and not hasattr(tok.d1_a, "_f64")
    assert hasattr(tok.d2_a, "_colpairs") and not hasattr(tok.d2_a, "_f64")


def test_update_exact_at_frodo1344():
    # D = 16: the bit-plane products run in chunks of 2047 inner rows, 11 of
    # them over n * D = 21 504, each half of a chunk up to 2047 * 2**15
    tok = _updates_match_row_selection(load_paramset("frodo-1344-shake"), b"1344", 1)
    assert tok.d1_a._colpairs.shape == (672, 21_504) and not hasattr(tok.d1_a, "_f64")


def test_product_routes_keep_their_copies(toy16, monkeypatch):
    # at frodo-640 every product has at least 512 inner rows and pairs its
    # larger operand.  S'_(1) (nD rows) packs its rows against A and B and
    # keeps no float64 copy; S'_(2) (n rows) packs its rows against B and
    # pairs A's columns, as Enc's S_1 and Upd's R (m_bar rows) do, which
    # keep only a float64 copy of their transpose, the right side of
    # pairs(Y) @ X^T.  Every float copy holds the signed lift, in
    # [-q/2, q/2).  KeyGen's uniform A on the left measures past the limit
    # (_k = 0) and packs no rows.  toy-16's products are below the floor and
    # keep float64 copies
    p = load_paramset("frodo-640-shake")

    def lift(m):
        return ((m.data.astype(np.int64) + m.q // 2) & (m.q - 1)) - m.q // 2

    def slots(m):
        return [s for s in MatrixZq.__slots__ if hasattr(m, s)]

    rng = RngHandle(b"slots640")
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    drawn = []
    monkeypatch.setattr(frue.pke, "_chi_cut",
                        lambda *args: drawn.append(_chi_cut(*args)) or drawn[-1])
    ct = ue_enc(rng, p, A, k0, random_message_bits(rng, p))
    monkeypatch.undo()
    S1 = drawn[0][0]
    assert slots(S1) == ["data", "D", "_f64t", "_k"] and S1._f64t.nbytes == 40_960
    tr = sample_token_randomness(rng, p)
    tok = token_from_randomness(p, A, k0.sk_S, k1.pk_B, 1, tr)
    assert all(type(getattr(tr, f.name)) is MatrixZq for f in fields(tr))
    assert slots(tr.S1p) == ["data", "D", "_pairs", "_k"] and tr.S1p._k == p.n
    assert tr.S1p._pairs.nbytes == 24_576_000           # 4800 x 640 float64
    assert slots(tr.S2p) == ["data", "D", "_f64t", "_pairs", "_k"]
    assert tr.S2p._pairs.nbytes == 1_638_400 and tr.S2p._f64t.nbytes == 3_276_800
    assert np.array_equal(tr.S2p._f64t, lift(tr.S2p).T)
    assert slots(A) == ["data", "D", "_f64", "_colpairs", "_k"] and A._k == 0
    assert A._f64.nbytes == 8 * p.n**2 and np.array_equal(A._f64, lift(A))
    y = lift(A)
    assert np.array_equal(A._colpairs, (y[:, :320] + 2**27 * y[:, 320:]).T)
    drawn, planes = [], []
    monkeypatch.setattr(frue.ue, "_chi_cut",
                        lambda *args: drawn.append(_chi_cut(*args)) or drawn[-1])
    monkeypatch.setattr(frue.ue, "ord_bits",
                        lambda M: planes.append(ord_bits(M)) or planes[-1])
    ue_upd(rng, p, tok, ct)
    monkeypatch.undo()
    ((R,),) = drawn
    assert slots(R) == ["data", "D", "_f64t", "_k"] and R._f64t.nbytes == 40_960
    # d1_a and d2_a, on the right of Upd's products, keep their column pairs
    # as rows (320 x 9600 and 320 x 640 float64); C1's bit planes, fresh per
    # ciphertext, keep a float64 copy of their transpose, 9600 x 8, and the
    # chunk ord_bits recorded
    (O,) = planes
    assert slots(O) == ["data", "D", "_f64t", "_k"] and O._k == (2**26 - 1) // (p.q // 2)
    assert O._f64t.nbytes == 614_400 and np.array_equal(O._f64t, O.data.T)
    assert O._f64t.flags.c_contiguous and R._f64t.flags.c_contiguous
    y = lift(tok.d1_a)
    assert slots(tok.d1_a) == ["data", "D", "_colpairs"]
    assert tok.d1_a._colpairs.shape == (320, 9600)
    assert np.array_equal(tok.d1_a._colpairs, (y[:, :320] + 2**27 * y[:, 320:]).T)
    assert not tok.d1_a._colpairs.flags.writeable
    assert slots(tok.d2_a) == ["data", "D", "_colpairs"]
    assert tok.d2_a._colpairs.nbytes == 1_638_400
    del A, tok, tr
    _, A = pke_setup(rng, toy16)
    k0, k1 = ue_kg(rng, toy16, A, 0), ue_kg(rng, toy16, A, 1)
    tr = sample_token_randomness(rng, toy16)
    token_from_randomness(toy16, A, k0.sk_S, k1.pk_B, 1, tr)
    for S in (tr.S1p, tr.S2p):
        assert hasattr(S, "_f64") and not hasattr(S, "_pairs")


def test_token_randomness_equals_six_consecutive_chi_draws():
    # a draw of w words reads ceil(w / 4) Philox outputs, and every TG shape
    # has the factor n (a multiple of 8), so the one flat batch and six draws
    # on one handle read the same words
    for name in registered_names():
        p = load_paramset(name)
        tr = sample_token_randomness(RngHandle(b"six-draws"), p)
        rng = RngHandle(b"six-draws")
        for mat in (getattr(tr, f.name) for f in fields(tr)):
            assert sample_chi(rng, mat.rows, mat.cols, p) == mat, name
        del tr, mat


# Pinned key stream: a change to the draw order or dtype of TG, Upd or the
# hybrid must update these digests on purpose, and say so.
GOLDEN_SHA256 = {
    "token": "c514760cb779aaf004545c796619848b6b8ee8ee54871f920f4688dfee1f8e4f",
    "upd": "ce5f6e8841d08b47ea00555bc4e19b706bf2ca3426c03d682db2eb0d19ad229d",
    "hyb": "3464a0c6a4bcf37522629ac5dcc6fd31c13a7a721739df0a19593eb62b79a7cc",
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
    hyb = hyb_ue_upd(RngHandle(b"golden-upd"), p, A, ct, k1.pk_B, encode(m, p), e_ct, tr)
    got = {"token": env.pack_token(p, tok), "upd": env.pack_ciphertext(p, upd),
           "hyb": env.pack_ciphertext(p, hyb)}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == GOLDEN_SHA256


# The same at frodo-640-shake, whose update pairs d1's columns in chunks
GOLDEN_SHA256_640 = {
    "token": "8c93ca49d53a119773f670a76b533a12b70918420bb7a6dc9a3f55444e715c86",
    "upd": "3a79573dfcc235e47f6e6cfcd85cfd19fad064a3ae8a5ade9fed0a3ae491a03b",
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


# frodo-976 and frodo-1344 tokens, pinned before their S'·A products took the
# paired route, where the centred copy of A holds words down to -q/2 at D = 16
GOLDEN_SHA256_TOKEN = {
    "frodo-976-shake": "152231f5a02a330f55f96ffc2152e8a7def587185cfb15b242ebca0fb95828ad",
    "frodo-1344-shake": "46a150ca6526403d4a310bf777fee47b948cfa59e1cc9bb3d51839216eafdc8b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256_TOKEN))
def test_token_matches_golden_digest_at_d16(name):
    p = load_paramset(name)
    level = str(p.n).encode()
    rng = RngHandle(b"golden-scene-" + level)
    _, A = pke_setup(rng, p)
    k0, k1 = ue_kg(rng, p, A, 0), ue_kg(rng, p, A, 1)
    tok = ue_tg(RngHandle(b"golden-tg-" + level), p, A, k0.sk_S, k1.pk_B, 1)
    assert hashlib.sha256(env.pack_token(p, tok)).hexdigest() == GOLDEN_SHA256_TOKEN[name]


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
    cramped = adhoc_paramset(D=6, B=1, n=8)
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
