from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frue.matrix import DimensionMismatchError, MatrixZq, RngHandle
from frue.pke import (MessageLengthError, bits_from_bytes, bytes_from_bits,
                      decode, encode, pke_dec, pke_enc, pke_enc_traced,
                      pke_keygen, pke_setup, random_message_bits)

from conftest import adhoc_paramset, noiseless_paramset
from oracles import dc_reference as dc


def setup_scene(p, seed=b"pke-scene"):
    rng = RngHandle(seed)
    _, A = pke_setup(rng, p)
    kp = pke_keygen(rng, p, A)
    return rng, A, kp


# -- encode / decode ---------------------------------------------------------

def test_encode_single_group_examples():
    p = adhoc_paramset(D=4, B=2, m_bar=1, n_bar=1)
    assert encode(np.array([1, 1], np.uint8), p) == MatrixZq([[12]], 4)   # k=3 -> 3*q/4
    # the two-bit group "01" denotes k=1; stored least-significant bit first
    assert encode(np.array([1, 0], np.uint8), p) == MatrixZq([[4]], 4)
    assert encode(np.zeros(2, np.uint8), p) == MatrixZq.zeros(1, 1, 4)


def test_decode_tolerates_small_error_example():
    p = adhoc_paramset(D=4, B=2, m_bar=1, n_bar=1)
    # ec(3) = 12; error +1 stays below q / 2**(B+1) = 2
    assert decode(MatrixZq([[13]], 4), p).tolist() == [1, 1]


def test_encode_rejects_wrong_length(toy16):
    with pytest.raises(MessageLengthError):
        encode(np.zeros(toy16.ell + 1, np.uint8), toy16)
    with pytest.raises(MessageLengthError):
        encode(np.full(toy16.ell, 2, np.uint8), toy16)


def test_message_entries_are_checked_before_any_cast(toy16):
    # a uint8 cast would read 256 as 0, 257 as 1 and 0.9 as 0
    rng, A, kp = setup_scene(toy16)
    ell = toy16.ell
    bad = [np.full(ell, 256), np.full(ell, 257), np.full(ell, 0.9), np.zeros(ell),
           np.zeros(ell, dtype=complex), np.full(ell, -1), [1.0] * ell]
    for m in bad:
        with pytest.raises(MessageLengthError, match="bits"):
            encode(m, toy16)
        with pytest.raises(MessageLengthError, match="bits"):
            pke_enc(rng, toy16, A, kp.pk_B, m)
    # bool, uint8, int and list inputs encode as before
    want = encode(np.ones(ell, np.uint8), toy16)
    for m in (np.ones(ell, bool), np.ones(ell, np.int64), [1] * ell, [True] * ell):
        assert encode(m, toy16) == want


@settings(max_examples=60, deadline=None)
@given(st.integers())
def test_decode_left_inverse_of_encode(seed):
    p = adhoc_paramset(D=6, B=3, m_bar=2, n_bar=3)
    m = random_message_bits(RngHandle(str(seed)), p)
    assert np.array_equal(decode(encode(m, p), p), m)


@pytest.mark.parametrize("D,B", [(4, 1), (4, 2), (6, 2), (8, 2), (8, 4), (8, 8)])
def test_round_half_up_lemma_exhaustive(D, B):
    # dc(ec(k) + e) = k for every k < 2**B and every integer e in
    # [-q/2**(B+1), q/2**(B+1)); the tie at the lower endpoint must round up
    q = 1 << D
    half = q // 2 ** (B + 1)
    for k in range(2**B):
        for e in range(-half, max(half, 1)):
            c = (k * q // 2**B + e) % q
            assert dc(c, D, B) == k, (k, e)


def test_library_decode_matches_reference_dc():
    p = adhoc_paramset(D=8, B=3, m_bar=2, n_bar=2)
    rng = RngHandle(b"dcref")
    m = MatrixZq(rng.integers(0, p.q, size=(2, 2), dtype=np.uint16), 8)
    got = decode(m, p)
    groups = got.reshape(4, 3)
    ks = [int(sum(int(b) << i for i, b in enumerate(g))) for g in groups]
    expected = [dc(int(c), 8, 3) for c in m.data.ravel()]
    assert ks == expected


def test_bits_bytes_roundtrip():
    data = bytes(range(17))
    bits = bits_from_bytes(data, 8 * len(data))
    assert bytes_from_bits(bits) == data
    with pytest.raises(MessageLengthError):
        bits_from_bytes(b"\x01", 9)
    with pytest.raises(MessageLengthError):     # not a 5-bit slice of the byte
        bits_from_bytes(b"\xff", -3)


# -- keygen -------------------------------------------------------------------

def test_keygen_noise_within_support(toy16):
    rng = RngHandle(b"kg-noise")
    _, A = pke_setup(rng, toy16)
    for _ in range(100):
        kp = pke_keygen(rng, toy16, A)
        assert (kp.pk_B - A @ kp.sk_S).max_norm() <= toy16.s


def test_keygen_deterministic(toy16):
    _, A = pke_setup(RngHandle(b"kg-det"), toy16)
    k1 = pke_keygen(RngHandle(b"same"), toy16, A)
    k2 = pke_keygen(RngHandle(b"same"), toy16, A)
    assert k1.sk_S == k2.sk_S and k1.pk_B == k2.pk_B


def test_keygen_noiseless_gives_exact_relation():
    p = noiseless_paramset(D=10, n=8, m_bar=2, n_bar=2)
    rng, A, kp = setup_scene(p)
    assert kp.pk_B == A @ kp.sk_S


def test_keygen_rejects_wrong_public_matrix(toy16):
    bad_A = MatrixZq.zeros(4, 4, toy16.D)
    with pytest.raises(DimensionMismatchError):
        pke_keygen(RngHandle(b"x"), toy16, bad_A)


# -- encrypt / decrypt -----------------------------------------------------------

def test_roundtrip_1000_messages(toy16):
    rng, A, kp = setup_scene(toy16)
    recovered = 0
    for _ in range(1000):
        m = random_message_bits(rng, toy16)
        ct = pke_enc(rng, toy16, A, kp.pk_B, m)
        recovered += np.array_equal(pke_dec(toy16, kp.sk_S, ct), m)
    assert recovered == 1000


def test_roundtrip_holds_wherever_single_ct_noise_fits(toy8):
    # single-ciphertext noise bound: 2 n s**2 + s < q / 2**(B+1)
    assert 2 * toy8.n * toy8.s**2 + toy8.s < toy8.q // 2 ** (toy8.B + 1)
    rng, A, kp = setup_scene(toy8, seed=b"toy8-rt")
    for _ in range(200):
        m = random_message_bits(rng, toy8)
        ct = pke_enc(rng, toy8, A, kp.pk_B, m)
        assert np.array_equal(pke_dec(toy8, kp.sk_S, ct), m)


def test_noiseless_roundtrip_exact():
    p = noiseless_paramset(D=10, B=2, n=8, m_bar=2, n_bar=2)
    rng, A, kp = setup_scene(p)
    m = random_message_bits(rng, p)
    ct, e2 = pke_enc_traced(rng, p, A, kp.pk_B, m)
    assert e2.max_norm() == 0
    assert (ct.C2 - ct.C1 @ kp.sk_S - encode(m, p)).max_norm() == 0
    assert np.array_equal(pke_dec(p, kp.sk_S, ct), m)


def test_fresh_randomness_gives_distinct_ciphertexts(toy16):
    rng, A, kp = setup_scene(toy16)
    m = random_message_bits(rng, toy16)
    c1 = pke_enc(RngHandle(b"r1"), toy16, A, kp.pk_B, m)
    c2 = pke_enc(RngHandle(b"r2"), toy16, A, kp.pk_B, m)
    assert c1.C1 != c2.C1


def test_enc_rejects_wrong_message_length(toy16):
    rng, A, kp = setup_scene(toy16)
    with pytest.raises(MessageLengthError):
        pke_enc(rng, toy16, A, kp.pk_B, np.zeros(toy16.ell - 1, np.uint8))


def test_error_term_law(toy16):
    # ||C2 - C1 S - encode(m)||_max <= 2 n s**2 + s, from the chi supports
    rng, A, kp = setup_scene(toy16)
    bound = 2 * toy16.n * toy16.s**2 + toy16.s
    for _ in range(200):
        m = random_message_bits(rng, toy16)
        ct = pke_enc(rng, toy16, A, kp.pk_B, m)
        noise = ct.C2 - ct.C1 @ kp.sk_S - encode(m, toy16)
        assert noise.max_norm() <= bound


def test_tampering_flips_decoded_group(toy16):
    rng, A, kp = setup_scene(toy16)
    m = random_message_bits(rng, toy16)
    ct = pke_enc(rng, toy16, A, kp.pk_B, m)
    bumped = ct.C2.data.copy()
    bumped[0, 0] = (int(bumped[0, 0]) + toy16.q // 2) % toy16.q
    tampered = replace(ct, C2=MatrixZq(bumped, toy16.D))
    got = pke_dec(toy16, kp.sk_S, tampered)
    # adding q/2 moves the decoded group by 2**(B-1) mod 2**B: with B=1 the
    # first group's bit flips and nothing else moves
    expected = m.copy()
    expected[0] ^= 1
    assert np.array_equal(got, expected)


def test_setup_regenerates_same_matrix(toy16):
    rng = RngHandle(b"setup")
    a_seed, A = pke_setup(rng, toy16)
    from frue.matrix import gen_public_matrix
    assert gen_public_matrix(a_seed, toy16) == A
