import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frue.matrix import (DimensionMismatchError, MatrixZq, RngHandle,
                         _lincomb, gen_public_matrix, sample_chi, sample_uniform,
                         signed_rep)
from frue.params import load_paramset
from frue.ue import ord_bits, tensor_d

from conftest import adhoc_paramset, noiseless_paramset

CHI2_CUTOFF_15DF_001 = 37.697   # chi-square critical value, df=15, alpha=0.001

dims = st.integers(min_value=1, max_value=6)


def rand_matrix(rng, rows, cols, D):
    p = adhoc_paramset(D=D)
    return sample_uniform(rng, rows, cols, p)


# -- arithmetic -------------------------------------------------------------

def test_add_zero_is_identity():
    rng = RngHandle(b"add0")
    x = rand_matrix(rng, 3, 4, 7)
    assert MatrixZq.zeros(3, 4, 7) + x == x


def test_mul_single_entry_mod8():
    assert (MatrixZq([[5]], 3) @ MatrixZq([[5]], 3)) == MatrixZq([[1]], 3)


def test_identity_product():
    rng = RngHandle(b"id")
    x = rand_matrix(rng, 5, 3, 12)
    assert MatrixZq.identity(5, 12) @ x == x


def test_dimension_and_modulus_mismatches():
    a = MatrixZq([[1, 2]], 4)
    with pytest.raises(DimensionMismatchError):
        a + MatrixZq([[1]], 4)
    with pytest.raises(DimensionMismatchError):
        a @ MatrixZq([[1, 2]], 4)
    with pytest.raises(DimensionMismatchError):
        a + MatrixZq([[1, 2]], 5)


@settings(max_examples=40, deadline=None)
@given(dims, dims, dims, dims, st.integers(min_value=1, max_value=16), st.integers())
def test_mul_associative_and_distributive(r, k, m, c, D, seed):
    rng = RngHandle(str(seed))
    a, b, c2, d = (rand_matrix(rng, r, k, D), rand_matrix(rng, k, m, D),
                   rand_matrix(rng, m, c, D), rand_matrix(rng, k, m, D))
    assert (a @ b) @ c2 == a @ (b @ c2)
    assert a @ (b + d) == a @ b + a @ d


@settings(max_examples=30, deadline=None)
@given(dims, dims, dims, st.integers(min_value=1, max_value=16), st.integers())
def test_transpose_reverses_products(r, k, c, D, seed):
    rng = RngHandle(str(seed))
    a, b = rand_matrix(rng, r, k, D), rand_matrix(rng, k, c, D)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_matmul_float_path_agrees_with_plain_integers():
    # both product routes must match schoolbook arithmetic over integers, also
    # when an operand's cached copy is reused, on either side, and for the
    # small shapes of the toy-16 and frodo-640 products
    rng = RngHandle(b"paths")
    p15, p16 = adhoc_paramset(D=15), adhoc_paramset(D=16)
    a = sample_uniform(rng, 4, 3000, p16)
    b = sample_uniform(rng, 3000, 12, p16)
    c = sample_uniform(rng, 12, 4, p16)
    top = MatrixZq([[2**16 - 1]], 16)
    small = [(sample_uniform(rng, r, k, p16), sample_uniform(rng, k, c_, p16))
             for r, k, c_ in ((16, 128, 8), (128, 8, 8), (8, 8, 8))]
    frodo = (sample_uniform(rng, 8, 640, p15), sample_uniform(rng, 640, 8, p15))

    def ref(x, y):
        xs, ys = x.data.tolist(), y.data.tolist()
        return [[sum(xi[k] * ys[k][j] for k in range(len(ys))) % x.q
                 for j in range(y.cols)] for xi in xs]

    pairs = [(a, b), (b, c), (c, a), (top, top), *small, frodo]
    expected = [(x, y, ref(x, y)) for x, y in pairs]

    # bit-plane products on the float32 route, checked in int64.  All-(q - 1)
    # operands bring every chunk sum to exactly k * (q - 1), the largest the
    # chunk length allows: inner 9600 at D = 15 (k = 512) and 21 504 at
    # D = 16 (k = 256); 9615 is not a multiple of 512
    def full(rows, cols, D):
        return MatrixZq(np.full((rows, cols), 2**D - 1, dtype=np.uint16), D)

    bit_pairs = [(ord_bits(full(1, 640, 15)), full(9600, 3, 15)),
                 (ord_bits(full(1, 1344, 16)), full(21504, 3, 16)),
                 (ord_bits(sample_uniform(rng, 2, 641, p15)), sample_uniform(rng, 9615, 5, p15)),
                 (ord_bits(sample_uniform(rng, 8, 640, p15)), sample_uniform(rng, 9600, 640, p15))]
    for x, y in bit_pairs:
        want = (x.data.astype(np.int64) @ y.data.astype(np.int64)) & (x.q - 1)
        expected.append((x, y, want.tolist()))
    for _ in range(2):
        for x, y, want in expected:
            assert (x @ y).data.tolist() == want
    for x, y in bit_pairs:
        assert hasattr(y, "_f32t") and not hasattr(y, "_f64")


def test_matmul_exactness_guard():
    # at D = 16 with every entry q - 1, inner 2 097 216 is the last exact
    # float64 accumulation; one more raises before any copy is built, on
    # either route
    top = 2**16 - 1
    row = MatrixZq(np.full((1, 2_097_216), top, dtype=np.uint16), 16)
    col = MatrixZq(np.full((2_097_216, 1), top, dtype=np.uint16), 16)
    assert (row @ col).data.tolist() == [[64]]
    row = MatrixZq(np.full((1, 2_097_217), top, dtype=np.uint16), 16)
    col = MatrixZq(np.full((2_097_217, 1), top, dtype=np.uint16), 16)
    with pytest.raises(DimensionMismatchError, match="2097217"):
        row @ col
    for m in (row, col):
        assert not hasattr(m, "_f64")
    # a bit-plane product past the same guard: 131 077 * 16 = 2 097 232 inner
    bits = ord_bits(MatrixZq(np.full((1, 131_077), top, dtype=np.uint16), 16))
    col = MatrixZq(np.full((2_097_232, 1), top, dtype=np.uint16), 16)
    with pytest.raises(DimensionMismatchError, match="2097232"):
        bits @ col
    for m in (bits, col):
        assert not hasattr(m, "_f64") and not hasattr(m, "_f32t")


signs = st.sampled_from((1, -1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 8, 15, 16)), st.data())
def test_lincomb_matches_int64(D, data):
    # sum(+-X @ Y) + sum(+-M) against int64 arithmetic, in any term order.  The
    # bit-plane term's inner dimension is past 2**24 // (q - 1), so it takes
    # the float32 chunk route; at D = 1 that needs 2**24 columns (hundreds of
    # MB), so there it stays small and on float64
    p = adhoc_paramset(D=D)
    rng = RngHandle(data.draw(st.binary(max_size=8)))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    width = data.draw(st.integers(1, 20))
    if D > 1:
        width += 2**24 // (2**D - 1) // D
    O = ord_bits(sample_uniform(rng, rows, width, p))
    terms = [(data.draw(signs), O, sample_uniform(rng, width * D, cols, p))]
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(1, 6))
        terms.append((data.draw(signs), sample_uniform(rng, rows, k, p),
                      sample_uniform(rng, k, cols, p)))
    for _ in range(data.draw(st.integers(0, 2))):
        terms.append((data.draw(signs), sample_uniform(rng, rows, cols, p)))
    terms = data.draw(st.permutations(terms))
    want = np.zeros((rows, cols), dtype=np.int64)
    for sign, *ops in terms:
        mats = [m.data.astype(np.int64) for m in ops]
        want += sign * (mats[0] @ mats[1] if len(mats) == 2 else mats[0])
    got = _lincomb(*terms)
    assert type(got) is MatrixZq and got.D == D
    assert got.data.tolist() == (want & (2**D - 1)).tolist()
    assert hasattr(O, "_f32t") == (D > 1)


def test_lincomb_guard_covers_the_whole_sum():
    # at D = 16 each term alone is within the float64 limit (total inner
    # 2 097 216 with no matrix term), their sum is not: it raises before any
    # operand copy exists, also the bit-plane term's float32 one
    top = 2**16 - 1
    bits = ord_bits(MatrixZq(np.full((1, 65_539), top, dtype=np.uint16), 16))
    wide = MatrixZq(np.full((1_048_624, 1), top, dtype=np.uint16), 16)
    row = MatrixZq(np.full((1, 1_048_600), top, dtype=np.uint16), 16)
    col = MatrixZq(np.full((1_048_600, 1), top, dtype=np.uint16), 16)
    with pytest.raises(DimensionMismatchError, match="2097224"):
        _lincomb((1, bits, wide), (-1, row, col))
    for m in (bits, wide, row, col):
        assert not hasattr(m, "_f64") and not hasattr(m, "_f32t")
    assert (bits @ wide).data.tolist() == [[(1_048_624 * top) % 2**16]]
    assert (row @ col).data.tolist() == [[(1_048_600 * top * top) % 2**16]]


def test_entries_validated_on_construction():
    with pytest.raises(ValueError):
        MatrixZq([[16]], 4)
    with pytest.raises(ValueError):
        MatrixZq([1, 2, 3], 4)          # not 2-D


def test_matrices_immutable():
    m = MatrixZq([[1]], 4)
    with pytest.raises(AttributeError):
        m.D = 5
    with pytest.raises(ValueError):
        m.data[0, 0] = 3
    # the float64 copy a product keeps is as read-only as data
    rng = RngHandle(b"immutable")
    p16 = adhoc_paramset(D=16)
    a, b = sample_uniform(rng, 64, 64, p16), sample_uniform(rng, 64, 64, p16)
    before = a @ b
    for arr in (a._f64, b._f64):                # set by the product above
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    with pytest.raises(AttributeError):
        a._f64 = np.zeros((64, 64))
    assert a @ b == before
    # so is the float32 copy of data.T a bit-plane product keeps (inner 1024
    # is past 2**24 / (q - 1), so the product takes the float32 route)
    o, w = ord_bits(sample_uniform(rng, 2, 64, p16)), sample_uniform(rng, 1024, 64, p16)
    before = o @ w
    for m in (o, w):
        with pytest.raises(ValueError):
            m._f32t[0, 0] = 1.0
        with pytest.raises(AttributeError):
            m._f32t = np.zeros(m._f32t.shape, dtype=np.float32)
    assert o @ w == before
    # and so is the tensor_d stack a matrix keeps: built once, then reused
    s = sample_uniform(rng, 8, 8, p16)
    stack = tensor_d(s)
    assert tensor_d(s) is stack and s._tensor_d is stack
    with pytest.raises(ValueError):
        stack.data[0, 0] = 1
    with pytest.raises(AttributeError):
        s._tensor_d = MatrixZq.zeros(128, 8, 16)
    assert tensor_d(s) is stack


# -- signed representative and norm ------------------------------------------

def test_signed_rep_examples():
    assert signed_rep(15, 4) == -1
    assert signed_rep(8, 4) == 8        # q/2 keeps the positive representative
    assert signed_rep(3, 4) == 3
    with pytest.raises(ValueError):
        signed_rep(16, 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.data())
def test_signed_rep_is_congruent_and_in_range(D, data):
    q = 1 << D
    x = data.draw(st.integers(min_value=0, max_value=q - 1))
    s = signed_rep(x, D)
    assert -q // 2 < s <= q // 2
    assert s % q == x


def test_max_norm_examples():
    assert MatrixZq.zeros(3, 3, 4).max_norm() == 0
    assert MatrixZq([[15, 2]], 4).max_norm() == 2


def test_max_norm_matches_bruteforce_scan():
    rng = RngHandle(b"norm")
    m = rand_matrix(rng, 7, 9, 13)
    brute = max(abs(signed_rep(int(x), 13)) for row in m.data for x in row)
    assert m.max_norm() == brute


# -- uniform sampling ---------------------------------------------------------

def test_sample_uniform_golden_value():
    p4 = adhoc_paramset(D=4)
    m = sample_uniform(RngHandle(b"golden"), 2, 3, p4)
    assert m.data.tolist() == [[15, 9, 2], [5, 13, 14]]


def test_sample_uniform_matches_reference_stream():
    # regenerate through a separately-constructed Philox stream
    key = np.frombuffer(hashlib.sha256(b"frue-rng:golden").digest()[:16], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    ref = gen.integers(0, 16, size=(2, 3), dtype=np.uint16)
    m = sample_uniform(RngHandle(b"golden"), 2, 3, adhoc_paramset(D=4))
    assert np.array_equal(m.data, ref)


def test_sample_uniform_chi_square_at_d4():
    p4 = adhoc_paramset(D=4)
    m = sample_uniform(RngHandle(b"chisq"), 400, 250, p4)   # 1e5 entries
    counts = np.bincount(m.data.ravel(), minlength=16)
    expected = m.data.size / 16
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CUTOFF_15DF_001


def test_sample_uniform_empty():
    m = sample_uniform(RngHandle(b"e"), 0, 5, adhoc_paramset(D=4))
    assert m.shape == (0, 5)
    assert m.max_norm() == 0


# -- chi sampling --------------------------------------------------------------

def test_chi_noiseless_table_yields_zero_matrix():
    p = noiseless_paramset(D=8)
    m = sample_chi(RngHandle(b"z"), 50, 50, p)
    assert m.max_norm() == 0


def test_chi_support_bound_holds_everywhere():
    for name in ("toy-16", "frodo-640-shake", "frodo-1344-shake"):
        p = load_paramset(name)
        m = sample_chi(RngHandle(b"support" + name.encode()), 300, 300, p)
        assert m.max_norm() <= p.s


def test_chi_frequencies_match_table_within_3_sigma():
    p = load_paramset("frodo-640-shake")
    n_samples = 1_000_000
    m = sample_chi(RngHandle(b"chifreq"), 1000, 1000, p)
    signed = m.signed().ravel()
    pmf = p.chi_pmf()
    for z, prob in pmf.items():
        observed = int((signed == z).sum())
        mean = n_samples * float(prob)
        sigma = (n_samples * float(prob) * (1 - float(prob))) ** 0.5
        assert abs(observed - mean) <= 3 * sigma, f"bucket {z}: {observed} vs {mean}"


def test_chi_deterministic_under_seed(toy16):
    a = sample_chi(RngHandle(b"det"), 20, 20, toy16)
    b = sample_chi(RngHandle(b"det"), 20, 20, toy16)
    assert a == b


# -- public matrix expansion ----------------------------------------------------

def test_gen_public_deterministic_per_mode():
    for name in ("frodo-640-shake", "frodo-640-aes", "toy-16"):
        p = load_paramset(name)
        assert gen_public_matrix(b"seed", p) == gen_public_matrix(b"seed", p)


def test_gen_public_toy_golden_row():
    p = adhoc_paramset(D=11, n=8)
    m = gen_public_matrix(b"golden", p)
    assert m.data[0].tolist() == [422, 1292, 1503, 704, 1433, 1098, 1734, 912]


def test_gen_public_seeds_decorrelate():
    p = load_paramset("frodo-640-shake")
    a = gen_public_matrix(b"seed-one", p)
    b = gen_public_matrix(b"seed-two", p)
    assert (a.data != b.data).mean() >= 0.99


def test_gen_public_modes_disagree():
    shake = gen_public_matrix(b"s", load_paramset("frodo-640-shake"))
    aes = gen_public_matrix(b"s", load_paramset("frodo-640-aes"))
    assert (shake.data != aes.data).mean() >= 0.99


def test_gen_public_respects_modulus():
    for name in ("frodo-640-shake", "frodo-640-aes"):
        p = load_paramset(name)
        m = gen_public_matrix(b"mask", p)
        assert int(m.data.max()) < p.q


# -- rng handles -----------------------------------------------------------------

def test_rng_reproducible_and_derivable():
    a, b = RngHandle(b"seed"), RngHandle(b"seed")
    assert a.bytes(16) == b.bytes(16)
    c, d = RngHandle(b"seed").derive("x"), RngHandle(b"seed").derive("y")
    assert c.bytes(8) != d.bytes(8)
    assert RngHandle("text").bytes(4) == RngHandle(b"text").bytes(4)
    assert RngHandle(7).bytes(4) == RngHandle(7).bytes(4)


def test_matrix_record_roundtrip_and_truncation():
    rng = RngHandle(b"rec")
    m = rand_matrix(rng, 3, 5, 9)
    blob = m.to_bytes()
    back, consumed = MatrixZq.from_bytes_at(blob)
    assert back == m and consumed == len(blob)
    with pytest.raises(ValueError):
        MatrixZq.from_bytes_at(blob[:-1])
    with pytest.raises(ValueError):
        MatrixZq.from_bytes_at(blob[:4])
