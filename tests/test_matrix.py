import ast
import contextlib
import hashlib
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frue.matrix
from frue.matrix import (_CHI_BLOCK, _PAIR_ROWS, _SMALL_MNK, DimensionMismatchError,
                         MatrixZq, RngHandle, _chi_cut, _chi_lut, _lincomb, _piece, _unstack,
                         gen_public_matrix, sample_chi, sample_uniform, signed_rep)
from frue.params import load_paramset, registered_names
from frue.ue import ord_bits, tensor_d

from conftest import adhoc_paramset, noiseless_paramset
from oracles import chi_reference

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
    assert MatrixZq(np.eye(5, dtype=np.uint16), 12) @ x == x


def test_dimension_and_modulus_mismatches():
    a = MatrixZq([[1, 2]], 4)
    with pytest.raises(DimensionMismatchError):
        a + MatrixZq([[1]], 4)
    with pytest.raises(DimensionMismatchError):
        a @ MatrixZq([[1, 2]], 4)
    with pytest.raises(DimensionMismatchError):
        a + MatrixZq([[1, 2]], 5)
    with pytest.raises(TypeError, match="expected MatrixZq"):
        a @ np.array([[1], [2]])        # a bare array is not a matrix mod q


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
    assert MatrixZq((a @ b).data.T, D) == MatrixZq(b.data.T, D) @ MatrixZq(a.data.T, D)


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

    # bit-plane products on the column-paired route, checked in int64.
    # All-one bit planes against words q/2, which lift to -q/2, bring both
    # halves of every full chunk to exactly k * q/2 = 2**26 - q/2, the
    # largest the chunk length allows: inner 9600 at D = 15 (k = 4095) and
    # 21 504 at D = 16 (k = 2047).  Columns j and j + 3 pair: q/2 with q/2,
    # q/2 + 1 with q/2 + 1 (odd lifts), and q - 1 with the zero padding of
    # width 5.  Random right operands of odd widths 5 and 641 pad too; 9615
    # is not a multiple of 4095
    def full(rows, cols, D):
        return MatrixZq(np.full((rows, cols), 2**D - 1, dtype=np.uint16), D)

    def edge(rows, D):
        half = 2**(D - 1)
        return MatrixZq(np.tile(np.array([half, half + 1, 2**D - 1, half, half + 1],
                                         dtype=np.uint16), (rows, 1)), D)

    bit_pairs = [(ord_bits(full(1, 640, 15)), edge(9600, 15)),
                 (ord_bits(full(1, 1344, 16)), edge(21504, 16)),
                 (ord_bits(sample_uniform(rng, 2, 641, p15)), sample_uniform(rng, 9615, 5, p15)),
                 (ord_bits(sample_uniform(rng, 3, 40, p16)), sample_uniform(rng, 640, 641, p16)),
                 (ord_bits(sample_uniform(rng, 8, 640, p15)), sample_uniform(rng, 9600, 640, p15))]
    for x, y in bit_pairs:
        want = (x.data.astype(np.int64) @ y.data.astype(np.int64)) & (x.q - 1)
        expected.append((x, y, want.tolist()))
    # the 0/1 words of frodo-640's ord_bits(C1) (8 x 9600 at D = 15) in a
    # plain MatrixZq, which records no chunk: its measured L, about 4860, is
    # past the limit 2**26 / (q/2) = 4096, so it runs in float64 and must
    # agree with the bit planes' product on column pairs
    O, Y = bit_pairs[-1]
    plain, Y2 = MatrixZq(O.data, 15), MatrixZq(Y.data, 15)
    assert int(O.data.sum(axis=1).max()) * 2**14 >= 2**26
    expected.append((plain, Y2, expected[-1][2]))
    # a tall bit-plane left side runs on its packed rows, in chunks of 2047
    # inner rows at D = 16: rows of 127 words 2**16 - 1 and one 2**15 - 1
    # hold L = 2047 ones, and against words q/2 both halves of every row
    # reach 2047 * q/2 = 2**26 - q/2.  One more one in each row (L = 2048)
    # still packs rows, since no chunk holds more than 2047 ones of a row
    tall = []
    for top in (2**15 - 1, 2**16 - 1):
        m = np.zeros((9, 1344), dtype=np.uint16)
        m[:, :127], m[:, 127] = 2**16 - 1, top
        tall.append((ord_bits(MatrixZq(m, 16)),
                     MatrixZq(np.full((21504, 4), 2**15, dtype=np.uint16), 16)))
    # degenerate pairs: a one-column right side packs its columns with an
    # empty high half (1 x 640 @ 640 x 1), kept as one row of 640 words
    # against the left side's transposed float64 copy, and a three-row left
    # side packs its rows with a zero high half in its second pair
    # (3 x 640 @ 640 x 1)
    thin = [(ord_bits(sample_uniform(rng, r, 40, p16)), sample_uniform(rng, 640, 1, p16))
            for r in (1, 3)]
    for x, y in tall + thin:
        want = (x.data.astype(np.int64) @ y.data.astype(np.int64)) & (x.q - 1)
        expected.append((x, y, want.tolist()))
    for _ in range(2):
        for x, y, want in expected:
            assert (x @ y).data.tolist() == want
    for x, y in tall:
        assert x._pairs.shape == (5, 21504) and not hasattr(x, "_f64")
        assert hasattr(y, "_f64") and not hasattr(y, "_colpairs")
    (one, col), (three, thin_y) = thin
    assert col._colpairs.shape == (1, 640) and not hasattr(col, "_f64")
    assert one._f64t.shape == (40 * 16, 1) and not hasattr(one, "_f64")
    assert not hasattr(one, "_pairs")
    assert three._pairs.shape == (2, 640) and not hasattr(three, "_f64")
    assert not hasattr(three, "_f64t")
    assert hasattr(thin_y, "_f64") and not hasattr(thin_y, "_colpairs")
    assert plain._k == 0 and hasattr(plain, "_f64") and not hasattr(plain, "_pairs")
    assert hasattr(Y2, "_f64") and not hasattr(Y2, "_colpairs")
    assert plain @ Y2 == O @ Y
    # each keeps a C-contiguous float64 copy of its planes' transpose and, on
    # the right, the packed lift as rows: row j holds y[:, j] + 2**27 *
    # y[:, j + h], zero where an odd width pads the pair
    for x, y in bit_pairs:
        assert np.array_equal(x._f64t, x.data.T) and x._f64t.flags.c_contiguous
        assert not hasattr(x, "_f64") and not hasattr(x, "_colpairs")
        assert not hasattr(y, "_f64")
        lift = ((y.data.astype(np.int64) + y.q // 2) & (y.q - 1)) - y.q // 2
        h = -(-y.cols // 2)
        high = np.zeros((h, y.rows), dtype=np.int64)
        high[:y.cols - h] = lift[:, h:].T
        assert y._colpairs.shape == (h, y.rows)
        assert np.array_equal(y._colpairs, lift[:, :h].T + 2**27 * high)


def test_matmul_exactness_guard():
    # at D = 16 with every word q/2, which lifts to -q/2, inner 8 388 607 is
    # the last exact float64 accumulation (sum 2**53 - 2**30); one more raises
    # before any copy is built, on either route.  One word q/2 - 1 in the row
    # (lift +q/2 - 1) makes the sum 8 388 605 * 2**30 + 2**15, so word 2**15
    half = 2**15
    row = np.full((1, 8_388_607), half, dtype=np.uint16)
    row[0, 0] = half - 1
    row = MatrixZq(row, 16)
    col = MatrixZq(np.full((8_388_607, 1), half, dtype=np.uint16), 16)
    assert (row @ col).data.tolist() == [[half]]
    del row, col
    row = MatrixZq(np.full((1, 8_388_608), half, dtype=np.uint16), 16)
    col = MatrixZq(np.full((8_388_608, 1), half, dtype=np.uint16), 16)
    with pytest.raises(DimensionMismatchError, match="8388608"):
        row @ col
    for m in (row, col):
        assert not any(hasattr(m, s) for s in ("_f64", "_colpairs", "_pairs"))
    # a bit-plane product past the same guard: 524 288 * 16 = 8 388 608 inner
    bits = ord_bits(MatrixZq(np.full((1, 524_288), 2**16 - 1, dtype=np.uint16), 16))
    with pytest.raises(DimensionMismatchError, match="8388608"):
        bits @ col
    for m in (bits, col):
        assert not any(hasattr(m, s) for s in ("_f64", "_colpairs", "_pairs"))


signs = st.sampled_from((1, -1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 8, 15, 16)), st.data())
def test_lincomb_matches_int64(D, data):
    # sum(+-X @ Y) + sum(+-M) against int64 arithmetic, in any term order.  Two
    # terms have at least _PAIR_ROWS inner rows, so they are paired: a bit-plane
    # term, which at D = 15 and 16 spans more than two chunks of
    # k = (2**26 - 1) // (q/2) inner rows, and a term with small entries
    # (|x| <= s = 1).  The sum is tall (more rows than columns: X's rows pack
    # for every paired term) or wide (Y's columns pack, as rows of Y's
    # transpose, and the product runs as (Y^T X^T)^T; widths 3 and 5 leave
    # the last pair's high half empty).  _SMALL_MNK is either
    # kept, so each chunk is one BLAS call, or drawn so that each chunk's calls
    # take `piece` inner rows: a piece shorter than a chunk splits it, and the
    # bit-plane term's chunks are no multiple of the piece, so a piece past a
    # chunk's end would be summed wrongly
    p = adhoc_paramset(D=D)
    rng = RngHandle(data.draw(st.binary(max_size=8)))
    tall = data.draw(st.booleans())
    rows = data.draw(st.integers(2 if tall else 1, 3))
    cols = data.draw(st.integers(1, rows - 1) if tall else st.integers(rows, 5))
    z = -(-rows // 2) * cols if tall else rows * -(-cols // 2)    # Z's words
    piece = data.draw(st.none() | st.integers(frue.matrix._MIN_PIECE, 1100))
    chunk = (2**26 - 1) // 2**(D - 1)
    inner = 2 * chunk + 1 if D >= 15 else _PAIR_ROWS      # fewest inner rows
    width = data.draw(st.integers(1, 20)) + -(-inner // D)
    O = ord_bits(sample_uniform(rng, rows, width, p))
    Y = sample_uniform(rng, width * D, cols, p)
    k = data.draw(st.integers(_PAIR_ROWS, 1024))
    S, W = sample_chi(rng, rows, k, p), sample_uniform(rng, k, cols, p)
    terms = [(data.draw(signs), O, Y), (data.draw(signs), S, W)]
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
    with (mock.patch.object(frue.matrix, "_SMALL_MNK", piece * z) if piece
          else contextlib.nullcontext()):
        got = _lincomb(*terms)
    assert type(got) is MatrixZq and got.D == D
    assert got.data.tolist() == (want & (2**D - 1)).tolist()
    # both paired terms pack by shape alone: the bit planes keep the chunk
    # ord_bits recorded, and the small term's L <= 1024 is below every limit
    assert O._k == chunk and S._k == S.cols
    # a float64 copy of the transpose, the right side of a column-paired
    # product, is built only on that route, for the bit planes as for S
    assert hasattr(O, "_f64t") == (not tall) and hasattr(S, "_f64t") == (not tall)
    for x, y in ((O, Y), (S, W)):
        assert hasattr(x, "_pairs") == tall and not hasattr(x, "_f64")
        assert hasattr(y, "_f64") == tall and hasattr(y, "_colpairs") == (not tall)
        assert not hasattr(y, "_f64t")
        if not tall:
            assert y._colpairs.shape == (-(-cols // 2), y.rows)


def test_lincomb_guard_covers_the_whole_sum():
    # at D = 16 each term alone is within the float64 limit (total inner
    # 8 388 607 with no matrix term), their sum, 8 388 608, is not: it raises
    # before any operand copy exists, also the bit-plane term's column pairs
    top, half = 2**16 - 1, 2**15
    bits = ord_bits(MatrixZq(np.full((1, 262_147), top, dtype=np.uint16), 16))
    wide = MatrixZq(np.full((4_194_352, 1), half + 1, dtype=np.uint16), 16)
    row = MatrixZq(np.full((1, 4_194_256), half, dtype=np.uint16), 16)
    col = MatrixZq(np.full((4_194_256, 1), half + 1, dtype=np.uint16), 16)
    with pytest.raises(DimensionMismatchError, match="8388608"):
        _lincomb((1, bits, wide), (-1, row, col))
    for m in (bits, wide, row, col):
        assert not any(hasattr(m, s) for s in ("_f64", "_colpairs", "_pairs"))
    assert (bits @ wide).data.tolist() == [[(4_194_352 * (half + 1)) % 2**16]]
    assert (row @ col).data.tolist() == [[(4_194_256 * half * (half + 1)) % 2**16]]


@pytest.mark.parametrize("D", (5, 15, 16))
def test_stacked_lincomb_equals_the_lincomb_of_each_slice(D):
    # stacks (k matrices along a leading axis) on either side of a product,
    # beside 2-D products and matrix terms that act on every slice.  The 2-D
    # terms come first, so a 2-D total (float64, and paired words from S @ U's
    # 640 inner rows) grows into a stack; stacked products run in float64
    p, k = adhoc_paramset(D=D), 5
    rng = RngHandle(b"stacked")
    X, Z, M = _chi_cut(rng, p, (3, 640), (3, 640), (3, 4), k=k)
    (Y,) = _chi_cut(rng, p, (640, 4), k=k)
    S, U = sample_chi(rng, 3, 640, p), sample_uniform(rng, 640, 4, p)
    W, V = sample_uniform(rng, 3, 640, p), sample_uniform(rng, 3, 4, p)
    T = ord_bits(sample_uniform(rng, 3, 3, p))
    assert X.data.shape == (k, 3, 640) and Y.data.shape == (k, 640, 4)
    terms = [(-1, T, tensor_d(V)), (1, S, U), (-1, V), (1, X, U), (-1, W, Y),
             (1, Z, Y), (1, M)]
    got = _lincomb(*terms)
    assert got.data.shape == (k, 3, 4) and not got.data.flags.writeable
    assert hasattr(U, "_colpairs") and hasattr(X, "_f64") and hasattr(Y, "_f64")
    slices = _unstack(got)
    assert len(slices) == k and all(s.data.shape == (3, 4) for s in slices)
    for j, s in enumerate(slices):
        one = [(t[0], *(m if m.data.ndim == 2 else _unstack(m)[j] for m in t[1:]))
               for t in terms]
        assert s == _lincomb(*one), j
    # the public constructor refuses a stack's words; a 2-D matrix unstacks to itself
    with pytest.raises(ValueError, match="two-dimensional"):
        MatrixZq(got.data, D)
    assert _unstack(V)[0] is V and len(_unstack(V)) == 1


def test_stacked_lincomb_keeps_the_guard_and_conformance():
    p = adhoc_paramset(D=16)
    rng = RngHandle(b"stack-guard")
    # each matrix of a stack is its own product: 8 388 608 inner rows at
    # D = 16 are past the exact range for a stack as for a 2-D product
    (X,) = _chi_cut(rng, p, (1, 8_388_608), k=2)
    Y = MatrixZq.zeros(8_388_608, 1, 16)
    with pytest.raises(DimensionMismatchError, match="8388608"):
        _lincomb((1, X, Y))
    assert not hasattr(X, "_f64") and not hasattr(Y, "_f64")
    # stacks of unequal length, in a product or a sum, and shapes that do not
    # conform on the last two axes, are refused by the one error type
    A5, B5 = _chi_cut(rng, p, (2, 3), (3, 2), k=5)
    A3, B3 = _chi_cut(rng, p, (2, 3), (3, 2), k=3)
    for terms in (((1, A5, B3),), ((1, A5), (1, A3)), ((1, A5, B5), (1, A3, B3)),
                  ((1, A5, A3),), ((1, A5), (1, B5))):
        with pytest.raises(DimensionMismatchError):
            _lincomb(*terms)


@pytest.mark.parametrize("name, width, piece", (("frodo-640-shake", 640, 390),
                                                ("frodo-640-shake", 641, 389),
                                                ("frodo-976-shake", 976, 256),
                                                ("frodo-1344-shake", 1344, 186)),
                         ids=("640", "640-odd", "976", "1344"))
def test_update_pieces_match_int64(name, width, piece):
    # each level's update products, O @ d1_a (ord_bits of an 8 x n word
    # matrix against nD x n) and R @ d2_a (chi 8 x n against n x n), run as
    # Y's column pairs @ X's transpose: Z^T is ceil(n / 2) x 8, so a piece
    # holds 10**6 // (8 * ceil(n / 2)) inner rows.  O's chunks (4095 inner
    # rows at D = 15, 2047 at D = 16) are no multiple of the piece, so a
    # piece that crossed a chunk's end would break this; R's one chunk of n
    # rows splits too.  Width 641 leaves the last pair's high half empty
    p = load_paramset(name)
    rng = RngHandle(b"update-pieces-%d" % width)
    O = ord_bits(sample_uniform(rng, 8, p.n, p))
    R = _chi_cut(rng, p, (8, p.n))[0]
    d1_a, d2_a = sample_uniform(rng, p.n * p.D, width, p), sample_uniform(rng, p.n, width, p)
    k, h = (2**26 - 1) // (p.q // 2), -(-width // 2)
    assert O._chunk() == k and R._chunk() == p.n
    assert _piece((h, 8), k) == _piece((h, 8), p.n) == piece
    # O's rows are 0/1: O @ d1_a sums the rows of d1_a that each row selects
    o_d1a = np.stack([d1_a.data[row == 1].sum(axis=0, dtype=np.int64) for row in O.data])
    want = (o_d1a + R.data.astype(np.int64) @ d2_a.data.astype(np.int64)) & (p.q - 1)
    assert _lincomb((1, O, d1_a), (1, R, d2_a)).data.tolist() == want.tolist()
    assert d1_a._colpairs.shape == (h, p.n * p.D) and d2_a._colpairs.shape == (h, p.n)


def test_split_rule_keeps_token_generation_whole():
    # _piece(Z's shape, chunk): a chunk splits only where a piece, the most
    # inner rows that keep rows * cols * piece within _SMALL_MNK, holds at
    # least _MIN_PIECE rows.  Token generation's thin paired products keep
    # one BLAS call per chunk: S'_(1) B runs on packed rows (Z nD/2 x 8, one
    # chunk of n: pieces of 26, 16 and 11 rows at frodo-640, -976 and -1344),
    # and so do S'_(1) A (Z 4800 x 640 at frodo-640) and S'_(2) A, which runs
    # on A's column pairs against S'_(2)'s transpose (Z^T 320 x 640, pieces
    # of 4).  toy-16's update (Z 8 x 8 over nD = 128 rows) is below
    # _PAIR_ROWS, so never paired
    for shape, k in (((4800, 8), 640), ((7808, 8), 976), ((10752, 8), 1344),
                     ((4800, 640), 640), ((320, 640), 640), ((8, 8), 2047)):
        assert _piece(shape, k) == k, shape
    # every level's 8-row products, the update's O @ d1_a and R @ d2_a and
    # Enc's S1 @ A (Z^T n/2 x 8), and TG's S'_(2) B (Z n/2 x 8), split into
    # the most rows the small-matrix kernel takes: 390, 256 and 186
    for shape, k, piece in (((320, 8), 4095, 390), ((320, 8), 640, 390),
                            ((488, 8), 2047, 256), ((488, 8), 976, 256),
                            ((672, 8), 2047, 186), ((672, 8), 1344, 186)):
        assert _piece(shape, k) == _SMALL_MNK // (8 * shape[0]) == piece, shape


def test_paired_products_of_empty_operands():
    # a 0-row X, or a Y of 0 columns, with at least _PAIR_ROWS inner rows: Z
    # has no words, so _piece keeps the chunk whole, and the product is empty;
    # both at once pack Y's no columns
    assert _piece((0, 2), 600) == _piece((5, 0), 600) == 600
    for x, y in (((0, 600), (600, 3)), ((5, 600), (600, 0)), ((0, 600), (600, 0))):
        got = MatrixZq(np.zeros(x, np.uint16), 15) @ MatrixZq(np.zeros(y, np.uint16), 15)
        assert got.D == 15 and got.data.shape == (x[0], y[1])


def test_kept_pairs_start_on_a_cache_line():
    # the small-matrix kernel reads a piece's rows straight from the kept
    # pairs, so both packers' copies start on a 64-byte line, whatever the
    # allocator returns, and hold the same words as a plain packing: pair i
    # is row i of the copy, rows i and i + h of M (axis 0) or of M's
    # transpose (axis 1), so column pairs run along M's rows.  700 x 640 and
    # 700 x 641 take the transposed write in blocks of _PACK_ROWS rows, a
    # short last one included
    p = adhoc_paramset(D=15)
    rng = RngHandle(b"aligned-pairs")
    for rows, cols in ((700, 640), (700, 641), (9, 513), (512, 3), (2, 1)):
        M = sample_uniform(rng, rows, cols, p)
        lift = (M.data.astype(np.int64) ^ 2**14) - 2**14      # in [-q/2, q/2)
        for axis in (0, 1):
            P = M._pairs_along(axis)
            assert P.ctypes.data % 64 == 0 and not P.flags.writeable
            assert P.flags.c_contiguous
            h = -(-M.shape[axis] // 2)
            lo, hi = np.split(lift if axis == 0 else lift.T, [h])
            want = lo + 2**27 * np.pad(hi, ((0, len(lo) - len(hi)), (0, 0)))
            assert np.array_equal(P, want)
    assert 700 % frue.matrix._PACK_ROWS


@pytest.mark.parametrize("D", (15, 16))
def test_paired_route_matches_int64(D):
    # chi operands of at least _PAIR_ROWS rows, of even and odd height, beside
    # a plain product and matrix terms of both signs, in either term order; a
    # paired product may come first with either sign.  S1 (inner 640, more
    # rows than its right side has columns) packs its rows; S2 (inner 40) is
    # below the floor and runs in float64
    p640 = load_paramset("frodo-640-shake")
    p = adhoc_paramset(D=D, chi_cdf=p640.chi_cdf)
    rng = RngHandle(b"paired-%d" % D)
    for rows in (_PAIR_ROWS, _PAIR_ROWS + 1, 1023):
        S1, S2 = sample_chi(rng, rows, 640, p), sample_chi(rng, rows, 40, p)
        terms = [(1, S1, sample_uniform(rng, 640, 7, p)),
                 (-1, sample_uniform(rng, rows, 7, p)),
                 (1, sample_uniform(rng, rows, 3, p), sample_uniform(rng, 3, 7, p)),
                 (-1, S2, sample_uniform(rng, 40, 7, p)),
                 (1, sample_uniform(rng, rows, 7, p))]
        want = np.zeros((rows, 7), dtype=np.int64)
        for sign, *ops in terms:
            mats = [m.data.astype(np.int64) for m in ops]
            want += sign * (mats[0] @ mats[1] if len(mats) == 2 else mats[0])
        for order in (terms, terms[::-1]):
            assert _lincomb(*order).data.tolist() == (want & (2**D - 1)).tolist()
        assert S1._pairs.shape == (-(-rows // 2), S1.cols)
        # rows i and i + h of the lift share a word, lift[i] + 2**27 * lift[i + h];
        # an odd row count leaves the last word's high half zero
        lift = ((S1.data.astype(np.int64) + 2**(D - 1)) & (2**D - 1)) - 2**(D - 1)
        h = -(-rows // 2)
        high = np.zeros((h, S1.cols), dtype=np.int64)
        high[:rows - h] = lift[h:]
        assert np.array_equal(S1._pairs, lift[:h] + 2**27 * high)
        if rows % 2:
            assert np.array_equal(S1._pairs[-1], lift[h - 1])
        assert not hasattr(S1, "_f64")
        assert hasattr(S2, "_f64") and not hasattr(S2, "_pairs")
    # so does an inner dimension of 8, below the floor
    small = sample_chi(rng, _PAIR_ROWS - 1, 8, p)
    y = sample_uniform(rng, 8, 2, p)
    assert (small @ y).data.tolist() == (
        (small.data.astype(np.int64) @ y.data.astype(np.int64)) & (2**D - 1)).tolist()
    assert hasattr(small, "_f64") and not hasattr(small, "_pairs")


@pytest.mark.parametrize("D", (15, 16))
def test_paired_guard_edge_is_exact(D):
    # The route packs while L * q/2 < 2**26 (L: largest row l1 norm).  L * q/2
    # is a multiple of q/2, so the last L that packs gives 2**26 - q/2 (4095
    # at D = 15, 2047 at D = 16) and the next gives 2**26, which falls back to
    # float64.  Entries -1 and +1 against words q/2 (lifted to -q/2) bring
    # every partial sum of both halves to the bound
    q, limit = 2**D, 2**26 // 2**(D - 1)
    for L, packs in ((limit - 1, True), (limit, False)):
        left = np.full((_PAIR_ROWS + 1, L), q - 1, dtype=np.uint16)
        left[1::3] = 1
        S = MatrixZq(left, D)
        right = MatrixZq(np.full((L, 3), q // 2, dtype=np.uint16), D)
        want = (left.astype(np.int64) @ right.data.astype(np.int64)) & (q - 1)
        assert (S @ right).data.tolist() == want.tolist()
        assert S._k == (L if packs else 0)
        assert hasattr(S, "_pairs") == packs and hasattr(S, "_f64") == (not packs)


def test_row_sum_past_uint32_is_measured_in_int64():
    # at D = 16 a row of 2**17 words q/2 has l1 norm 2**17 * 2**15 = 2**32,
    # which a uint32 row sum wraps to 0: _chunk sums it in int64, finds L past
    # the limit, and the product runs in float64 with no column pairs
    cols = 2**17
    X = MatrixZq(np.full((1, cols), 2**15, dtype=np.uint16), 16)
    Y = MatrixZq(np.ones((cols, 2), dtype=np.uint16), 16)
    want = (X.data.astype(np.int64) @ Y.data.astype(np.int64)) & (2**16 - 1)
    assert (X @ Y).data.tolist() == want.tolist()
    assert X._k == 0 and not hasattr(Y, "_colpairs")


def test_left_side_past_the_limit_runs_in_float64(monkeypatch):
    # a uniform left side (KeyGen's A @ S at frodo-640, D = 15) is past the
    # limit in its first block of rows: measuring it lifts one block, packs
    # no rows, and the product runs in float64
    p = load_paramset("frodo-640-shake")
    rng = RngHandle(b"early-stop")
    A, S = sample_uniform(rng, 640, 640, p), sample_chi(rng, 640, 8, p)
    lifted, lift = [], frue.matrix._lift
    monkeypatch.setattr(frue.matrix, "_lift",
                        lambda data, D: lifted.append(len(data)) or lift(data, D))
    want = (A.data.astype(np.int64) @ S.data.astype(np.int64)) & (p.q - 1)
    assert (A @ S).data.tolist() == want.tolist()
    assert A._k == 0 and not hasattr(A, "_pairs")
    assert hasattr(A, "_f64") and hasattr(S, "_f64")
    # the measurement's lift of one block of rows, then the float64 copies'
    # one lift each of all 640 rows
    assert lifted[-2:] == [640, 640] and sum(lifted[:-2]) <= _CHI_BLOCK // 640
    monkeypatch.undo()
    # a chi draw at frodo-1344's S'_(2) shape (n x n, D = 16) whose last row
    # reaches L = 2**26 / (q/2) = 2048, the limit, falls back for that draw
    p = load_paramset("frodo-1344-shake")
    chi = sample_chi(rng, 1344, 1344, p).data.copy()
    chi[-1] = np.where(np.arange(1344) < 704, 2, p.q - 1)       # 704 * 2 + 640 = 2048
    X, Y = MatrixZq(chi, p.D), sample_uniform(rng, 1344, 8, p)
    want = (X.data.astype(np.int64) @ Y.data.astype(np.int64)) & (p.q - 1)
    assert (X @ Y).data.tolist() == want.tolist()
    assert X._k == 0 and not hasattr(X, "_pairs")
    assert hasattr(X, "_f64") and hasattr(Y, "_f64")


def test_entries_validated_on_construction():
    with pytest.raises(ValueError):
        MatrixZq([[16]], 4)
    with pytest.raises(ValueError):
        MatrixZq([1, 2, 3], 4)          # not 2-D
    for D in (0, 17):                   # words are 1 to 16 bits wide
        with pytest.raises(ValueError, match="D must be in"):
            MatrixZq([[0]], D)


def test_out_of_range_integers_raise_before_any_cast():
    # range-checked on the input, so nothing wraps to a valid word
    for data, D in (([[-1]], 16), (np.array([[-1]]), 16),
                    (np.array([[262145]]), 4), ([[2**70]], 16)):
        with pytest.raises(ValueError, match="entries must lie in"):
            MatrixZq(data, D)
    assert MatrixZq(np.array([[3, 0]], dtype=np.int64), 2).data.tolist() == [[3, 0]]


def test_non_integer_input_raises_before_any_cast():
    # a float or complex entry is refused, not truncated to a word
    for data in ([[1.5]], np.array([[1.5]]), [[2.0]], np.array([[1 + 0j]]),
                 np.array([[3]], dtype=np.float32)):
        with pytest.raises(ValueError, match="integers"):
            MatrixZq(data, 4)
    # also where the signed input is reduced mod q: 1.5 and -0.7 are not 1 and 0
    for data in ([[1.5, -0.7]], np.array([[-2.0]]), [[1j]]):
        with pytest.raises(ValueError, match="integers"):
            MatrixZq.from_signed(data, 4)
    assert MatrixZq.from_signed([[-1, 3]], 4).data.tolist() == [[15, 3]]
    # bool, unsigned, signed and Python-int inputs construct as before
    for data in (np.array([[True, False]]), np.array([[1, 0]], dtype=np.uint8),
                 np.array([[1, 0]], dtype=np.int16), [[1, 0]]):
        assert MatrixZq(data, 4).data.tolist() == [[1, 0]]
    with pytest.raises(ValueError, match="entries must lie in"):
        MatrixZq([[2**70]], 16)


def test_construction_leaves_the_callers_array_writable():
    a = np.zeros((2, 2), dtype=np.uint16)
    m = MatrixZq(a, 4)
    a[0, 0] = 1                         # the matrix holds its own copy
    assert m.data[0, 0] == 0 and not m.data.flags.writeable
    # a read-only uint16 input, such as a parsed record, is kept without a copy
    ro = np.frombuffer(np.arange(6, dtype="<u2").tobytes(), dtype="<u2").reshape(2, 3)
    assert MatrixZq(ro, 4).data is ro
    back, _ = MatrixZq.from_bytes_at(MatrixZq(ro, 4).to_bytes())
    assert back == MatrixZq(ro, 4) and not back.data.flags.owndata


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
    # so are the copies a bit-plane product keeps (inner 1024 is at least
    # _PAIR_ROWS, so the product takes the column-paired route): the float64
    # copy of the planes' transpose and the right side's column pairs
    o, w = ord_bits(sample_uniform(rng, 2, 64, p16)), sample_uniform(rng, 1024, 64, p16)
    before = o @ w
    for m, slot in ((o, "_f64t"), (w, "_colpairs")):
        with pytest.raises(ValueError):
            getattr(m, slot)[0, 0] = 1.0
        with pytest.raises(AttributeError):
            setattr(m, slot, np.zeros(getattr(m, slot).shape))
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


def _nodes_outside_matrix():
    """(file name, AST node) of every node in a src/frue module but matrix.py."""
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "frue").glob("*.py"))
    assert "matrix.py" in {path.name for path in paths}
    for path in paths:
        if path.name != "matrix.py":
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                yield path.name, node


def test_word_format_has_one_owner():
    # frue.matrix alone knows the word dtype, writes MatrixZq's slots and names
    # the slots it keeps, so widening the words (or changing the gadget or a
    # product route) touches that one module
    kept = set(MatrixZq.__slots__) - {"data", "D"}
    assert {"_f64", "_f64t", "_colpairs", "_pairs", "_tensor_d"} <= kept
    # nor its copy accessors: every private attribute of the class but _record,
    # which envelope.py serializes matrices with
    kept |= {name for name in dir(MatrixZq) if name.startswith("_")
             and not (name.startswith("__") and name.endswith("__"))} - {"_record"}
    assert {"_float64", "_float64_t", "_pairs_along", "_chunk", "_keep"} <= kept
    found = []
    for name, node in _nodes_outside_matrix():
        named = ((isinstance(node, ast.Name) and node.id == "uint16")
                 or (isinstance(node, ast.Attribute) and node.attr == "uint16")
                 or (isinstance(node, ast.Constant) and node.value in ("uint16", "<u2")))
        setattr_call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__setattr__"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "object")
        # the slots the product planner and tensor_d keep: the routing
        # decision is made in frue.matrix alone
        ident = (node.id if isinstance(node, ast.Name) else
                 node.attr if isinstance(node, ast.Attribute) else
                 node.name if isinstance(node, ast.alias) else
                 node.value if isinstance(node, ast.Constant) else None)
        planner = ident in kept
        if named or setattr_call or planner:
            found.append(f"{name}:{getattr(node, 'lineno', '?')}: {ast.unparse(node)}")
    assert found == []


def test_randomness_has_one_owner():
    # only frue.matrix reaches the Philox state behind RngHandle, so the key
    # stream's layout (sample_chi's 16-bit lanes) is written in one module
    found = [f"{name}:{node.lineno}: {ast.unparse(node)}"
             for name, node in _nodes_outside_matrix()
             if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
             in ("_gen", "bit_generator", "random_raw")]
    assert found == []


def test_chi_has_one_draw_path():
    # every chi draw outside frue.matrix goes through _chi_cut, which alone
    # calls sample_chi: the cut into matrices is written once
    found = [f"{name}:{node.lineno}: {ast.unparse(node)}"
             for name, node in _nodes_outside_matrix()
             if isinstance(node, ast.Call)
             and (node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)) == "sample_chi"]
    assert found == []


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


def test_chi_matches_the_lane_reference():
    # sizes that are not multiples of 4 leave the rest of their last output unread
    narrow = [adhoc_paramset(D=6, chi_cdf=cdf)
              for cdf in ((1, 5, 7), (0,), (3, 7), (100, 200, 255), (4000, 8191))]
    for p in [load_paramset(name) for name in registered_names()] + narrow:
        shapes = ((5, 3), (16, 8), (1, 1), (0, 4), (640, 8), (2, 7))
        rng = RngHandle(b"lanes-" + p.name.encode())
        want = chi_reference(b"lanes-" + p.name.encode(), [r * c for r, c in shapes], p)
        for (r, c), ref in zip(shapes, want):
            got = sample_chi(rng, r, c, p)
            assert np.array_equal(got.signed().ravel(), ref), (p.name, p.chi_cdf, r, c)


def test_chi_cut_equals_consecutive_draws(toy8, toy16):
    # each matrix of a cut starts at a fresh Philox output, so for any sizes the
    # cut returns what one sample_chi call per shape returns, read-only, and
    # leaves the handle where those calls leave it
    adhoc = adhoc_paramset(n=8, m_bar=3, n_bar=1)
    for p in (toy8, toy16, adhoc):
        for shapes in (((3, 8), (3, 8), (3, 1)), ((1, 1), (2, 3), (5, 7), (8, 1))):
            cut, one = RngHandle(b"cut"), RngHandle(b"cut")
            got = _chi_cut(cut, p, *shapes)
            assert got == [sample_chi(one, r, c, p) for r, c in shapes], (p.name, shapes)
            assert not any(m.data.flags.writeable for m in got)
            assert sample_chi(cut, 1, 5, p) == sample_chi(one, 1, 5, p), (p.name, shapes)
            # k rounds in one draw: stacks whose j-th matrix is round j's
            got = _chi_cut(cut, p, *shapes, k=3)
            rounds = [[sample_chi(one, r, c, p) for r, c in shapes] for _ in range(3)]
            for i, stack in enumerate(got):
                assert stack.data.shape == (3, *shapes[i])
                assert _unstack(stack) == [rnd[i] for rnd in rounds], (p.name, shapes, i)
            assert sample_chi(cut, 1, 5, p) == sample_chi(one, 1, 5, p), (p.name, shapes)


def test_chi_table_counts_equal_chi_pmf_exactly():
    # every 16-bit word once: the table is chi itself
    sets = [load_paramset(name) for name in registered_names()]
    for p in sets + [adhoc_paramset(D=6, chi_cdf=(1, 5, 7))]:
        lut = MatrixZq(_chi_lut(p.chi_cdf, p.D)[None, :], p.D)
        assert lut.cols == 1 << 16
        values, counts = np.unique(lut.signed(), return_counts=True)
        assert {int(v): Fraction(int(c), lut.cols) for v, c in zip(values, counts)} == \
            {z: f for z, f in p.chi_pmf().items() if f}


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


GOLDEN_SHA256_EXPANSION = {
    "frodo-640-aes": "a15cb9936c0b9a6ced87ddc4bef3d4ab71ac841dc0a187d7b90eafd6c203e870",
    "frodo-640-shake": "52befce89938db8ce9eaeaacce3a09c307c251098471fb60234a20d592acccad",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256_EXPANSION))
def test_gen_public_production_expansion_golden(name):
    # pins every byte of both production expanders, not only that they differ
    m = gen_public_matrix(b"golden", load_paramset(name))
    assert hashlib.sha256(m.to_bytes()).hexdigest() == GOLDEN_SHA256_EXPANSION[name]


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
    with pytest.raises(AttributeError, match="advanced only by drawing"):
        a.seed = b"other"


def test_matrix_record_roundtrip_and_truncation():
    rng = RngHandle(b"rec")
    m = rand_matrix(rng, 3, 5, 9)
    blob = m.to_bytes()
    back, consumed = MatrixZq.from_bytes_at(blob)
    assert back == m and consumed == len(blob)
    with pytest.raises(ValueError, match="truncated matrix body"):
        MatrixZq.from_bytes_at(blob[:-1])
    with pytest.raises(ValueError, match="truncated matrix header"):
        MatrixZq.from_bytes_at(blob[:4])
