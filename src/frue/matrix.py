"""Dense matrices over Z_q (q = 2**D), the base-2 gadget, and all randomness.

q is always a power of two, so reduction is a mask with 2**D - 1; there is no
general modular-reduction path.  Entries are stored one per 16-bit word
regardless of D (so D <= MAX_D), both in memory (uint16 ndarray) and in the
serialized record format; no other module knows that word format.

The base-2 gadget (Micciancio and Peikert, EUROCRYPT 2012) is two transforms:

  ord_bits    bit-plane decomposition: M (rows x cols over Z_q) becomes a
              0/1 matrix of shape rows x cols*D whose k-th column block
              (width cols) holds bit k-1 of every entry,
  tensor_d    the gadget dual: vertical stack of 2**(k-1) * M for k = 1..D,

which satisfy ord_bits(C) @ tensor_d(S) == C @ S exactly.

Arithmetic must be exact.  Every formula of the scheme is a linear
combination sum(+-X_i @ Y_i) + sum(+-M_j) (`@`, `+`, `-` are its smallest
cases).  _lincomb sums the products in one float64 accumulator of integers,
converts it to words once, and adds the matrix terms (and any paired
products, below) as words, mod 2**16, before one mask to q.  Every float
copy a product keeps holds the signed lift of the words, in [-q/2, q/2).
One guard covers the products, which are exact while sum(inner_i) *
(q/2)**2 < 2**53: at D = 16 a total inner dimension below 8 388 608, about
390 times frodo-1344's n * D = 21 504.  Past it, DimensionMismatchError is
raised before any copy is built.

A product X @ Y with at least _PAIR_ROWS inner rows is paired: two entries
of one operand share a float64 word, x + 2**27 * x', so one product Z of
half the size yields two.  Every paired product runs one way, packed rows
on the left and a float64 copy on the right, and three independent
decisions set its route.  (1) Orientation, by shape alone: axis 0 when X
has more rows than Y has columns, else axis 1.  One packer,
_pairs_along(axis), packs rows i and i + ceil(n / 2) of X (axis 0) or of
Y's transpose (axis 1: Y's columns, kept as ceil(cols / 2) rows that run
along Y's rows), and Z = pairs(X) @ Y, or Z^T = pairs(Y) @ X^T on a
C-contiguous float64 copy of X^T, since X @ Y = (Y^T X^T)^T.  Y's rows are
lifted and packed in L2-sized blocks of at least _PACK_ROWS rows, then
written transposed.  (2) Chunk: Z is taken in chunks c of inner rows whose
words are summed.  Each half of Z is at most rho(c) * q/2, where rho(c)
bounds the l1 norm of a row of X over c inner rows, and c is the
longest chunk with rho(c) * q/2 below _PAIR_LIMIT = 2**26, the one limit on
a half.  _chunk measures X's largest row l1 norm L once and keeps c: all
inner rows while L * q/2 < 2**26, else none qualifies and the product runs
as one float64 BLAS product.  It measures block by block and stops at the
first block past the limit, so a uniform X (KeyGen's A) pays one block.
Ten draws of S'_(1) per frodo level measured L from 1578 to 1984; L may
reach 2047 at D = 16 and 4095 at D = 15.  (3) The 0/1 bound: ord_bits
output has entries 0 and 1, so rho(c) = c, and ord_bits records
c = (2**26 - 1) // (q/2) on its output (4095 rows at D = 15, 2047 at
D = 16), which is never measured.

Every partial sum BLAS forms, in any order and with or without FMA, is then
an integer below (2**26 - 1) * (2**27 + 1) < 2**53: exact.  One read-back
takes each chunk's Z (or Z^T) as int64 and writes, as words, its low half
Z mod 2**27 (so mod q) to rows i < ceil(n / 2) and its high half
(Z + 2**26) >> 27 to rows i + ceil(n / 2) of the result, or of a transposed
view of it on axis 1, so only the word array is transposed.  Products below
the floor, where packing costs more than it saves, run in float64 too;
every toy-16 product has an inner dimension of at most 128.

A chunk's Z is one BLAS call, or the sum of pieces of its inner rows, one
call each, added into Z before the read-back.  OpenBLAS's SkylakeX core
runs a float64 product in a small-matrix kernel that skips packing when
M * N * K <= _SMALL_MNK = 10**6, its dgemm small-kernel permit:
8 x 390 @ 390 x 320 took 0.043 ms, 8 x 400 @ 400 x 320 0.088 ms (one BLAS
thread on a shared 2-core Intel Xeon).  A piece holds the most rows that
keep rows(Z) * cols(Z) * piece within the permit, and lies inside its
chunk, so the bound above holds for every partial sum.  The kernel reads a
piece where it lies, unpacked: each pair's run of inner rows is contiguous
in the packed rows, so a piece streams the token row by row, and the
packers start their copies on a 64-byte line (_aligned).  A chunk splits
only where a piece holds at least _MIN_PIECE rows (_piece).  Every level's
8-row products split (the update's O @ d1_a and R @ d2_a, Enc's S1 @ A and
TG's S'_(2) B, in pieces of 390, 256 and 186 rows at frodo-640, -976 and
-1344): steady updates in pieces took 0.65, 0.65 and 0.73 of the time of
whole chunks, and 0.65-0.67, 0.72 and 0.76-0.78 with 400 MB read between
updates, which evicts the token.  Token generation's S'_(1) B and S'_(2) A
stay whole: their pieces would hold 26, 16 or 11 and 4 rows, and splitting
them made frodo-640's TG 0.157 s against 0.129 s.  A BLAS without the
kernel runs each piece as one more packed product.

Each copy of an operand (float64 of the lift or of its transpose, packed
rows, packed columns), like a matrix's tensor_d stack, is built on first
use and kept, read-only, for the matrix's lifetime; matrices are
immutable, so it never goes stale.
A token reused across many updates, or the public matrix across many
products, is converted once.  The price is memory: the float64 copy is four
times the uint16 words, packed rows or columns twice, the tensor_d stack D
times; a matrix term (sum(+-M_j)) gets none.

A stack is a MatrixZq whose words have a leading axis: k matrices of one
shape.  Only this module makes one (_chi_cut with k > 1, and _lincomb of a
stack) and _unstack splits one into its 2-D matrices, so no public
function returns a stack.  _lincomb takes a stack for any operand.  Shapes
conform on the last two axes, every stack of one call holds the same k, a
2-D operand acts on each matrix of a stack, and the result is a stack of
k.  The guard is unchanged: each matrix of a stack is its own product.  A
product with a stacked operand runs in float64, as one np.matmul over the
stack; pairing stays 2-D.  k draws of one formula thus cost one call
(frue.hybrids' batched samplers).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .params import ParamSet


class DimensionMismatchError(ValueError):
    """Operands do not conform (shape or modulus exponent)."""


_MATRIX_HEADER = struct.Struct("<IIB")  # rows, cols, D

MAX_D = 16                                      # largest D a 16-bit word holds
_MASK16 = [np.uint16((1 << D) - 1) for D in range(MAX_D + 1)]  # q - 1 per D, built once
_PLANES = [np.arange(D, dtype=np.uint16)[:, None, None] for D in range(MAX_D + 1)]  # D x 1 x 1
_PAIR_ROWS = 512        # fewest inner rows of a paired product (module docstring)
_PAIR_LIMIT = 2**26     # each half of a paired word is below it; x' is scaled by twice it
_SMALL_MNK = 10**6      # most multiply-adds OpenBLAS's small-matrix kernel takes in one call
_MIN_PIECE = 128        # fewest inner rows of a piece of a paired chunk (module docstring)
_PACK_ROWS = 128        # fewest rows of Y packed per L2 block before a transposed write


class MatrixZq:
    """Immutable dense matrix over Z_{2**D}."""

    # product copies (_f64, _f64t: float64 of the lift and of its transpose;
    # _colpairs, _pairs: packed columns, packed rows), _k (_chunk's length)
    # and _tensor_d; each unset until first needed (_keep), so constructing
    # a matrix costs nothing extra
    __slots__ = ("data", "D", "_f64", "_f64t", "_colpairs", "_pairs", "_k", "_tensor_d")

    def __init__(self, data, D: int):
        if not (1 <= D <= MAX_D):
            raise ValueError(f"D must be in [1, {MAX_D}], got {D}")
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if arr.dtype.kind in "fc":
            raise ValueError(f"entries must be integers, got {arr.dtype}")
        # range-check the input itself, before any cast could wrap it
        if arr.size and ((arr.dtype.kind not in "ub" and int(arr.min()) < 0)
                         or int(arr.max()) >= (1 << D)):
            raise ValueError(f"entries must lie in [0, 2**{D})")
        # a read-only uint16 input (a parsed record) is kept as it is; any
        # other is copied, so the caller's own array stays writable
        if arr.dtype != np.uint16 or arr.flags.writeable or not arr.flags.c_contiguous:
            arr = arr.astype(np.uint16, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixZq is immutable")

    @classmethod
    def _new(cls, arr: np.ndarray, D: int) -> "MatrixZq":
        # internal: arr holds uint16 words < 2**D, in any layout, that
        # nothing writes afterwards
        obj = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(obj, "data", arr)
        object.__setattr__(obj, "D", D)
        return obj

    # -- structure -----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def q(self) -> int:
        return 1 << self.D

    @classmethod
    def zeros(cls, rows: int, cols: int, D: int) -> "MatrixZq":
        return cls(np.zeros((rows, cols), dtype=np.uint16), D)

    @classmethod
    def from_signed(cls, data, D: int) -> "MatrixZq":
        """Build from signed integers, reducing mod 2**D."""
        arr = np.asarray(data)
        if arr.dtype.kind not in "fc":      # a float reaches __init__ uncast: refused
            arr = arr.astype(np.int64) & ((1 << D) - 1)
        return cls(arr, D)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixZq) and self.D == other.D
                and self.shape == other.shape
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self):
        return hash((self.D, self.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixZq({self.rows}x{self.cols}, D={self.D})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MatrixZq") -> "MatrixZq":
        return _lincomb((1, self), (1, other))

    def __sub__(self, other: "MatrixZq") -> "MatrixZq":
        return _lincomb((1, self), (-1, other))

    def __neg__(self) -> "MatrixZq":
        return _lincomb((-1, self))

    def __matmul__(self, other: "MatrixZq") -> "MatrixZq":
        return _lincomb((1, self, other))

    def _keep(self, slot: str, copy):
        """Keep `copy`, read-only, in `slot` for the matrix's lifetime; return it."""
        if isinstance(copy, np.ndarray):
            copy.setflags(write=False)
        object.__setattr__(self, slot, copy)
        return copy

    def _float64(self) -> np.ndarray:
        """Read-only C-contiguous float64 copy of the lift; built on first use, kept."""
        if hasattr(self, "_f64"):
            return self._f64
        return self._keep("_f64", _lift(self.data, self.D).astype(np.float64, order="C"))

    def _float64_t(self) -> np.ndarray:
        """Read-only C-contiguous float64 copy of the lift's transpose, the
        right side of a product on Y's column pairs; built on first use and kept."""
        if hasattr(self, "_f64t"):
            return self._f64t
        return self._keep("_f64t", _lift(self.data.T, self.D).astype(np.float64, order="C"))

    def _pairs_along(self, axis: int) -> np.ndarray:
        """Rows (axis 0, slot _pairs) or columns (axis 1, slot _colpairs) i and
        i + ceil(n / 2) of the lift in one word, x + 2 * _PAIR_LIMIT * x', zero
        where an odd n leaves x' short; pair i is row i of the copy, so column
        pairs run along Y's rows, as rows of its transpose.  Kept once built."""
        slot = ("_pairs", "_colpairs")[axis]
        if hasattr(self, slot):
            return getattr(self, slot)
        h = -(-self.shape[axis] // 2)
        P = _aligned((h, self.shape[1 - axis]))
        if axis == 0:
            lo, hi = self.data[:h], self.data[h:]
            for b in _blocks(h, self.cols):
                _pack(_lift(lo[b], self.D), _lift(hi[b], self.D), P[b])
            return self._keep(slot, P)
        # each block of Y's rows is lifted and packed in L2, then written transposed
        step = max(_PACK_ROWS, _CHI_BLOCK // max(1, self.cols))
        block = np.empty((step, h))
        for s in range(0, self.rows, step):
            x = _lift(self.data[s:s + step], self.D)
            t = block[:len(x)]
            _pack(x[:, :h], x[:, h:], t)
            P[:, s:s + len(t)] = t.T
        return self._keep(slot, P)

    def _chunk(self) -> int:
        """Longest chunk of inner rows whose paired product is exact, or 0
        (module docstring): all of them while the largest row l1 norm L has
        L * q/2 < 2**26.  Kept once measured; ord_bits records its own."""
        if hasattr(self, "_k"):
            return self._k
        half = self.q // 2
        # row l1 norms: |x| <= q/2 fits uint16, each row sum fits `acc`
        acc = np.uint32 if self.cols * half < 2**32 else np.int64
        fits = all(int(np.abs(_lift(self.data[b], self.D)).view(np.uint16)
                       .sum(axis=1, dtype=acc).max()) * half < _PAIR_LIMIT
                   for b in _blocks(self.rows, self.cols))
        return self._keep("_k", self.cols if fits else 0)

    # -- norms ----------------------------------------------------------

    def signed(self) -> np.ndarray:
        """Entries lifted to the representative range (-q/2, q/2], as int32."""
        arr = self.data.astype(np.int32)
        return np.where(arr <= self.q // 2, arr, arr - self.q)

    def max_norm(self) -> int:
        if self.data.size == 0:
            return 0
        return int(np.abs(self.signed()).max())

    # -- serialization ---------------------------------------------------

    def _record(self) -> tuple[bytes, np.ndarray]:
        """The record's header and its words as little-endian uint16, uncopied
        where the words already are; b"".join of the two is to_bytes()."""
        header = _MATRIX_HEADER.pack(self.rows, self.cols, self.D)
        return header, np.ascontiguousarray(self.data, dtype="<u2")

    def to_bytes(self) -> bytes:
        return b"".join(self._record())

    @classmethod
    def from_bytes_at(cls, buf: bytes, offset: int = 0) -> tuple["MatrixZq", int]:
        """Parse one matrix record; returns (matrix, next offset).  The
        matrix reads its words in place, from buf itself."""
        end = offset + _MATRIX_HEADER.size
        if end > len(buf):
            raise ValueError("truncated matrix header")
        rows, cols, D = _MATRIX_HEADER.unpack_from(buf, offset)
        body = offset + _record_size(rows, cols)
        if body > len(buf):
            raise ValueError("truncated matrix body")
        data = np.frombuffer(buf, dtype="<u2", count=rows * cols, offset=end)
        return cls(data.reshape(rows, cols), D), body


def _record_size(rows: int, cols: int) -> int:
    """Bytes of a rows x cols record: its header, then one word per entry."""
    return _MATRIX_HEADER.size + 2 * rows * cols


def _blocks(rows: int, cols: int):
    """Slices of `rows` rows, _CHI_BLOCK words (at least one row) each, so
    that a block's lift or int64 copy stays in L2."""
    step = max(1, _CHI_BLOCK // max(1, cols))
    return (slice(s, s + step) for s in range(0, rows, step))


def _lift(data: np.ndarray, D: int) -> np.ndarray:
    """Words < 2**D lifted to their representatives in [-q/2, q/2), as int16."""
    if D == MAX_D:
        return data.view(np.int16)
    return (data << np.uint16(MAX_D - D)).view(np.int16) >> (MAX_D - D)


def _pack(lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> None:
    """out = lo + 2 * _PAIR_LIMIT * hi for lifted words, zero where hi is short."""
    np.multiply(hi, 2.0 * _PAIR_LIMIT, out=out[:len(hi), :hi.shape[1]])
    out[len(hi):], out[:, hi.shape[1]:] = 0, 0
    out += lo


def ord_bits(M: MatrixZq) -> MatrixZq:
    """Bit-plane decomposition, least significant plane first.

    Defined for any shape, empty ones included: entry (i, j) satisfies
    M[i, j] = sum_k 2**(k-1) * out[i, (k-1)*cols + j].  Its entries are 0/1,
    so the result records its chunk (module docstring) and is never measured.
    M is decomposed once, from M^T, into t = out^T; out's words are a view of t.
    """
    t = (np.ascontiguousarray(M.data.T) >> _PLANES[M.D]).reshape(M.D * M.cols, M.rows)
    t &= np.uint16(1)
    out = MatrixZq._new(t.T, M.D)
    out._keep("_k", (_PAIR_LIMIT - 1) // (M.q // 2))
    return out


def tensor_d(M: MatrixZq) -> MatrixZq:
    """Vertical stack of 2**(k-1) * M mod q for k = 1..D, low plane on top; kept on M."""
    if hasattr(M, "_tensor_d"):
        return M._tensor_d
    stack = (M.data << _PLANES[M.D]) & _MASK16[M.D]   # uint16 shifts
    return M._keep("_tensor_d", MatrixZq._new(stack.reshape(M.D * M.rows, M.cols), M.D))


def _lincomb(*terms) -> MatrixZq:
    """sum(+-X @ Y) + sum(+-M) mod q from terms (sign, X, Y) and (sign, M):
    the products in one float64 accumulator behind one guard, the rest as
    words mod 2**16 (module docstring).  Any operand may be a stack."""
    D, shape, stack, inner = terms[0][1].D, None, (), 0
    for t in terms:
        for x in t[1:]:
            if not isinstance(x, MatrixZq):
                raise TypeError(f"expected MatrixZq, got {type(x).__name__}")
            if x.D != D:
                raise DimensionMismatchError(f"modulus mismatch: D={D} vs D={x.D}")
            if (lead := x.data.shape[:-2]) and stack not in ((), lead):
                raise DimensionMismatchError(f"stack: {stack[0]} vs {lead[0]} matrices")
            stack = stack or lead
        out = t[1].data.shape[-2:]
        if len(t) == 3:
            if out[1] != t[2].data.shape[-2]:
                raise DimensionMismatchError(f"mul: {out} @ {t[2].data.shape[-2:]}")
            inner, out = inner + out[1], (out[0], t[2].data.shape[-1])
        if shape not in (None, out):
            raise DimensionMismatchError(f"sum: {shape} vs {out}")
        shape = out
    half = 1 << (D - 1)     # |lift| <= q/2 (module docstring)
    if inner * half * half >= 2**53:
        raise DimensionMismatchError(
            f"inner dimension {inner} at D={D} is past the exact float64 range")
    acc = out = None        # float64 sum of products; uint16 sum of words
    for t in terms:
        if len(t) == 2:
            continue
        if (t[1].data.ndim == t[2].data.ndim == 2 and t[1].cols >= _PAIR_ROWS
                and (k := t[1]._chunk())):
            for words in _paired(t[1], t[2], k):
                out = _accumulate(out, t[0], words)
        else:
            acc = _accumulate(acc, t[0], t[1]._float64() @ t[2]._float64())
    if acc is not None:     # exact, then wraps mod 2**16
        out = _accumulate(out, 1, acc.astype(np.int64).astype(np.uint16))
    if out is None:
        out = np.zeros(stack + shape, dtype=np.uint16)
    for t in terms:
        if len(t) == 2:
            out = _accumulate(out, t[0], t[1].data)
    if D < MAX_D:
        out &= _MASK16[D]
    return MatrixZq._new(out, D)


def _unstack(M: MatrixZq) -> list[MatrixZq]:
    """The 2-D matrices of a stack, in order; a 2-D matrix is a stack of one."""
    if M.data.ndim == 2:
        return [M]
    return [MatrixZq._new(words, M.D) for words in M.data]


def _paired(X: MatrixZq, Y: MatrixZq, k: int):
    """X @ Y mod 2**16 as uint16 words, one fresh array per chunk of k inner
    rows, each chunk summed from _piece's pieces of packed rows @ float64: X's
    packed rows @ Y when X has more rows than Y has columns, else Y's packed
    columns @ X's transpose, which gives the transpose (module docstring)."""
    axis = 0 if X.rows > Y.cols else 1
    left, right = ((X._pairs_along(0), Y._float64()) if axis == 0
                   else (Y._pairs_along(1), X._float64_t()))
    step = _piece((len(left), right.shape[1]), k)
    for s in range(0, X.cols, k):
        end = min(s + k, X.cols)        # pieces stay inside the chunk
        Z = left[:, s:s + step] @ right[s:s + step]
        for t in range(s + step, end, step):
            Z += left[:, t:min(t + step, end)] @ right[t:min(t + step, end)]
        words = np.empty((X.rows, Y.cols), dtype=np.uint16)
        rows = words.T if axis else words       # Z's rows pair these rows
        lo, hi = rows[:len(Z)], rows[len(Z):]
        for b in _blocks(len(Z), Z.shape[1]):
            z, high = Z[b].astype(np.int64), hi[b]
            lo[b] = z                           # Z mod 2**16
            z += _PAIR_LIMIT
            z >>= _PAIR_LIMIT.bit_length()      # (Z + 2**26) >> 27
            high[...] = z[:len(high)]
        yield words


def _piece(shape: tuple[int, int], k: int) -> int:
    """Inner rows per BLAS call in a paired chunk of k rows whose Z has
    `shape`: the most that keep rows * cols * piece within _SMALL_MNK, if at
    least _MIN_PIECE and fewer than k; else k, one call per chunk (module
    docstring).  An empty Z takes k."""
    step = _SMALL_MNK // max(1, shape[0] * shape[1])
    return step if _MIN_PIECE <= step < k else k


def _aligned(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float64 array of `shape` whose first word starts a
    64-byte cache line (module docstring)."""
    n = shape[0] * shape[1]
    buf = np.empty(n + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + n].reshape(shape)


def _accumulate(total, sign: int, term: np.ndarray) -> np.ndarray:
    """total + sign * term, in place unless a 2-D total meets a stacked term
    (then a fresh stack); with no total yet, the fresh term (negated in
    place) starts it."""
    if total is None:
        return np.negative(term, out=term) if sign < 0 else term
    return (np.subtract if sign < 0 else np.add)(
        total, term, out=total if total.ndim >= term.ndim else None)


def signed_rep(x: int, D: int) -> int:
    """Representative of x mod 2**D in (-q/2, q/2]."""
    q = 1 << D
    if not 0 <= x < q:
        raise ValueError(f"entry {x} out of range for D={D}")
    return x if x <= q // 2 else x - q


class RngHandle:
    """Deterministic pseudorandom stream seeded by a byte string.

    Same seed, same stream.  Handles are single-owner: parallel sampling
    must use independent handles obtained via derive(), which reseeds with
    domain separation.  Backed by Philox, a counter-based generator whose
    output is specified independently of platform or library version.

    sample_chi reads the raw 64-bit Philox outputs directly, as four
    little-endian 16-bit words each, and _chi_cut cuts one such draw into
    matrices; the other methods use numpy's Generator on the same state.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: bytes | str | int):
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            nbytes = max(16, (seed.bit_length() + 8) // 8)
            seed = seed.to_bytes(nbytes, "little", signed=True)
        digest = hashlib.sha256(b"frue-rng:" + seed).digest()
        key = np.frombuffer(digest[:16], dtype="<u8")
        object.__setattr__(self, "seed", bytes(seed))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.Philox(key=key)))

    def __setattr__(self, name, value):
        raise AttributeError("RngHandle state is advanced only by drawing")

    def derive(self, label: bytes | str) -> "RngHandle":
        """Independent handle for the given domain label."""
        if isinstance(label, str):
            label = label.encode()
        child = hashlib.sha256(
            b"frue-derive:" + len(self.seed).to_bytes(4, "little") + self.seed + label
        ).digest()
        return RngHandle(child)

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        return self._gen.integers(low, high, size=size, dtype=dtype)

    def bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)

    def bit(self) -> int:
        return int(self._gen.integers(0, 2))


def sample_uniform(rng: RngHandle, rows: int, cols: int, p: ParamSet) -> MatrixZq:
    """Matrix with i.i.d. entries uniform on [0, 2**D)."""
    data = rng.integers(0, p.q, size=(rows, cols), dtype=np.uint16)
    return MatrixZq._new(data, p.D)


def _chi_counts(chi_cdf: tuple[int, ...]) -> list[int]:
    """How many u in [0, chi_cdf[-1]] select each magnitude 0..s (u selects
    the count of entries below it): chi_cdf[0] + 1, then the differences.
    The one reading of chi_cdf, for the sampler's table and chi_pmf."""
    return [b - a for a, b in zip((-1, *chi_cdf), chi_cdf)]


@functools.lru_cache(maxsize=64)
def _chi_lut(chi_cdf: tuple[int, ...], D: int) -> np.ndarray:
    """Residue table indexed by the raw 16-bit word: word 2u + b holds
    (-1)**b * v, v the magnitude u selects (_chi_counts), repeated out to
    2**16 words, so the bits above chi_sample_bits + 1 are ignored."""
    q = 1 << D
    v = np.repeat(np.arange(len(chi_cdf), dtype=np.int64), _chi_counts(chi_cdf))
    lut = np.empty(2 * len(v), dtype=np.uint16)
    lut[0::2] = v & (q - 1)                  # sign bit 0: +v
    lut[1::2] = (q - v) & (q - 1)            # sign bit 1: -v
    lut = np.tile(lut, (1 << MAX_D) // len(lut))
    lut.setflags(write=False)
    return lut


_CHI_BLOCK = 1 << 16   # words per lookup: take's intp copy of them stays in L2


def sample_chi(rng: RngHandle, rows: int, cols: int, p: ParamSet) -> MatrixZq:
    """Matrix with i.i.d. entries from chi, stored as residues mod q.

    Entry k (row-major) is the 16-bit word k of the raw Philox stream:
    lane k % 4 of output k // 4, little-endian (RngHandle), so a draw of
    w = rows * cols entries consumes ceil(w / 4) outputs.  Of the word, the
    low bit is the sign, the next chi_sample_bits bits, u, select the
    magnitude as the count of table entries strictly below u, and the rest
    are ignored (FrodoKEM's sampler).  Outputs always lie in [-s, s]
    (signed).  The (word -> residue) map, _chi_lut, is precomputed once per
    parameter set and applied in place, in blocks of _CHI_BLOCK words.
    """
    w, lut = rows * cols, _chi_lut(p.chi_cdf, p.D)
    raw = rng._gen.bit_generator.random_raw(-(-w // 4))
    words = raw.astype("<u8", copy=False).view("<u2")[:w]
    # Each block's residues overwrite its words: take reads a block only
    # through its own intp copy of it.  take(out=) buffers its output in the
    # default mode "raise"; every 16-bit word is < len(lut), so "clip" never
    # acts and skips that copy.
    for s in range(0, w, _CHI_BLOCK):
        block = words[s:s + _CHI_BLOCK]
        lut.take(block, out=block, mode="clip")
    return MatrixZq._new(words.reshape(rows, cols), p.D)


def _chi_cut(rng: RngHandle, p: ParamSet, *shapes: tuple[int, int],
             k: int = 1) -> list[MatrixZq]:
    """One chi draw for k rounds of every matrix of `shapes`, cut row-major
    in order.

    Matrix i takes its rows * cols words rounded up to a multiple of 4, so the
    next starts at a fresh Philox output (sample_chi): the result, and the
    handle's position after it, are those of k rounds of one sample_chi call
    per shape.  With k > 1 matrix i is a stack (module docstring) whose j-th
    matrix is round j's; with k = 1 it is a 2-D matrix.
    """
    sizes = [-(-r * c // 4) * 4 for r, c in shapes]
    rounds, off, out = sample_chi(rng, k, sum(sizes), p).data, 0, []
    for (r, c), w in zip(shapes, sizes):
        cut = rounds[:, off:off + r * c].reshape(k, r, c)
        out.append(MatrixZq._new(cut if k > 1 else cut[0], p.D))
        off += w
    return out


def _expand_shake(seed: bytes, p: ParamSet) -> np.ndarray:
    n = p.n
    rows = np.empty((n, n), dtype=np.uint16)
    for i in range(n):
        stream = hashlib.shake_128(struct.pack("<H", i) + seed).digest(2 * n)
        rows[i] = np.frombuffer(stream, dtype="<u2")
    return rows


def _expand_aes(seed: bytes, p: ParamSet) -> np.ndarray:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    n = p.n
    nblocks = n // 8  # one AES block yields eight 16-bit entries
    plain = np.zeros((n, nblocks, 8), dtype="<u2")
    plain[:, :, 0] = np.arange(n, dtype=np.uint16)[:, None]
    plain[:, :, 1] = (np.arange(nblocks, dtype=np.uint16) * 8)[None, :]
    key = hashlib.sha256(b"frue-aes:" + seed).digest()[:16]
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    cipher = enc.update(plain.tobytes()) + enc.finalize()
    return np.frombuffer(cipher, dtype="<u2").reshape(n, n).copy()


def _expand_toy(seed: bytes, p: ParamSet) -> np.ndarray:
    n = p.n
    root = RngHandle(seed)
    rows = np.empty((n, n), dtype=np.uint16)
    for i in range(n):
        row_rng = root.derive(f"row:{i}")
        rows[i] = row_rng.integers(0, 1 << 16, size=n, dtype=np.uint16)
    return rows


_EXPANDERS = {"aes-like": _expand_aes, "shake-like": _expand_shake, "toy": _expand_toy}
GEN_MODES = tuple(_EXPANDERS)


def gen_public_matrix(seed: bytes, p: ParamSet) -> MatrixZq:
    """Deterministic n x n public matrix expanded from a seed.

    Expansion is row-striped (the row index is mixed into each per-row
    stream) so rows could be generated independently.  The aes-like and
    shake-like modes use AES-128-ECB counter blocks and SHAKE128
    respectively; toy mode reuses the seeded uniform sampler.
    """
    return MatrixZq._new(_EXPANDERS[p.gen_mode](seed, p) & _MASK16[p.D], p.D)
