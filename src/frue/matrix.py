"""Dense matrices over Z_q with q = 2**D, plus all randomness sources.

q is always a power of two, so reduction is a mask with 2**D - 1; there is no
general modular-reduction path.  Entries are stored one per 16-bit word
regardless of D, both in memory (uint16 ndarray) and in the serialized
record format.

Arithmetic must be exact.  Every formula of the scheme is a linear
combination sum(+-X_i @ Y_i) + sum(+-M_j) (`@`, `+`, `-` are its smallest
cases); _lincomb sums it in one float64 accumulator of integers and masks it
to q once.  One guard covers the whole sum, which is exact while
sum(inner_i) * (q - 1)**2 + #M_j * (q - 1) < 2**53: at D = 16 a total inner
dimension of 2 097 216, about 97 times frodo-1344's n * D = 21 504.  Past it,
DimensionMismatchError is raised before any copy is built.  Each product
runs on one of two routes:

  float64   the default: one BLAS product of the float64 copies.
  float32   when the left operand is a BitPlanes matrix (entries 0 or 1,
            built by ue.ord_bits) and inner * (q - 1) > 2**24, so one
            float32 product would not be exact.  The inner dimension is
            split into chunks of k = 2**24 // (q - 1) (512 at D = 15, 256 at
            D = 16).  Within a chunk every partial sum BLAS forms, in any
            order and with or without FMA, is an integer of at most
            k * (q - 1) <= 2**24, and float32 holds every such integer
            exactly.  The chunks are summed into the float64 accumulator.
            The result is bit-identical to the float64 route's; it streams
            half the bytes of the wide operand.  Smaller bit-plane products,
            such as all of toy-16's, stay on float64, where one BLAS call
            costs less Python than a chunk loop.

Each route's copy of an operand (float64 of data; float32 of data.T) is
built once, the first time the matrix takes part in such a product, and kept
(read-only) for the matrix's lifetime; matrices are immutable, so it never
goes stale.  A token reused across many updates, or the public matrix reused
across many products, is converted only once.  The price is memory: the
float64 copy is four times the uint16 words, the float32 copy twice; a
matrix term (sum(+-M_j)) gets none.
"""

from __future__ import annotations

import functools
import hashlib
import struct

import numpy as np

from .params import ParamSet


class DimensionMismatchError(ValueError):
    """Operands do not conform (shape or modulus exponent)."""


_MATRIX_HEADER = struct.Struct("<IIB")  # rows, cols, D

_MASK = [(1 << D) - 1 for D in range(17)]      # q - 1 per D, built once
_MASK16 = [np.uint16(m) for m in _MASK]


class MatrixZq:
    """Immutable dense matrix over Z_{2**D}."""

    # _f64: float64 copy of data, _f32t: float32 copy of data.T (the two
    # product routes), _tensor_d: ue.tensor_d of this matrix; each left unset
    # until first needed, so constructing a matrix costs nothing extra
    __slots__ = ("data", "D", "_f64", "_f32t", "_tensor_d")

    def __init__(self, data, D: int):
        if not (1 <= D <= 16):
            raise ValueError(f"D must be in [1, 16], got {D}")
        arr = np.ascontiguousarray(data, dtype=np.uint16)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if arr.size and int(arr.max()) >= (1 << D):
            raise ValueError(f"entries must be < 2**{D}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixZq is immutable")

    @classmethod
    def _new(cls, arr: np.ndarray, D: int) -> "MatrixZq":
        # internal: arr must be a fresh contiguous uint16 array already < 2**D
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
    def identity(cls, k: int, D: int) -> "MatrixZq":
        return cls(np.eye(k, dtype=np.uint16), D)

    @classmethod
    def from_signed(cls, data, D: int) -> "MatrixZq":
        """Build from signed integers, reducing mod 2**D."""
        arr = np.asarray(data, dtype=np.int64) & ((1 << D) - 1)
        return cls(arr.astype(np.uint16), D)

    def transpose(self) -> "MatrixZq":
        return MatrixZq(self.data.T, self.D)

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

    def _bit_product(self, other: "MatrixZq") -> np.ndarray:
        """self @ other as float64, from float32 chunks each exact (module docstring)."""
        k = 2**24 // (self.q - 1)
        bits, wide = self._float32_t(), other._float32_t()
        acc = np.zeros((self.rows, other.cols))
        for s in range(0, self.cols, k):
            acc += (wide[:, s:s + k] @ bits[s:s + k]).T
        return acc

    def _float64(self) -> np.ndarray:
        """Read-only float64 copy of data, built on first use and kept."""
        arr = getattr(self, "_f64", None)
        if arr is None:
            arr = self.data.astype(np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, "_f64", arr)
        return arr

    def _float32_t(self) -> np.ndarray:
        """Read-only C-contiguous float32 copy of data.T, built on first use and kept."""
        arr = getattr(self, "_f32t", None)
        if arr is None:
            arr = np.empty((self.cols, self.rows), dtype=np.float32)
            # in blocks of rows: about 3x faster than one transposing copy
            for s in range(0, self.rows, 512):
                arr[:, s:s + 512] = self.data[s:s + 512].T
            arr.setflags(write=False)
            object.__setattr__(self, "_f32t", arr)
        return arr

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

    def to_bytes(self) -> bytes:
        header = _MATRIX_HEADER.pack(self.rows, self.cols, self.D)
        return header + self.data.astype("<u2").tobytes()

    @classmethod
    def from_bytes_at(cls, buf: bytes, offset: int = 0) -> tuple["MatrixZq", int]:
        """Parse one matrix record; returns (matrix, next offset)."""
        end = offset + _MATRIX_HEADER.size
        if end > len(buf):
            raise ValueError("truncated matrix header")
        rows, cols, D = _MATRIX_HEADER.unpack_from(buf, offset)
        body = end + 2 * rows * cols
        if body > len(buf):
            raise ValueError("truncated matrix body")
        data = np.frombuffer(buf[end:body], dtype="<u2").reshape(rows, cols)
        return cls(data, D), body


class BitPlanes(MatrixZq):
    """A MatrixZq whose entries are all 0 or 1; only ue.ord_bits builds one.

    Adds no state: the type alone lets a product with it on the left take
    the float32 route (module docstring).
    """

    __slots__ = ()


def _lincomb(*terms) -> MatrixZq:
    """sum(+-X @ Y) + sum(+-M) mod q from terms (sign, X, Y) and (sign, M), in
    one float64 accumulator behind one guard (module docstring)."""
    D, shape, inner, nmat = terms[0][1].D, None, 0, 0
    for t in terms:
        for x in t[1:]:
            if not isinstance(x, MatrixZq):
                raise TypeError(f"expected MatrixZq, got {type(x).__name__}")
            if x.D != D:
                raise DimensionMismatchError(f"modulus mismatch: D={D} vs D={x.D}")
        out = t[1].data.shape
        if len(t) == 3:
            if out[1] != t[2].data.shape[0]:
                raise DimensionMismatchError(f"mul: {out} @ {t[2].data.shape}")
            inner, out = inner + out[1], (out[0], t[2].data.shape[1])
        nmat += len(t) == 2
        if shape not in (None, out):
            raise DimensionMismatchError(f"sum: {shape} vs {out}")
        shape = out
    mask = _MASK[D]
    if inner * mask * mask + nmat * mask >= 2**53:
        raise DimensionMismatchError(
            f"inner dimension {inner} at D={D} is past the exact float64 range")
    acc = None
    for t in terms:
        if len(t) == 2:
            term = t[1].data
        elif type(t[1]) is BitPlanes and t[1].data.shape[1] * mask > 2**24:
            term = t[1]._bit_product(t[2])
        else:
            term = t[1]._float64() @ t[2]._float64()
        if acc is None:     # a product is a fresh float64 array; words are copied
            acc = term.astype(np.float64) if len(t) == 2 else term
            if t[0] < 0:
                np.negative(acc, out=acc)
        elif t[0] < 0:
            acc -= term
        else:
            acc += term
    out = acc.astype(np.int64).astype(np.uint16)     # exact, then wraps mod 2**16
    if D < 16:
        out &= _MASK16[D]
    return MatrixZq._new(out, D)


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
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: bytes | str | int):
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            nbytes = max(16, (seed.bit_length() + 8) // 8)
            seed = seed.to_bytes(nbytes, "little", signed=True)
        digest = hashlib.sha256(b"frue-rng:" + seed).digest()
        key = np.frombuffer(digest[:16], dtype=np.uint64)
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


@functools.lru_cache(maxsize=64)
def _chi_lut(chi_cdf: tuple[int, ...], chi_sample_bits: int, D: int) -> np.ndarray:
    """Residue table indexed by the raw (chi_sample_bits + 1)-bit word."""
    q = 1 << D
    u = np.arange(1 << chi_sample_bits, dtype=np.uint32)
    table = np.asarray(chi_cdf, dtype=np.uint32)
    v = np.searchsorted(table, u, side="left").astype(np.int64)
    lut = np.empty(1 << (chi_sample_bits + 1), dtype=np.uint16)
    lut[0::2] = v & (q - 1)                  # sign bit 0: +v
    lut[1::2] = (q - v) & (q - 1)            # sign bit 1: -v
    lut.setflags(write=False)
    return lut


def sample_chi(rng: RngHandle, rows: int, cols: int, p: ParamSet) -> MatrixZq:
    """Matrix with i.i.d. entries from chi, stored as residues mod q.

    Per entry: draw one (chi_sample_bits + 1)-bit word r; the low bit is the
    sign, the remaining word u selects the magnitude as the count of table
    entries strictly below u.  Outputs always lie in [-s, s] (signed).
    The (word -> residue) map is precomputed once per parameter set.
    """
    bits = p.chi_sample_bits
    r = rng.integers(0, 1 << (bits + 1), size=(rows, cols), dtype=np.uint32)
    lut = _chi_lut(p.chi_cdf, bits, p.D)
    return MatrixZq._new(lut.take(r), p.D)


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


def gen_public_matrix(seed: bytes, p: ParamSet) -> MatrixZq:
    """Deterministic n x n public matrix expanded from a seed.

    Expansion is row-striped (the row index is mixed into each per-row
    stream) so rows could be generated independently.  The aes-like and
    shake-like modes use AES-128-ECB counter blocks and SHAKE128
    respectively; toy mode reuses the seeded uniform sampler.
    """
    if p.gen_mode == "shake-like":
        raw = _expand_shake(seed, p)
    elif p.gen_mode == "aes-like":
        raw = _expand_aes(seed, p)
    else:
        raw = _expand_toy(seed, p)
    return MatrixZq._new(raw & _MASK16[p.D], p.D)
