"""Parameter sets: registry, validation, the epoch-correctness bound, and the
levels and generation modes `frue bench` can time.

Every scheme constant lives in a ParamSet: the modulus exponent D (q = 2**D),
the message width B, the LWE dimension n, the ciphertext block shape
(m_bar x n_bar), and the error distribution chi given as a cumulative table
over its support {-s, ..., s}.

The production-scale sets are one table of levels times expanders: each
FrodoKEM reference level (n = 640 / 976 / 1344, with its published error
table) is registered once with SHAKE-like and once with AES-like expansion of
A.  The toy sets are first-class registered sets so that exhaustive and
statistical tests are reproducible bit for bit.  A set's empirical chain
budget is 0 unless EMPIRICAL_CHAIN_EPOCHS lists it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .matrix import GEN_MODES, MAX_D, _chi_counts

if TYPE_CHECKING:
    from fractions import Fraction


class UnknownParamSetError(KeyError):
    """Raised when a parameter-set name or id, or a bench target, is not registered."""

    # KeyError's str() is the repr of its argument; report the message
    __str__ = Exception.__str__


@dataclass(frozen=True)
class ParamSet:
    """Immutable bundle of scheme constants.

    chi_cdf, FrodoKEM's cumulative sampling table, is the one statement of
    chi: it fixes s = len(chi_cdf) - 1, chi_sample_bits (chi_cdf[-1] ==
    2**chi_sample_bits - 1) and the pmf.  Magnitude v is drawn with probability
    (chi_cdf[v] - chi_cdf[v-1]) / 2**chi_sample_bits (v = 0 uses
    chi_cdf[0] + 1 counts), then a uniform sign is applied.  The sampler
    reads one 16-bit word per entry, the table index plus the sign bit, so
    chi_sample_bits is at most 15 (every registered set uses 15).
    """

    name: str
    D: int                 # modulus exponent, q = 2**D
    B: int                 # message bits packed per matrix entry
    n: int                 # LWE dimension
    m_bar: int             # ciphertext rows
    n_bar: int             # ciphertext / key columns
    chi_cdf: tuple[int, ...]
    T_max: int             # operational epoch budget for this set
    gen_mode: str
    paramset_id: int

    def __post_init__(self) -> None:
        if not (1 <= self.B <= self.D <= MAX_D):
            raise ValueError(f"need 1 <= B <= D <= {MAX_D}, got B={self.B} D={self.D}")
        if self.n <= 0 or self.n % 8 != 0:
            raise ValueError(f"n must be a positive multiple of 8, got {self.n}")
        if self.m_bar <= 0 or self.n_bar <= 0:
            raise ValueError("m_bar and n_bar must be positive")
        if self.T_max < 1:
            raise ValueError("T_max must be positive")
        if self.gen_mode not in GEN_MODES:
            raise ValueError(f"unknown gen_mode {self.gen_mode!r}")
        if not isinstance(self.chi_cdf, tuple) or not all(   # as operator.index tests
                hasattr(type(c), "__index__") for c in self.chi_cdf):
            raise ValueError(f"chi_cdf must be a tuple of integers, got {self.chi_cdf!r}")
        if not self.chi_cdf or any(b < a for a, b in zip(self.chi_cdf, self.chi_cdf[1:])):
            raise ValueError("chi_cdf must be non-empty and non-decreasing")
        if any(c < 0 for c in self.chi_cdf):
            raise ValueError("chi_cdf entries must be non-negative")
        words = operator.index(self.chi_cdf[-1]) + 1
        if words & (words - 1) or words > 1 << 15:
            raise ValueError("chi_cdf must end at 2**k - 1 with k at most 15: the sampler "
                             f"reads one 16-bit word per entry, got {self.chi_cdf[-1]}")

    @property
    def s(self) -> int:
        """Support bound of chi: values lie in [-s, s]."""
        return len(self.chi_cdf) - 1

    @property
    def chi_sample_bits(self) -> int:
        """k with chi_cdf[-1] == 2**k - 1: the bits of a draw's magnitude index."""
        return operator.index(self.chi_cdf[-1]).bit_length()

    @property
    def q(self) -> int:
        return 1 << self.D

    @property
    def ell(self) -> int:
        """Message length in bits: B * m_bar * n_bar."""
        return self.B * self.m_bar * self.n_bar

    def chi_pmf(self) -> dict[int, Fraction]:
        """Exact probability mass of chi on {-s, ..., s}: the words of each
        value in the sampler's own table, counted through its _chi_counts."""
        from fractions import Fraction

        total, counts = 2 << self.chi_sample_bits, _chi_counts(self.chi_cdf)
        pmf = {0: Fraction(2 * counts[0], total)}
        for z in range(1, self.s + 1):
            pmf[z] = pmf[-z] = Fraction(counts[z], total)
        return pmf


def _noise_bound(p: ParamSet) -> int:
    """Worst-case infinity norm of the noise one update adds:
    2*(n**2*D*s**3 + n**2*s**3) + n*D*s + n*s**2."""
    n, D, s = p.n, p.D, p.s
    return 2 * (n * n * D * s**3 + n * n * s**3) + n * D * s + n * s * s


def bound_sides(p: ParamSet, T: int) -> tuple[int, Fraction]:
    """Both sides of the epoch-correctness inequality, exactly.

    Left side is the noise bound of one update (_noise_bound).  Right side is
    the per-update budget q / (T * 2**(B+1)) that keeps T chained updates
    decodable.
    """
    from fractions import Fraction

    return _noise_bound(p), Fraction(p.q, T * (1 << (p.B + 1)))


def validate_correctness_bound(p: ParamSet, T: int) -> bool:
    """True iff the set is certified for T chained updates (exact arithmetic)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    certified = max_certified_epochs(p)
    return certified is None or T <= certified


def max_certified_epochs(p: ParamSet) -> int | None:
    """Largest T with the bound satisfied; 0 if none, None if unbounded (s = 0)."""
    lhs = _noise_bound(p)
    if lhs == 0:
        return None
    # lhs < q / (T * 2**(B+1))  <=>  T < q / (lhs * 2**(B+1))
    return (p.q - 1) // (lhs * (1 << (p.B + 1)))


# Support-1 table giving P(0) = 1/2 and P(+/-1) = 1/4.
_TOY_CDF = (16383, 32767)

# FrodoKEM's three levels, each stated once and registered once per expander:
# n, D, B, the v1 file-format ids of its SHAKE-like and AES-like sets, and its
# reference error table (15-bit cumulative form; the sampler draws one extra
# sign bit).  Cross-checked in tests: each implied mass function is symmetric,
# sums to exactly 1, and has the documented variance.
_LEVELS = (
    (640, 15, 2, 1, 11, (4643, 13363, 20579, 25843, 29227, 31145, 32103, 32525,
                         32689, 32745, 32762, 32766, 32767)),
    (976, 16, 3, 2, 12, (5638, 15915, 23689, 28571, 31116, 32217, 32613, 32731,
                         32760, 32766, 32767)),
    (1344, 16, 4, 3, 13, (9142, 23462, 30338, 32361, 32725, 32765, 32767)),
)

_REGISTRY = {p.name: p for p in (
    # Small enough for exhaustive tests, big enough q for certified updates:
    # the bound holds up to T = 7, and T_max = 4 is the advertised budget.
    ParamSet(name="toy-16", D=16, B=1, n=8, m_bar=16, n_bar=8, chi_cdf=_TOY_CDF,
             T_max=4, gen_mode="toy", paramset_id=100),
    # 8-bit modulus for exhaustive encode/decode sweeps; never bound-certified.
    ParamSet(name="toy-8", D=8, B=2, n=8, m_bar=4, n_bar=4, chi_cdf=_TOY_CDF,
             T_max=1, gen_mode="toy", paramset_id=101),
)}
for _n, _D, _B, _shake_id, _aes_id, _cdf in _LEVELS:
    for _expander, _pid in (("shake", _shake_id), ("aes", _aes_id)):
        _p = ParamSet(name=f"frodo-{_n}-{_expander}", D=_D, B=_B, n=_n, m_bar=8, n_bar=8,
                      chi_cdf=_cdf, T_max=16, gen_mode=f"{_expander}-like", paramset_id=_pid)
        _REGISTRY[_p.name] = _p

_ALIASES = {f"frodo-{n}": f"frodo-{n}-shake" for n, *_ in _LEVELS}

# Largest epoch budget at which chained update-then-decrypt ran clean in this
# library's own trials; every set not listed reads 0, as one update already
# corrupts a decode.  The production sets' update noise is orders of
# magnitude past q / 2**(B+1), so only the toy-16 geometry rotates.
EMPIRICAL_CHAIN_EPOCHS = {"toy-16": 4}


def registered_names() -> list[str]:
    return sorted(_REGISTRY, key=lambda name: _REGISTRY[name].paramset_id)


def load_paramset(name: str) -> ParamSet:
    """Look up a registered set (aliases like "frodo-640" resolve to SHAKE)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise UnknownParamSetError(
            f"unknown parameter set {name!r}; registered: "
            f"{', '.join(registered_names())}; aliases: {', '.join(_ALIASES)}"
        ) from None


BENCH_LEVELS = tuple(str(n) for n, *_ in _LEVELS)
BENCH_MODES = ("aes-like", "shake-like")


def paramset_for(level: str, mode: str) -> ParamSet:
    """The registered set `frue bench` times for one level and mode."""
    if str(level) not in BENCH_LEVELS or mode not in BENCH_MODES:
        raise UnknownParamSetError(f"no benchmark target for level={level} mode={mode}")
    return next(p for p in _REGISTRY.values() if (str(p.n), p.gen_mode) == (str(level), mode))


def load_by_id(paramset_id: int) -> ParamSet:
    for p in _REGISTRY.values():
        if p.paramset_id == paramset_id:
            return p
    raise UnknownParamSetError(f"unknown parameter set id {paramset_id}")


def empirical_chain_epochs(p: ParamSet) -> int:
    return EMPIRICAL_CHAIN_EPOCHS.get(p.name, 0)


def params_dump(p: ParamSet) -> str:
    """Plain key=value dump of every constant, for audit and file payloads."""
    lines = [
        f"name={p.name}",
        f"paramset_id={p.paramset_id}",
        f"D={p.D}",
        f"q={p.q}",
        f"B={p.B}",
        f"n={p.n}",
        f"m_bar={p.m_bar}",
        f"n_bar={p.n_bar}",
        f"s={p.s}",
        f"chi_sample_bits={p.chi_sample_bits}",
        "chi_cdf=" + ",".join(str(c) for c in p.chi_cdf),
        f"T_max={p.T_max}",
        f"gen_mode={p.gen_mode}",
        f"message_bits={p.ell}",
    ]
    certified = max_certified_epochs(p)
    lines.append(f"bound_certified_epochs={'unbounded' if certified is None else certified}")
    lines.append(f"empirical_chain_epochs={empirical_chain_epochs(p)}")
    return "\n".join(lines) + "\n"
