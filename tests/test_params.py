from fractions import Fraction
from types import SimpleNamespace

import pytest

from frue.params import (ParamSet, UnknownParamSetError, bound_sides,
                         empirical_chain_epochs, load_by_id, load_paramset,
                         max_certified_epochs, params_dump, registered_names,
                         validate_correctness_bound)

from conftest import adhoc_paramset, noiseless_paramset


def bound_oracle(n, D, s, B, T):
    """Independent evaluation of both sides with exact rationals."""
    lhs = 2 * (n**2 * D * s**3 + n**2 * s**3) + n * D * s + n * s**2
    rhs = Fraction(2**D, T * 2 ** (B + 1))
    return lhs, rhs, lhs < rhs


def test_named_levels_have_paper_dimensions():
    assert load_paramset("frodo-640").n == 640
    assert load_paramset("frodo-976").n == 976
    assert load_paramset("frodo-1344").n == 1344


def test_unknown_name_rejected():
    with pytest.raises(UnknownParamSetError):
        load_paramset("bogus")
    with pytest.raises(UnknownParamSetError):
        load_by_id(54321)


def test_every_registered_set_satisfies_type_invariants():
    for name in registered_names():
        p = load_paramset(name)
        assert 1 <= p.B <= p.D <= 16
        assert p.n % 8 == 0
        assert list(p.chi_cdf) == sorted(p.chi_cdf)
        assert p.ell == p.B * p.m_bar * p.n_bar
        assert p.T_max >= 1
        # n * D is the largest inner dimension of any scheme product
        # (ord_bits(C1) @ d1_a); MatrixZq @ raises once inner * (q/2)**2
        # reaches 2**53, and this stricter bound, with (q - 1)**2, holds too.
        # That product pairs d1_a's columns in chunks of (2**26 - 1) // (q/2)
        # inner rows, each exact at any n * D.
        assert p.n * p.D * (p.q - 1) ** 2 < 2**53


def test_chi_pmf_is_symmetric_and_sums_to_one_exactly():
    for name in registered_names():
        pmf = load_paramset(name).chi_pmf()
        assert sum(pmf.values()) == 1
        for z, prob in pmf.items():
            assert pmf[-z] == prob
            assert prob > 0


@pytest.mark.parametrize("name,sigma", [
    ("frodo-640-shake", 2.8), ("frodo-976-shake", 2.3), ("frodo-1344-shake", 1.4),
])
def test_frodo_error_tables_match_documented_gaussians(name, sigma):
    # cross-check of the adopted tables: the implied mass function must have
    # the variance the FrodoKEM parameter documentation attributes to it
    p = load_paramset(name)
    pmf = p.chi_pmf()
    counts = [p.chi_cdf[0] + 1] + [p.chi_cdf[k] - p.chi_cdf[k - 1]
                                   for k in range(1, p.s + 1)]
    assert sum(counts) == 2**15   # sign bit is drawn separately
    variance = float(sum(prob * z * z for z, prob in pmf.items()))
    assert abs(variance - sigma**2) < 0.1


def test_frodo_support_bounds():
    assert load_paramset("frodo-640").s == 12
    assert load_paramset("frodo-976").s == 10
    assert load_paramset("frodo-1344").s == 6


def test_bound_example_small_instance():
    # hand-evaluated: n=4, D=4, s=1, B=1, T=2
    p = SimpleNamespace(n=4, D=4, s=1, B=1, q=16)
    lhs, rhs = bound_sides(p, 2)
    o_lhs, o_rhs, o_ok = bound_oracle(4, 4, 1, 1, 2)
    assert (lhs, rhs) == (o_lhs, o_rhs)
    assert lhs == 180
    assert not validate_correctness_bound(p, 2)
    assert not o_ok


def test_bound_noiseless_always_certified():
    p = noiseless_paramset(D=4, B=1)
    assert validate_correctness_bound(p, 1)
    assert max_certified_epochs(p) is None


def test_toy16_certified_at_its_epoch_budget(toy16):
    lhs, rhs, ok = bound_oracle(toy16.n, toy16.D, toy16.s, toy16.B, toy16.T_max)
    assert ok
    assert validate_correctness_bound(toy16, toy16.T_max)
    assert max_certified_epochs(toy16) >= toy16.T_max


def test_bound_monotone_in_epoch_budget(toy16):
    certified = max_certified_epochs(toy16)
    for T in range(1, certified + 3):
        ok = bound_oracle(toy16.n, toy16.D, toy16.s, toy16.B, T)[2]
        assert validate_correctness_bound(toy16, T) == (T <= certified) == ok


def test_named_sets_fail_bound_and_carry_empirical_flag():
    # the production-scale sets are outside the theorem's certified regime
    # for every budget, and chained updates were observed to corrupt decodes
    for name in ("frodo-640", "frodo-976", "frodo-1344"):
        p = load_paramset(name)
        assert not validate_correctness_bound(p, 1)
        assert max_certified_epochs(p) == 0
        assert empirical_chain_epochs(p) == 0
    assert empirical_chain_epochs(load_paramset("toy-16")) == load_paramset("toy-16").T_max


def test_bound_requires_positive_budget(toy16):
    with pytest.raises(ValueError):
        validate_correctness_bound(toy16, 0)


def test_alias_names_resolve_to_shake_variants():
    assert load_paramset("frodo-640").name == "frodo-640-shake"
    assert load_paramset("frodo-640").gen_mode == "shake-like"
    assert load_paramset("frodo-640-aes").gen_mode == "aes-like"
    levels = sorted({load_paramset(n).n for n in registered_names() if n.startswith("frodo-")})
    assert levels == [640, 976, 1344]
    for n in levels:
        p = load_paramset(f"frodo-{n}")
        assert (p.name, p.n, p.gen_mode) == (f"frodo-{n}-shake", n, "shake-like")


def test_paramset_ids_unique_and_loadable():
    ids = [load_paramset(n).paramset_id for n in registered_names()]
    assert len(ids) == len(set(ids))
    for pid in ids:
        assert load_by_id(pid).paramset_id == pid


def test_params_dump_is_keyvalue_text(toy16):
    dump = params_dump(toy16)
    fields = dict(line.split("=", 1) for line in dump.strip().splitlines())
    assert fields["name"] == "toy-16"
    assert int(fields["n"]) == toy16.n
    assert int(fields["q"]) == toy16.q
    assert fields["chi_cdf"] == ",".join(str(c) for c in toy16.chi_cdf)
    assert int(fields["message_bits"]) == toy16.ell


def test_invalid_constructions_rejected():
    with pytest.raises(ValueError):
        adhoc_paramset(D=17)
    with pytest.raises(ValueError):
        adhoc_paramset(B=5, D=4)
    with pytest.raises(ValueError):
        adhoc_paramset(n=12)
    with pytest.raises(ValueError):
        adhoc_paramset(chi_cdf=(4, 3, 32767))
    with pytest.raises(ValueError):
        adhoc_paramset(chi_cdf=(100, 200))   # wrong terminal value
    with pytest.raises(ValueError):
        adhoc_paramset(gen_mode="weird")
    for empty in ({"m_bar": 0}, {"n_bar": 0}, {"T_max": 0}):
        with pytest.raises(ValueError, match="must be positive"):
            adhoc_paramset(**empty)
    with pytest.raises(ValueError, match="at most 15"):   # one 16-bit word per sample
        adhoc_paramset(chi_cdf=(32767, 65535))
    for table in ((), (-1, 32767), (5, 6)):          # empty, negative, 7 words
        with pytest.raises(ValueError):
            adhoc_paramset(chi_cdf=table)


def test_chi_cdf_fixes_s_and_chi_sample_bits():
    # s and chi_sample_bits are read off the table, so no constructor takes them
    for table, s, bits in (((1, 5, 7), 2, 3), ((32767,), 0, 15), ((0,), 0, 0),
                           ((16383, 32767), 1, 15)):
        p = adhoc_paramset(chi_cdf=table)
        assert (p.s, p.chi_sample_bits) == (s, bits)
    kw = {f: getattr(p, f) for f in ParamSet.__dataclass_fields__}
    assert len(kw) == 10
    for extra in ({"s": 1}, {"chi_sample_bits": 15}):
        with pytest.raises(TypeError):
            ParamSet(**kw, **extra)
