"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The benchmark criterion times the production-scale
parameter sets and dominates the wall clock (a few minutes).
"""

import itertools
import time

import numpy as np
import pytest

from frue.bench import run_benchmarks
from frue.game import LeakageSets, cstar, kstar_op_uni, run_experiment, tstar_op_uni
from frue.hybrids import (high_bits_projection, hyb_ue_upd, hyb_update_sampler,
                          make_update_instance, real_update_sampler,
                          sample_token_randomness, smudging_estimate,
                          statistical_distance_estimate, token_from_randomness)
from frue.matrix import MatrixZq, RngHandle, sample_uniform
from frue.params import validate_correctness_bound
from frue.pke import decode, encode, pke_enc_traced, random_message_bits
from frue.ue import (NoValidPlaneError, derive_prev_secret, ord_bits,
                     select_recovery_plane, tensor_d, ue_dec, ue_enc, ue_kg,
                     ue_tg, ue_upd)

from conftest import adhoc_paramset
from oracles import cstar_brute, kstar_brute, tstar_brute


def report(num, name, detail):
    print(f"\nACCEPTANCE {num:>2} {name}: PASS ({detail})")


# -- 1: encode/decode lemma, exhaustive ---------------------------------------

def test_criterion_1_encode_decode_lemma_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for D, B in [(4, 1), (4, 2), (5, 3), (6, 2), (8, 2), (8, 4), (8, 8)]:
        q = 1 << D
        half = q >> (B + 1)
        errors = np.arange(-half, max(half, 1), dtype=np.int64)
        p = adhoc_paramset(name=f"lemma-{D}-{B}", D=D, B=B, n=8,
                           m_bar=1, n_bar=len(errors))
        for k in range(1 << B):
            cs = (k * (q >> B) + errors) % q
            bits = decode(MatrixZq(cs.reshape(1, -1).astype(np.uint16), D), p)
            groups = bits.reshape(len(errors), B)
            ks = groups @ (1 << np.arange(B))
            assert np.all(ks == k), (D, B, k)
            checked += len(errors)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "encode/decode lemma", f"{checked} (k, e) pairs, {elapsed:.3f}s")


# -- 2 and 3: chained updates at toy-16 ----------------------------------------

@pytest.fixture(scope="module")
def chain_run(deployment16):
    d = deployment16
    p = d["p"]
    assert validate_correctness_bound(p, p.T_max)
    per_update_bound = 2 * (p.n**2 * p.D * p.s**3 + p.n**2 * p.s**3) \
        + p.n * p.D * p.s + p.n * p.s**2
    rng = RngHandle(b"acceptance-chain")
    failures = violations = 0
    worst = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        m = random_message_bits(rng, p)
        ct = ue_enc(rng, p, d["A"], d["keys"][0], m)
        phi_prev = ct.C2 - ct.C1 @ d["keys"][0].sk_S
        for e in range(1, p.T_max + 1):
            ct = ue_upd(rng, p, d["tokens"][e], ct)
            phi = ct.C2 - ct.C1 @ d["keys"][e].sk_S
            step = (phi - phi_prev).max_norm()
            worst = max(worst, step)
            violations += step > per_update_bound
            phi_prev = phi
        failures += not np.array_equal(ue_dec(p, d["keys"][p.T_max], ct), m)
    return {"failures": failures, "violations": violations, "worst": worst,
            "bound": per_update_bound, "elapsed": time.perf_counter() - t0,
            "epochs": p.T_max}


def test_criterion_2_chain_correctness(chain_run):
    assert chain_run["failures"] == 0
    assert chain_run["elapsed"] < 60.0
    report(2, "chain correctness",
           f"1000 messages through {chain_run['epochs']} epochs, "
           f"0 failures, {chain_run['elapsed']:.1f}s")


def test_criterion_3_per_update_error_bound(chain_run):
    assert chain_run["violations"] == 0
    report(3, "per-update error bound",
           f"worst observed {chain_run['worst']} <= {chain_run['bound']}, "
           "0 violations")


# -- 4: bit-ordering / gadget identity ------------------------------------------

def test_criterion_4_ord_tensor_identity():
    rng = RngHandle(b"acceptance-ord")
    mismatches = 0
    for _ in range(1000):
        D = int(rng.integers(1, 17))
        rows, inner, cols = (int(x) for x in rng.integers(1, 11, size=3))
        p = adhoc_paramset(name="ident", D=D)
        c = sample_uniform(rng, rows, inner, p)
        s = sample_uniform(rng, inner, cols, p)
        mismatches += ord_bits(c) @ tensor_d(s) != c @ s
    exhaustive = 0
    for D in range(1, 5):
        q = 1 << D
        for cv, sv in itertools.product(range(q), range(q)):
            got = (ord_bits(MatrixZq([[cv]], D)) @ tensor_d(MatrixZq([[sv]], D))).data[0, 0]
            exhaustive += 1
            mismatches += got != (cv * sv) % q
    assert mismatches == 0
    report(4, "ord/tensor identity",
           f"1000 random pairs + {exhaustive} exhaustive 1x1 cases, 0 mismatches")


# -- 5: leakage-set closures vs brute force ---------------------------------------

def test_criterion_5_leakage_closures_exhaustive():
    t0 = time.perf_counter()
    pairs = mismatches = cstar_checks = 0
    pick = RngHandle(b"acceptance-cstar")
    for l in range(7):
        epochs = list(range(l + 1))
        subsets = [set(c) for r in range(l + 2)
                   for c in itertools.combinations(epochs, r)]
        for K, T in itertools.product(subsets, subsets):
            pairs += 1
            ls = LeakageSets(K=K, T=T, l=l)
            ks = kstar_op_uni(ls)
            mismatches += ks != kstar_brute(K, T, l)
            ts = tstar_op_uni(ls, ks)
            mismatches += ts != tstar_brute(T, ks, l)
            if l <= 3:
                c_choices = subsets
            else:
                c_choices = [set(), {0}, {l}, set(epochs)]
                c_choices += [{e for e in epochs if pick.bit()} for _ in range(3)]
            for C in c_choices:
                lsc = LeakageSets(K=K, T=T, C=C, l=l)
                for cc in ("uni", "bi"):
                    cstar_checks += 1
                    mismatches += cstar(lsc, ts, cc) != cstar_brute(C, ts, l, cc)
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    report(5, "leakage-set closures",
           f"{pairs} (K,T) pairs, {cstar_checks} C* closures, "
           f"0 mismatches, {elapsed:.1f}s")


# -- 6: backward-leak key derivation -----------------------------------------------

def test_criterion_6_backward_key_derivation(deployment16):
    d = deployment16
    p = d["p"]
    recovered = 0
    for t in range(100):
        rng = RngHandle(f"acceptance-derive-{t}")
        k0, k1 = ue_kg(rng, p, d["A"], 0), ue_kg(rng, p, d["A"], 1)
        tok = ue_tg(rng, p, d["A"], k0.sk_S, k1.pk_B, 1)
        recovered += derive_prev_secret(p, k1.sk_S, tok) == k0.sk_S
    assert recovered == 100
    cramped = adhoc_paramset(name="cramped", D=6, B=1, n=8)
    with pytest.raises(NoValidPlaneError):
        select_recovery_plane(cramped)
    report(6, "backward-leak derivation",
           f"100/100 exact recoveries at plane {select_recovery_plane(p)}; "
           "undersized modulus raises no-valid-plane")


# -- 7: hybrid route equivalence ------------------------------------------------

def test_criterion_7_hybrid_equivalence(deployment16):
    d = deployment16
    p = d["p"]
    rng = RngHandle(b"acceptance-hyb")
    k0, k1 = d["keys"][0], d["keys"][1]
    agree = 0
    for _ in range(1000):
        m = random_message_bits(rng, p)
        ct, e_ct = pke_enc_traced(rng, p, d["A"], k0.pk_B, m)
        tr = sample_token_randomness(rng, p)
        real = ue_upd(rng, p, token_from_randomness(p, d["A"], k0.sk_S, k1.pk_B, 1, tr), ct)
        hyb = hyb_ue_upd(rng, p, d["A"], ct, k1.pk_B, encode(m, p), e_ct, tr)
        a, b = ue_dec(p, k1, real), ue_dec(p, k1, hyb)
        agree += np.array_equal(a, b) and np.array_equal(a, m)
    assert agree == 1000

    inst = make_update_instance(p)
    proj = high_bits_projection(p)
    n_samples = 100_000
    t0 = time.perf_counter()
    dist = statistical_distance_estimate(
        real_update_sampler(inst, RngHandle(b"acc7-real")),
        hyb_update_sampler(inst, RngHandle(b"acc7-hyb")), n_samples, proj)
    baseline = statistical_distance_estimate(
        real_update_sampler(inst, RngHandle(b"acc7-base-a")),
        real_update_sampler(inst, RngHandle(b"acc7-base-b")), n_samples, proj)
    elapsed = time.perf_counter() - t0
    assert dist <= 3 * baseline
    report(7, "hybrid equivalence",
           f"1000/1000 decrypt agreements; marginal distance {dist:.4f} "
           f"<= 3 x baseline {baseline:.4f} at {n_samples} samples ({elapsed:.0f}s)")


# -- 8: smudging demo --------------------------------------------------------------

def test_criterion_8_smudging():
    b1, b2 = 1, 1024               # ratio 2**-10
    dist, baseline = smudging_estimate(b1, b2, 1_000_000, RngHandle(b"acceptance-smudge"))
    assert dist <= 2**-9 + baseline
    report(8, "smudging demo",
           f"TV estimate {dist:.5f} <= 2^-9 + baseline {baseline:.5f} "
           f"(analytic {b1 / (2 * b2 + 1):.5f})")


# -- 9: trivial-win adjudication -----------------------------------------------------

def test_criterion_9_trivial_win_coin(deployment16):
    d = deployment16
    p = d["p"]
    runs = 10_000
    ones = 0
    games = []

    def adversary(game):
        games.append(game)
        m1 = random_message_bits(game.rng, p)
        c1 = game.o_enc(m1)
        game.o_next()
        mb = random_message_bits(game.rng, p)
        assert game.o_chall(mb, c1) is not None
        game.o_corr("key", game.e)
        return 0

    for i in range(runs):
        ones += run_experiment(adversary, i % 2, RngHandle(f"acc9-{i}"), p, A=d["A"])
    assert all(g.twf == 1 for g in games)
    frac = ones / runs
    assert abs(frac - 0.5) <= 0.03
    report(9, "trivial-win adjudication",
           f"twf=1 in {runs}/{runs} runs; returned-bit frequency {frac:.3f}")


# -- 10: benchmark trends ---------------------------------------------------------------

def test_criterion_10_benchmark_trends():
    runs = 20
    results = run_benchmarks(["640", "976", "1344"], ["shake-like"], runs)
    mean = {(r.level, r.op): r.mean_s for r in results}
    for level in ("640", "976", "1344"):
        assert mean[(level, "UE.Dec")] < mean[(level, "UE.KG")], level
        assert mean[(level, "UE.Dec")] < mean[(level, "UE.Enc")], level
        assert mean[(level, "UE.Enc")] < mean[(level, "UE.Upd")], level
        assert mean[(level, "UE.Upd")] < mean[(level, "UE.TG")], level
    tg = [mean[(level, "UE.TG")] for level in ("640", "976", "1344")]
    assert tg[0] < tg[1] < tg[2]
    report(10, "benchmark trends",
           f"{runs} runs/op; TG means {tg[0]:.2f}s < {tg[1]:.2f}s < {tg[2]:.2f}s; "
           "Dec < KG, Dec < Enc, and Enc < Upd < TG at every level")
