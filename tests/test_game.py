import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frue.game import (LeakageSets, cstar, gs_setup, kstar_op_uni,
                       run_experiment, starred_sets, tstar_op_uni)
from frue.matrix import MatrixZq, RngHandle
from frue.pke import MessageLengthError, random_message_bits
from frue.ue import UeCiphertext, ue_dec


from oracles import cstar_brute, kstar_brute, tstar_brute

subset6 = st.sets(st.integers(min_value=0, max_value=6), max_size=7)


def test_kstar_examples():
    assert kstar_op_uni(LeakageSets(K={3}, T=set(), l=3)) == {3}
    assert kstar_op_uni(LeakageSets(K={3}, T={3}, l=3)) == {2, 3}
    assert kstar_op_uni(LeakageSets(K=set(), T={1, 2, 3}, l=3)) == set()


def test_tstar_examples():
    ls = LeakageSets(K=set(), T={2}, l=3)
    assert 2 in tstar_op_uni(ls, set())
    ls2 = LeakageSets(K=set(), T=set(), l=3)
    assert 2 in tstar_op_uni(ls2, {1, 2})
    assert 0 not in tstar_op_uni(ls2, {0})   # epoch 0 has no preceding key


def test_cstar_examples():
    assert cstar(LeakageSets(C={2}, l=3), set(), "uni") == {2}
    assert cstar(LeakageSets(C={2}, l=3), {3}, "uni") == {2, 3}
    assert cstar(LeakageSets(C={2}, l=3), {2, 3}, "bi") == {1, 2, 3}
    with pytest.raises(ValueError):
        cstar(LeakageSets(l=1), set(), "sideways")


@settings(max_examples=300, deadline=None)
@given(subset6, subset6, st.integers(min_value=0, max_value=6))
def test_kstar_tstar_match_bruteforce(K, T, l):
    K = {e for e in K if e <= l}
    T = {e for e in T if e <= l}
    ls = LeakageSets(K=K, T=T, l=l)
    ks = kstar_op_uni(ls)
    assert ks == kstar_brute(K, T, l)
    assert tstar_op_uni(ls, ks) == tstar_brute(T, ks, l)


@settings(max_examples=200, deadline=None)
@given(subset6, subset6, subset6, st.integers(min_value=0, max_value=6),
       st.sampled_from(["uni", "bi"]))
def test_cstar_matches_bruteforce(K, T, C, l, cc):
    K = {e for e in K if e <= l}
    T = {e for e in T if e <= l}
    C = {e for e in C if e <= l}
    ls = LeakageSets(K=K, T=T, C=C, l=l)
    ts = tstar_op_uni(ls, kstar_op_uni(ls))
    assert cstar(ls, ts, cc) == cstar_brute(C, ts, l, cc)


@settings(max_examples=200, deadline=None)
@given(subset6, subset6, subset6, st.integers(min_value=0, max_value=6))
def test_starred_sets_contain_bases_and_grow_monotonically(K, T, C, l):
    K = {e for e in K if e <= l}
    T = {e for e in T if e <= l}
    C = {e for e in C if e <= l}
    ls = LeakageSets(K=K, T=T, C=C, l=l)
    ks = kstar_op_uni(ls)
    ts = tstar_op_uni(ls, ks)
    cs = cstar(ls, ts, "uni")
    assert starred_sets(ls) == (ks, ts, cs)
    assert K <= ks and T <= ts and C <= cs
    bigger = LeakageSets(K=K | {l}, T=T | {l}, C=C, l=l)
    ks2 = kstar_op_uni(bigger)
    ts2 = tstar_op_uni(bigger, ks2)
    assert ks <= ks2 and ts <= ts2
    assert cs <= cstar(bigger, ts2, "uni")


def test_backward_leak_shape():
    # token + future key leak the past key, never the future one
    ls = LeakageSets(K={3}, T={3}, l=4)
    ks = kstar_op_uni(ls)
    assert 2 in ks and 4 not in ks


# -- oracle state machine ------------------------------------------------------

def state(g):
    """Everything an oracle call can change, the RNG position included."""
    ls = g.leakage
    return (g.e, g.qid, g.twf, g.chall_ct, g._chall_msgs,
            dict(g.L), dict(g.keys), dict(g.tokens), set(ls.K), set(ls.T), set(ls.C), ls.l,
            str(g.rng._gen.bit_generator.state))


@pytest.fixture()
def game(deployment16):
    d = deployment16
    rng = RngHandle(b"game-fixture")
    return gs_setup(rng, d["p"], d["A"], b=0), d


def test_setup_state(game):
    g, d = game
    assert g.e == 0 and g.chall_ct is None and g.twf == 0 and g.qid == 0
    assert not g.leakage.K and not g.leakage.T and not g.leakage.C
    assert 0 in g.keys and not g.tokens


def test_setup_deterministic(deployment16):
    d = deployment16
    g1 = gs_setup(RngHandle(b"det"), d["p"], d["A"], b=0)
    g2 = gs_setup(RngHandle(b"det"), d["p"], d["A"], b=0)
    assert g1.keys[0].sk_S == g2.keys[0].sk_S
    with pytest.raises(ValueError, match="challenge bit"):
        gs_setup(RngHandle(b"det"), d["p"], d["A"], b=2)


def test_scripted_trace_enc_next_upd_dec(game):
    g, d = game
    m = random_message_bits(g.rng, d["p"])
    ct = g.o_enc(m)
    assert g.qid == 1
    g.o_next()
    ct1 = g.o_upd(ct)
    assert ct1 is not None and ct1.epoch == 1
    out = g.o_dec(ct1)
    assert np.array_equal(out, m)
    assert g.twf == 0


def test_dec_rejects_only_what_ue_dec_raises(game, monkeypatch):
    g, d = game
    p = d["p"]
    ct = g.o_enc(random_message_bits(g.rng, p))
    g.o_next()
    before = state(g)
    assert g.o_dec(ct) is None                       # epoch 0 under the epoch-1 key
    short = UeCiphertext(g.e, MatrixZq.zeros(1, p.n, p.D), MatrixZq.zeros(1, p.n_bar, p.D))
    assert g.o_dec(short) is None                    # not m_bar rows
    assert state(g) == before

    def broken(*args):
        raise RuntimeError("not a decryption failure")

    monkeypatch.setattr("frue.game.ue_dec", broken)
    with pytest.raises(RuntimeError):
        g.o_dec(ct)


def test_dec_refuses_a_missing_ciphertext(game):
    # like o_upd and o_chall, o_dec answers None to what is not a ciphertext
    g, d = game
    m = random_message_bits(g.rng, d["p"])
    g.o_enc(m)
    g.o_next()
    before = state(g)
    assert g.o_dec(None) is None
    assert state(g) == before
    # an unhashable argument is refused like any other, never a TypeError
    assert g.o_dec([1]) is None
    assert g.o_upd([1]) is None
    assert g.o_chall(m, [1]) is None
    assert g.o_corr("key", [1]) is None
    assert g.o_corr("token", {}) is None
    assert state(g) == before
    assert g.o_corr("key", 1.0) is g.keys[1]       # an equal float still reads epoch 1


def test_upd_rejects_unrecorded_ciphertext(game):
    g, d = game
    m = random_message_bits(g.rng, d["p"])
    foreign = d["keys"][0]
    from frue.ue import ue_enc
    ct = ue_enc(RngHandle(b"foreign"), d["p"], d["A"], foreign, m)
    g.o_next()
    assert g.o_upd(ct) is None


def test_corr_guards_and_recording(game):
    g, _ = game
    before = state(g)
    assert g.o_corr("key", 1) is None          # future epoch
    assert g.o_corr("key", -1) is None         # negative epoch
    assert g.o_corr("token", -1) is None
    assert g.leakage.K == set() and g.leakage.T == set()
    assert state(g) == before
    g.o_next()
    key = g.o_corr("key", 1)
    assert key is not None and g.leakage.K == {1}
    tok = g.o_corr("token", 1)
    assert tok is not None and g.leakage.T == {1}
    before = state(g)
    assert g.o_corr("token", 0) is None        # no token enters epoch 0
    assert state(g) == before
    for inp, e_hat in (("key", 0.5), ("token", "1"), ("key", 2)):
        assert g.o_corr(inp, e_hat) is None    # no such epoch in the store
        assert state(g) == before
    with pytest.raises(ValueError):
        g.o_corr("bananas", 0)
    with pytest.raises(ValueError):            # inp is checked before the epoch
        g.o_corr("bananas", 3)
    assert state(g) == before


def test_chall_guards(game):
    g, d = game
    m0 = random_message_bits(g.rng, d["p"])
    assert g.o_upd_ct() is None                # not in challenge phase yet
    ct = g.o_enc(m0)
    mb = random_message_bits(g.rng, d["p"])
    assert g.o_chall(mb, ct) is None           # ct recorded at epoch e, not e-1
    assert g.chall_ct is None
    g.o_next()
    ch = g.o_chall(mb, ct)
    assert ch is not None and g.chall_ct is ch
    assert g.leakage.C == {1}
    assert g.o_chall(mb, ct) is None           # only one challenge
    assert g.o_upd_ct() == ch


def test_chall_fresh_encryption_branch(deployment16):
    d = deployment16
    g = gs_setup(RngHandle(b"b0"), d["p"], d["A"], b=0)
    m0 = random_message_bits(g.rng, d["p"])
    ct = g.o_enc(m0)
    g.o_next()
    mb = random_message_bits(g.rng, d["p"])
    ch = g.o_chall(mb, ct)
    assert np.array_equal(ue_dec(d["p"], g.keys[1], ch), mb)


def test_chall_update_branch(deployment16):
    d = deployment16
    g = gs_setup(RngHandle(b"b1"), d["p"], d["A"], b=1)
    m0 = random_message_bits(g.rng, d["p"])
    ct = g.o_enc(m0)
    g.o_next()
    mb = random_message_bits(g.rng, d["p"])
    ch = g.o_chall(mb, ct)
    assert np.array_equal(ue_dec(d["p"], g.keys[1], ch), m0)


def test_next_during_phase_updates_challenge(deployment16):
    d = deployment16
    g = gs_setup(RngHandle(b"roll"), d["p"], d["A"], b=0)
    m0 = random_message_bits(g.rng, d["p"])
    ct = g.o_enc(m0)
    g.o_next()
    mb = random_message_bits(g.rng, d["p"])
    g.o_chall(mb, ct)
    g.o_next()
    assert g.leakage.C == {1, 2}
    rolled = g.o_upd_ct()
    assert rolled.epoch == 2
    assert np.array_equal(ue_dec(d["p"], g.keys[2], rolled), mb)


@pytest.mark.parametrize("b", [0, 1])
def test_bad_challenge_message_changes_nothing(deployment16, b):
    d = deployment16
    g = gs_setup(RngHandle(b"bad-msg"), d["p"], d["A"], b=b)
    ct = g.o_enc(random_message_bits(g.rng, d["p"]))
    g.o_next()
    before = state(g)
    with pytest.raises(MessageLengthError):       # at either b: no hint of b
        g.o_chall(np.zeros(5, np.uint8), ct)
    assert state(g) == before and g.leakage.C == set() and g.chall_ct is None
    assert g.o_chall(random_message_bits(g.rng, d["p"]), ct) is not None
    g.o_next()
    assert g.leakage.C == {1, 2} and g.chall_ct.epoch == 2
    with pytest.raises(MessageLengthError):
        g.o_enc(np.zeros(5, np.uint8))
    assert g.qid == 1


_ORACLE_CALLS = st.lists(st.tuples(
    st.sampled_from(("enc", "bad-enc", "next", "upd", "chall", "bad-chall",
                     "dec", "corr", "upd-ct")),
    st.integers(min_value=0, max_value=7)), max_size=14)


@settings(max_examples=80, deadline=None)
@given(_ORACLE_CALLS, st.sampled_from((0, 1)))
@example(calls=[("enc", 0), ("next", 0), ("bad-chall", 0)], b=1)   # refused at b = 1
def test_game_state_stays_consistent(deployment16, calls, b):
    p = deployment16["p"]
    g = gs_setup(RngHandle(b"consistent"), p, deployment16["A"], b=b)
    bad = np.zeros(5, np.uint8)
    cts, encs = [], 0
    for op, i in calls:
        pick = cts[i % len(cts)] if cts else None
        before, refused = state(g), False        # refused: the call changes nothing
        if op == "enc":
            cts.append(g.o_enc(random_message_bits(g.rng, p)))
            encs += 1
        elif op == "bad-enc":
            with pytest.raises(MessageLengthError):
                g.o_enc(bad)
            refused = True
        elif op == "next":
            g.o_next()
        elif op == "corr":
            refused = g.o_corr(("key", "token")[i % 2], i % (g.e + 2)) is None
        elif op == "upd-ct":
            g.o_upd_ct()
            refused = True
        elif pick is None:
            continue
        elif op == "upd":
            ct = g.o_upd(pick)
            if ct is not None:
                cts.append(ct)
            refused = ct is None
        elif op == "chall":
            m = random_message_bits(g.rng, p)
            before = state(g)
            refused = g.o_chall(m, pick) is None
        elif op == "bad-chall":
            try:
                assert g.o_chall(bad, pick) is None     # rejected, or ...
            except MessageLengthError:                   # ... refused
                pass
            refused = True
        else:
            refused = g.o_dec(g.chall_ct if i % 2 and g.chall_ct is not None else pick) is None
        if refused:
            assert state(g) == before
        C = g.leakage.C
        assert (g.chall_ct is None) == (not C)
        if g.chall_ct is not None:
            assert g.chall_ct.epoch == g.e == max(C)
            assert C == set(range(min(C), g.e + 1))
        assert all(ct.epoch <= g.e for ct in g.L)
        assert g.qid == encs


def test_dec_of_challenge_equal_plaintext_sets_twf(deployment16):
    d = deployment16
    g = gs_setup(RngHandle(b"decflag"), d["p"], d["A"], b=0)
    m0 = random_message_bits(g.rng, d["p"])
    ct = g.o_enc(m0)
    g.o_next()
    mb = random_message_bits(g.rng, d["p"])
    ch = g.o_chall(mb, ct)
    assert g.twf == 0
    g.o_dec(ch)
    assert g.twf == 1


# -- experiment ------------------------------------------------------------------

def test_experiment_without_challenge_returns_adversary_bit(deployment16):
    d = deployment16

    def quiet(game):
        game.o_enc(random_message_bits(game.rng, d["p"]))
        return 0

    assert run_experiment(quiet, 0, RngHandle(b"quiet"), d["p"], A=d["A"]) == 0


def trivially_winning_adversary(p):
    def adversary(game):
        m1 = random_message_bits(game.rng, p)
        c1 = game.o_enc(m1)
        game.o_next()
        mb = random_message_bits(game.rng, p)
        assert game.o_chall(mb, c1) is not None
        game.o_corr("key", game.e)
        return 0
    return adversary


def test_trivial_win_overrides_answer_with_coin(deployment16):
    d = deployment16
    adversary = trivially_winning_adversary(d["p"])
    ones = sum(run_experiment(adversary, 0, RngHandle(f"coin{i}"), d["p"], A=d["A"])
               for i in range(300))
    assert 90 <= ones <= 210    # the adversary itself always answers 0


def test_distinguisher_without_keys_stays_near_chance(deployment16):
    # a concrete (weak) distinguisher given the challenge and a simulated
    # ciphertext; sanity check, not a security proof
    from frue.hybrids import sim_ue_enc
    d = deployment16
    p = d["p"]
    hits = 0
    runs = 10_000
    for i in range(runs):
        b = i % 2
        rng = RngHandle(f"dist{i}")

        def adversary(game):
            m1 = random_message_bits(game.rng, p)
            c1 = game.o_enc(m1)
            game.o_next()
            mb = random_message_bits(game.rng, p)
            ch = game.o_chall(mb, c1)
            ref = sim_ue_enc(game.rng, p, epoch=game.e)
            stat = int(ch.C1.data.sum()) + int(ref.C1.data.sum())
            return stat & 1

        hits += run_experiment(adversary, b, rng, p, A=d["A"]) == b
    assert hits / runs <= 0.55
