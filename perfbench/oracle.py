"""oracle-toy16: the statistical test oracles on toy-16.

Each round makes REAL_DRAWS draws from real_update_sampler, HYB_DRAWS from
hyb_update_sampler (three real, then one hybrid, in turn) and plays GAMES
run_experiment games with the adversary of acceptance criterion 9 (encrypt,
next epoch, challenge, corrupt the current key), which always triggers the
trivial-win rule.  Matrices are tiny (n = 8), so per-call overhead dominates.

The mix is the one the test suite runs.  Counting calls over the whole
suite gives 360 800 real draws, 120 400 hybrid draws and 20 301 games:
criterion 7 and test_hybrids estimate real-vs-hybrid and real-vs-real
distances at n = 100 000 and 20 000 draws per sampler, and criterion 9 and
test_game play 10 000 + 10 301 games.  Per 100 operations that is 72 real
draws, 24 hybrid draws and 4 games; they take about 60 % of the suite's
wall clock, the games about 8 % of that.
A closed loop with one client plays rounds until the time is up.

Checks, outside the timed region:
  agreement  every real and every hybrid draw must decrypt to the scene's
             plaintext, so the two routes agree;
  chain      each round encrypts under epoch 0, updates through CHAIN_HOPS
             tokens and must decrypt to the plaintext;
  verdict    every game must end with the trivial-win flag set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import frue
from frue import hybrids

from common import Meter, Outcome, latency_metrics, timed_setups
from tracer import traced_outcome

PARAMS = "toy-16"
SCENES = 15
REAL_DRAWS = 72
HYB_DRAWS = 24
GAMES = 4
CHAIN_HOPS = 4
TRACE_ROUNDS = 4


@dataclass
class Scene:
    inst: object
    key_next: object
    real: object
    hyb: object
    A: object


@dataclass
class Tally:
    draws: int = 0
    disagree: int = 0
    games: int = 0
    no_trivial_win: int = 0
    chains: int = 0
    chain_fail: int = 0
    pending: list = field(default_factory=list)     # (scene, draw) not yet checked
    played: list = field(default_factory=list)      # games not yet checked
    rounds: list = field(default_factory=list)      # rounds whose chain is not yet checked


def build(seed: int, i: int) -> Scene:
    p = frue.load_paramset(PARAMS)
    inst = hybrids.make_update_instance(p, f"perfbench:oracle:{seed}:{i}".encode())
    rng = frue.RngHandle(f"perfbench:oracle:{seed}:{i}:draws")
    _, A = frue.pke_setup(rng.derive("game"), p)
    return Scene(inst=inst,
                 key_next=frue.EpochKey(epoch=1, sk_S=inst.sk_next, pk_B=inst.pk_next),
                 real=hybrids.real_update_sampler(inst, rng.derive("real")),
                 hyb=hybrids.hyb_update_sampler(inst, rng.derive("hyb")),
                 A=A)


def adversary(played: list):
    """Criterion 9's adversary; appends each game it plays to `played`."""
    def play(game) -> int:
        played.append(game)
        m1 = frue.random_message_bits(game.rng, game.p)
        c1 = game.o_enc(m1)
        game.o_next()
        game.o_chall(frue.random_message_bits(game.rng, game.p), c1)
        game.o_corr("key", game.e)
        return 0
    return play


def chain_decrypts(p, seed: int, r: int) -> bool:
    rng = frue.RngHandle(f"perfbench:oracle:{seed}:chain:{r}")
    _, A = frue.pke_setup(rng, p)
    keys = [frue.ue_kg(rng, p, A, e) for e in range(CHAIN_HOPS + 1)]
    m = frue.random_message_bits(rng, p)
    ct = frue.ue_enc(rng, p, A, keys[0], m)
    for e in range(1, CHAIN_HOPS + 1):
        tok = frue.ue_tg(rng, p, A, keys[e - 1].sk_S, keys[e].pk_B, e)
        ct = frue.ue_upd(rng, p, tok, ct)
    return bool(np.array_equal(frue.ue_dec(p, keys[-1], ct), m))


def play_round(scenes, seed: int, r: int, tally: Tally, meter: Meter | None = None) -> None:
    """Draws and games; their outputs wait in `tally` for settle().

    With a meter, each draw and game is recorded and the round closes a
    calibration slice.
    """
    times = []
    p = frue.load_paramset(PARAMS)
    sc = scenes[r % len(scenes)]
    per_hyb = REAL_DRAWS // HYB_DRAWS
    for i in range(REAL_DRAWS + HYB_DRAWS):
        sampler = sc.hyb if i % (per_hyb + 1) == per_hyb else sc.real
        t0 = time.perf_counter()
        ct = sampler()
        times.append(("draw", time.perf_counter() - t0))
        tally.pending.append((sc, ct))
    for j in range(GAMES):
        rng = frue.RngHandle(f"perfbench:oracle:{seed}:game:{r}:{j}")
        t0 = time.perf_counter()
        frue.run_experiment(adversary(tally.played), j % 2, rng, p, A=sc.A)
        times.append(("game", time.perf_counter() - t0))
    tally.rounds.append(r)
    if meter:
        for kind, seconds in times:
            meter.add(kind, seconds)
        meter.calibrate()


def settle(tally: Tally, seed: int) -> None:
    """Run the checks on everything played since the last call."""
    p = frue.load_paramset(PARAMS)
    for sc, ct in tally.pending:
        tally.draws += 1
        tally.disagree += not np.array_equal(frue.ue_dec(p, sc.key_next, ct), sc.inst.m)
    tally.games += len(tally.played)
    tally.no_trivial_win += sum(g.twf != 1 for g in tally.played)
    for r in tally.rounds:
        tally.chains += 1
        tally.chain_fail += not chain_decrypts(p, seed, r)
    tally.pending, tally.played, tally.rounds = [], [], []


def judge(out: Outcome, tally: Tally, seed: int) -> None:
    """Every check here holds on a correct program; any miss is a failure."""
    settle(tally, seed)
    out.attempted = tally.draws + tally.games + tally.chains
    out.failed = tally.disagree + tally.no_trivial_win + tally.chain_fail
    if out.failed:
        out.problems.append(f"{out.failed} oracle checks failed")
    out.name("oracle.fail_ratio", (tally.disagree + tally.chain_fail)
             / (tally.draws + tally.chains), "ratio",
             f"{tally.disagree}/{tally.draws} draws not decrypting to the plaintext, "
             f"{tally.chain_fail}/{tally.chains} {CHAIN_HOPS}-hop chains not decrypting, "
             f"{tally.no_trivial_win}/{tally.games} games without the trivial-win flag")


def run(seed: int, seconds: float) -> Outcome:
    meter = Meter("interp")
    scenes = timed_setups(lambda i: build(seed, i), SCENES, meter)
    play_round(scenes, seed, -1, Tally())           # warm-up
    tally = Tally()
    deadline = time.perf_counter() + seconds
    r = 0
    while time.perf_counter() < deadline:
        play_round(scenes, seed, r, tally, meter)
        settle(tally, seed)
        r += 1
    out = Outcome()
    latency_metrics(out, meter, ("draw", "game"))
    draws, games = meter.seconds("draw", scaled=False), meter.seconds("game", scaled=False)
    out.name("oracle.draws_per_s", len(draws) / sum(draws), "1/s",
             f"{len(draws)} draws, {REAL_DRAWS}:{HYB_DRAWS} real:hybrid")
    out.name("oracle.games_per_s", len(games) / sum(games), "1/s", f"{len(games)} games")
    judge(out, tally, seed)
    return out


def trace(seed: int) -> Outcome:
    """TRACE_ROUNDS rounds, untraced and traced."""
    scenes = [build(seed, i) for i in range(SCENES)]

    def work():
        tally = Tally()
        for r in range(TRACE_ROUNDS):
            play_round(scenes, seed, r, tally)
        return tally

    out, tally = traced_outcome(work)
    judge(out, tally, seed)
    return out
