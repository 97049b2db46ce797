"""rotate-640: the storage side rotating ciphertexts on frodo-640-shake.

Set-up builds DEPLOYMENTS independent deployments, each with a chain of
CHAIN tokens and a corpus of CORPUS ciphertexts, all held as envelope bytes
the way a store would hold them.  One hop parses the token once, then for
every ciphertext of the corpus does read_envelope -> ue_upd ->
pack_ciphertext; the next hop of the chain takes the previous hop's output.
A closed loop with one client walks the deployments' chains until the time
is up.

Working set: a token is 13.3 MB of uint16 words; ue_upd converts its d1_a
(9600 x 640) to float64 on every call, about 49 MB.  The host's last-level
cache is 300 MiB and shared, L2 is 4 MiB per core.

Checks, outside the timed region:
  exact      a sample of rotations is recomputed in int64 from the input
             ciphertext, the token and R redrawn with sample_chi from the
             same seed, and compared bit for bit;
  roundtrip  every rotated ciphertext is decrypted with the target epoch's
             key and compared with the plaintext.  frodo-640 is known to fail
             this (the update noise exceeds the decoding margin), and the
             failures are reported as measured.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

import frue
from frue import envelope as env

from common import Meter, Outcome, latency_metrics, tail, timed_setups
from tracer import traced_outcome

PARAMS = "frodo-640-shake"
DEPLOYMENTS = 3
CHAIN = 2
CORPUS = 32
EXACT_SAMPLES = 16
WARMUP_ROTATIONS = 4


@dataclass
class Deployment:
    keys: list            # EpochKey for epochs 0..CHAIN
    tokens: list[bytes]   # token envelopes into epochs 1..CHAIN
    corpus: list[bytes]   # ciphertext envelopes at epoch 0
    messages: list        # plaintext bits of each corpus entry


@dataclass
class Rotation:
    dep: int
    epoch: int            # target epoch
    index: int            # corpus position
    src: bytes
    out: bytes
    rseed: bytes


def build(seed: int, d: int) -> Deployment:
    p = frue.load_paramset(PARAMS)
    rng = frue.RngHandle(f"perfbench:rotate:{seed}:{d}")
    _, A = frue.pke_setup(rng, p)
    keys = [frue.ue_kg(rng, p, A, e) for e in range(CHAIN + 1)]
    tokens = [env.pack_token(p, frue.ue_tg(rng, p, A, keys[e - 1].sk_S, keys[e].pk_B, e))
              for e in range(1, CHAIN + 1)]
    messages = [frue.random_message_bits(rng, p) for _ in range(CORPUS)]
    corpus = [env.pack_ciphertext(p, frue.ue_enc(rng, p, A, keys[0], m)) for m in messages]
    return Deployment(keys, tokens, corpus, messages)


def hop(deps, d: int, epoch: int, cts: list[bytes], seed: int, seq: int,
        meter: Meter | None = None) -> list[Rotation]:
    """Rotate `cts` of deployment d into `epoch`.

    With a meter, the token parse and each rotation are recorded, and each
    rotation closes a calibration slice.
    """
    t0 = time.perf_counter()
    tok_env = env.read_envelope(deps[d].tokens[epoch - 1])
    if meter:
        meter.add("parse", time.perf_counter() - t0)
    p, tok = tok_env.p, tok_env.payload
    out = []
    for i, src in enumerate(cts):
        rseed = b"perfbench:rotate:upd:%d:%d" % (seed, seq + i)
        rng = frue.RngHandle(rseed)
        t0 = time.perf_counter()
        ct = env.read_envelope(src).payload
        dst = env.pack_ciphertext(p, frue.ue_upd(rng, p, tok, ct))
        out.append(Rotation(d, epoch, i, src, dst, rseed))
        if meter:
            meter.add("ct", time.perf_counter() - t0)
            meter.calibrate()
    return out


def expected_update(p, tok, ct, R) -> tuple[np.ndarray, np.ndarray]:
    """The ue_upd formula recomputed in int64, with O @ X as row selection:
    C1' = O d1_a + R d2_a,  C2' = C2 + O d1_b + R d2_b  (mod q), where row i
    of O marks bit k of C1[i, j] at column k*n + j."""
    c1 = ct.C1.data.astype(np.int64)
    O = ((c1[:, None, :] >> np.arange(p.D)[None, :, None]) & 1).reshape(p.m_bar, -1) == 1
    r = R.data.astype(np.int64)
    o_d1a = np.stack([tok.d1_a.data[row].sum(axis=0, dtype=np.int64) for row in O])
    o_d1b = np.stack([tok.d1_b.data[row].sum(axis=0, dtype=np.int64) for row in O])
    mask = p.q - 1
    c1_new = (o_d1a + r @ tok.d2_a.data.astype(np.int64)) & mask
    c2_new = (ct.C2.data.astype(np.int64) + o_d1b + r @ tok.d2_b.data.astype(np.int64)) & mask
    return c1_new, c2_new


def check(deps, rotations: list[Rotation]) -> tuple[int, set[int], set[int]]:
    """Returns (exact checks made, positions failing exact, positions failing roundtrip)."""
    p = frue.load_paramset(PARAMS)
    stride = max(1, len(rotations) // EXACT_SAMPLES)
    tokens = {}
    exact_fail = set()
    sample = range(0, len(rotations), stride)[:EXACT_SAMPLES]
    for pos in sample:
        rot = rotations[pos]
        key = (rot.dep, rot.epoch)
        if key not in tokens:
            tokens[key] = env.read_envelope(deps[rot.dep].tokens[rot.epoch - 1]).payload
        src = env.read_envelope(rot.src).payload
        got = env.read_envelope(rot.out).payload
        R = frue.sample_chi(frue.RngHandle(rot.rseed), p.m_bar, p.n, p)
        c1, c2 = expected_update(p, tokens[key], src, R)
        if not (got.epoch == rot.epoch and np.array_equal(got.C1.data, c1)
                and np.array_equal(got.C2.data, c2)):
            exact_fail.add(pos)
    roundtrip_fail = set()
    for pos, rot in enumerate(rotations):
        dep = deps[rot.dep]
        bits = frue.ue_dec(p, dep.keys[rot.epoch], env.read_envelope(rot.out).payload)
        if not np.array_equal(bits, dep.messages[rot.index]):
            roundtrip_fail.add(pos)
    return len(sample), exact_fail, roundtrip_fail


def judge(out: Outcome, deps, rotations: list[Rotation]) -> None:
    """Record attempted, failed and problems, and the check ratios by name.

    A rotation that is not bit-exact means the program computed something
    other than the update it specifies, so the run is not correct.  A
    rotation that is exact but does not decrypt is the scheme failing on
    this parameter set: it counts as failed, without hiding the rest.
    """
    n_exact, exact_fail, roundtrip_fail = check(deps, rotations)
    n = len(rotations)
    if exact_fail:
        out.problems.append(f"{len(exact_fail)} rotations differ from the int64 recomputation")
    out.attempted = n
    out.failed = len(exact_fail | roundtrip_fail)
    out.name("rotate.exact_fail_ratio", len(exact_fail) / n_exact, "ratio",
             f"{len(exact_fail)}/{n_exact} sampled rotations differ from the int64 recomputation")
    out.name("rotate.roundtrip_fail_ratio", len(roundtrip_fail) / n, "ratio",
             f"{len(roundtrip_fail)}/{n} rotated ciphertexts do not decrypt to their plaintext")


def walk(deps, seed: int, meter: Meter, more) -> list[Rotation]:
    """Closed loop over every deployment's chain while `more()` holds."""
    rotations = []
    d = 0
    while True:
        cts = deps[d].corpus
        for epoch in range(1, CHAIN + 1):
            rots = hop(deps, d, epoch, cts, seed, len(rotations), meter)
            rotations += rots
            cts = [r.out for r in rots]
            if not more():
                return rotations
        d = (d + 1) % len(deps)


def run(seed: int, seconds: float) -> Outcome:
    meter = Meter("blas", "interp")
    deps = timed_setups(lambda d: build(seed, d), DEPLOYMENTS, meter)
    hop(deps, 0, 1, deps[0].corpus[:WARMUP_ROTATIONS], seed, -WARMUP_ROTATIONS)
    deadline = time.perf_counter() + seconds
    rotations = walk(deps, seed, meter, lambda: time.perf_counter() < deadline)
    out = Outcome()
    latency_metrics(out, meter, ("ct",), ("parse",))
    lat, parses = meter.seconds("ct", scaled=False), meter.seconds("parse", scaled=False)
    n = len(lat)
    tail_s, tail_rank = tail(lat)
    out.name("rotate.ct_per_s", n / (sum(lat) + sum(parses)), "1/s",
             f"{n} ciphertexts; {len(parses)} token parses counted in the time")
    out.name("rotate.ct_p50_ms", 1e3 * statistics.median(lat), "ms")
    out.name("rotate.ct_tail_ms", 1e3 * tail_s, "ms", f"p{tail_rank:.2f} of {n} samples")
    out.name("rotate.token_parse_ms", 1e3 * statistics.median(parses), "ms",
             f"median of {len(parses)} parses of {len(deps[0].tokens[0])} B")
    judge(out, deps, rotations)
    return out


def trace(seed: int) -> Outcome:
    """One hop of the whole corpus, untraced and traced."""
    deps = [build(seed, 0)]

    def work():
        return hop(deps, 0, 1, deps[0].corpus, seed, 0)

    out, rotations = traced_outcome(work)
    judge(out, deps, rotations)
    return out
