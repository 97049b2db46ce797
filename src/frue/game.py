"""Security experiment machinery: oracles, leakage bookkeeping, closures.

A SecurityGame holds the full oracle state for one experiment run: epoch
keys and tokens, the query log L, the challenge ciphertext, the challenge
plaintexts used for trivial-win detection on decryption, and the leakage
sets K / T / C.

The starred closures model what an adversary can infer beyond what it
corrupted directly, in the backward-leak setting: a future key plus the
token between them reveals the past key; two adjacent known keys reveal the
token; a known challenge ciphertext plus known tokens lets it ride forward
(and, for bi-directional ciphertext updates, backward) through epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrix import DimensionMismatchError, MatrixZq, RngHandle
from .params import ParamSet
from .pke import as_bits, bytes_from_bits, pke_setup
from .ue import (EpochKey, EpochMismatchError, UeCiphertext, UpdateToken,
                 ue_dec, ue_enc, ue_kg, ue_tg, ue_upd)


@dataclass
class LeakageSets:
    K: set[int] = field(default_factory=set)    # corrupted epoch keys
    T: set[int] = field(default_factory=set)    # corrupted tokens
    C: set[int] = field(default_factory=set)    # challenge-equal epochs seen
    l: int = 0                                  # highest epoch index reached


class SecurityGame:
    """One experiment instance; single-threaded by contract.

    The paper's L is `L`: each honest ciphertext, at its own epoch, maps to
    its query id and plaintext bytes.  Its L~ is `chall_ct` (the current
    version) with `leakage.C` (the epochs it has reached); the challenge
    has been issued iff `chall_ct` is set, and from then on the current
    epoch is in `leakage.C`.  Its Q~* is `_chall_msgs` at every epoch of
    `leakage.C`, so a decryption is checked against `_chall_msgs` alone.
    The current epoch `e` is `leakage.l`, which only `o_next` advances.
    An oracle answers None where the paper answers bottom, and None always
    means refused: the call changed nothing.  The game keeps no log beside
    `L`, `chall_ct` and `leakage`.
    """

    def __init__(self, rng: RngHandle, p: ParamSet, A: MatrixZq, b: int):
        if b not in (0, 1):
            raise ValueError("challenge bit must be 0 or 1")
        self.rng = rng
        self.p = p
        self.A = A
        self.b = b
        self.keys: dict[int, EpochKey] = {0: ue_kg(rng, p, A, 0)}
        self.tokens: dict[int, UpdateToken] = {}      # no token into epoch 0
        self.qid = 0
        self.twf = 0
        self.chall_ct: UeCiphertext | None = None
        self._chall_msgs: tuple[bytes, ...] = ()
        self.L: dict[UeCiphertext, tuple[int, bytes]] = {}
        self.leakage = LeakageSets()

    @property
    def e(self) -> int:
        return self.leakage.l

    # -- oracles ---------------------------------------------------------

    def o_enc(self, m) -> UeCiphertext:
        ct = ue_enc(self.rng, self.p, self.A, self.keys[self.e], m)
        self.qid += 1
        self.L[ct] = (self.qid, bytes_from_bits(m))
        return ct

    def o_dec(self, ct: UeCiphertext):
        """Decrypt under the current key.  A challenge plaintext coming back
        flags a trivial win, so run_experiment answers with a coin."""
        if not isinstance(ct, UeCiphertext):
            return None
        try:
            m = ue_dec(self.p, self.keys[self.e], ct)
        except (EpochMismatchError, DimensionMismatchError):
            return None
        if bytes_from_bits(m) in self._chall_msgs:
            self.twf = 1
        return m

    def o_next(self) -> None:
        self.leakage.l += 1
        self.keys[self.e] = ue_kg(self.rng, self.p, self.A, self.e)
        self.tokens[self.e] = ue_tg(self.rng, self.p, self.A,
                                    self.keys[self.e - 1].sk_S,
                                    self.keys[self.e].pk_B, self.e)
        if self.chall_ct is not None:
            self.chall_ct = ue_upd(self.rng, self.p, self.tokens[self.e], self.chall_ct)
            self.leakage.C.add(self.e)

    def o_upd(self, ct_prev: UeCiphertext):
        rec = self.L.get(ct_prev)
        if rec is None or ct_prev.epoch != self.e - 1:
            return None
        ct = ue_upd(self.rng, self.p, self.tokens[self.e], ct_prev)
        self.L[ct] = rec
        return ct

    def o_corr(self, inp: str, e_hat: int):
        if inp not in ("key", "token"):
            raise ValueError("inp must be 'key' or 'token'")
        if not (inp == "token") <= e_hat <= self.e:     # no token enters epoch 0
            return None
        if inp == "key":
            self.leakage.K.add(e_hat)
            return self.keys[e_hat]
        self.leakage.T.add(e_hat)
        return self.tokens[e_hat]

    def o_chall(self, m_bar, ct_bar: UeCiphertext):
        """Issue the one challenge: fresh encryption of m_bar (b = 0) or an
        update of the recorded ciphertext ct_bar (b = 1).  A malformed m_bar
        raises MessageLengthError at either b and changes nothing."""
        rec = self.L.get(ct_bar)
        if self.chall_ct is not None or rec is None or ct_bar.epoch != self.e - 1:
            return None
        m_bar = as_bits(m_bar, self.p.ell)
        if self.b == 0:
            self.chall_ct = ue_enc(self.rng, self.p, self.A, self.keys[self.e], m_bar)
        else:
            self.chall_ct = ue_upd(self.rng, self.p, self.tokens[self.e], ct_bar)
        self._chall_msgs = (bytes_from_bits(m_bar), rec[1])
        self.leakage.C.add(self.e)
        return self.chall_ct

    def o_upd_ct(self):
        return self.chall_ct


def gs_setup(rng: RngHandle, p: ParamSet, A: MatrixZq, b: int = 0) -> SecurityGame:
    return SecurityGame(rng, p, A, b)


# -- starred leakage closures ---------------------------------------------

def kstar_op_uni(ls: LeakageSets) -> set[int]:
    """Known keys under backward-leak inference, by a right-to-left sweep:
    epoch e is known iff e was corrupted, or e+1 is known and token e+1 is."""
    known: set[int] = set()
    for e in range(ls.l, -1, -1):
        if e in ls.K or ((e + 1) in known and (e + 1) in ls.T):
            known.add(e)
    return known


def tstar_op_uni(ls: LeakageSets, kstar: set[int]) -> set[int]:
    """Known tokens: corrupted, or wedged between two known keys."""
    return {e for e in range(ls.l + 1)
            if e in ls.T or (e in kstar and (e - 1) in kstar)}


def cstar(ls: LeakageSets, tstar: set[int], cc: str = "uni") -> set[int]:
    """Challenge-equal epochs reachable through known tokens, by a
    left-to-right sweep and, for bi, then a right-to-left one.

    uni: a known version at e-1 plus token e rides forward to e.
    bi:  additionally, a known version at e+1 plus token e+1 rides back to e.
    """
    if cc not in ("uni", "bi"):
        raise ValueError("cc must be 'uni' or 'bi'")
    known = set(ls.C)
    for e in range(ls.l + 1):
        if (e - 1) in known and e in tstar:
            known.add(e)
    if cc == "bi":
        for e in range(ls.l, -1, -1):
            if (e + 1) in known and (e + 1) in tstar:
                known.add(e)
    return known


def starred_sets(ls: LeakageSets) -> tuple[set[int], set[int], set[int]]:
    """(K*, T*, C*): every key, token and challenge-equal epoch the adversary
    knows or can infer from ls, for uni-directional ciphertext updates."""
    ks = kstar_op_uni(ls)
    ts = tstar_op_uni(ls, ks)
    return ks, ts, cstar(ls, ts, cc="uni")


def run_experiment(adversary, b: int, rng: RngHandle, p: ParamSet,
                   A: MatrixZq | None = None) -> int:
    """Drive one experiment: Setup, adversary against the oracles, verdict.

    The adversary is any callable taking the game and returning a bit.  If
    the final leakage admits a trivial win (a known key at a challenge-equal
    epoch), the adversary's answer is replaced by a fresh uniform bit.
    """
    if A is None:
        _, A = pke_setup(rng, p)
    game = gs_setup(rng, p, A, b)
    b_prime = int(adversary(game))
    ks, _, cs = starred_sets(game.leakage)
    if ks & cs:
        game.twf = 1
    if game.twf == 1:
        b_prime = game.rng.bit()
    return b_prime
