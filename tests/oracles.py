"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithmic shapes than the production code
(fixpoint iteration and graph reachability instead of directional sweeps,
rational arithmetic instead of bit tricks, binary search instead of a lookup
table) so that a bug in one route cannot hide in the other.
"""

import hashlib

import numpy as np


def dc_reference(c, D, B):
    """Round-half-up decode of a single entry: round(c * 2**B / q) mod 2**B."""
    q = 1 << D
    return ((2 * c * 2**B + q) // (2 * q)) % 2**B


def kstar_brute(K, T, l):
    """Iterate-until-fixpoint closure of: future key + its token leak the past key."""
    known = set(K)
    changed = True
    while changed:
        changed = False
        for e in range(l + 1):
            if e not in known and (e + 1) in known and (e + 1) in T:
                known.add(e)
                changed = True
    return known


def tstar_brute(T, kstar, l):
    inferred = {e for e in range(1, l + 1) if e in kstar and e - 1 in kstar}
    return (set(T) | inferred) & set(range(l + 1))


def cstar_brute(C, tstar, l, cc):
    """Graph reachability over token edges (forward; both ways when cc=bi)."""
    edges = {e: [] for e in range(l + 1)}
    for e in range(l):
        if (e + 1) in tstar:
            edges[e].append(e + 1)
            if cc == "bi":
                edges[e + 1].append(e)
    seen, frontier = set(C), list(C)
    while frontier:
        for nxt in edges.get(frontier.pop(), []):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def chi_reference(seed, sizes, p):
    """Signed chi draws of the given sizes from a fresh RngHandle(seed), one
    after the other, rebuilt from the raw Philox stream.

    The key is the first 16 bytes of SHA-256(b"frue-rng:" + seed), read as
    two little-endian 64-bit words.  Word 4i + j of the stream is
    (raw[i] >> 16*j) & 0xFFFF; each draw of w words starts at the next unused
    output and leaves the rest of its last output unread.  A word, masked to
    chi_sample_bits + 1 bits, is a sign bit (low) over u, and the magnitude
    is found by binary search (np.searchsorted) of u in chi_cdf.
    """
    key = np.frombuffer(hashlib.sha256(b"frue-rng:" + seed).digest()[:16], dtype="<u8")
    outputs = [-(-w // 4) for w in sizes]
    raw = np.random.Philox(key=key).random_raw(sum(outputs))
    lanes = np.stack([(raw >> np.uint64(16 * j)) & np.uint64(0xFFFF) for j in range(4)], axis=1)
    draws, start = [], 0
    for w, k in zip(sizes, outputs):
        r = lanes[start:start + k].ravel()[:w].astype(np.int64) % (2 << p.chi_sample_bits)
        magnitude = np.searchsorted(p.chi_cdf, r >> 1, side="left")
        draws.append(np.where(r & 1, -magnitude, magnitude))
        start += k
    return draws
