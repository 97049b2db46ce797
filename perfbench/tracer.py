"""Span tracer for the traced benchmark pass.

Inside `Tracer.patched()` every layer function listed in LAYERS is replaced by
a wrapper under each name a `frue` module binds it to (for example
`frue.ue.sample_chi`, `frue.pke.sample_chi` and `frue.hybrids.sample_chi` all
point at one wrapper of `frue.matrix.sample_chi`), and the listed methods are
replaced on their class.  Leaving the block restores the originals, so the
untraced passes run the program exactly as shipped.

Each wrapped call records a span (name, parent span, start, end) in memory.
A layer's self time is the sum of its spans' durations minus the time
covered by their direct child spans.  Counters (calls, multiply-adds,
chi words drawn, envelope bytes) are exact: they depend only on the work
done, never on timing, so two passes over the same inputs must agree.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from common import Outcome


# A layer's exact counter: (name, unit, value of one call from its args and result).
MADDS = ("madds", "count", lambda args, result: args[0].rows * args[0].cols * args[1].cols)
WORDS = ("words", "count", lambda args, result: result.data.size)
BYTES_IN = ("bytes", "B", lambda args, result: len(args[0]))
BYTES_OUT = ("bytes", "B", lambda args, result: len(result))

# (metric prefix, defining module, class or None, attributes, counter or None)
LAYERS = (
    ("matrix.matmul", "frue.matrix", "MatrixZq", ("__matmul__",), MADDS),
    ("matrix.sample_chi", "frue.matrix", None, ("sample_chi",), WORDS),
    ("matrix.gen_public_matrix", "frue.matrix", None, ("gen_public_matrix",), None),
    ("ue.ue_upd", "frue.ue", None, ("ue_upd",), None),
    ("ue.ord_bits", "frue.ue", None, ("ord_bits",), None),
    ("ue.ue_tg", "frue.ue", None, ("ue_tg",), None),
    ("ue.ue_kg", "frue.ue", None, ("ue_kg",), None),
    ("ue.tensor_d", "frue.ue", None, ("tensor_d",), None),
    ("pke.pke_enc_traced", "frue.pke", None, ("pke_enc_traced",), None),
    ("pke.pke_dec", "frue.pke", None, ("pke_dec",), None),
    ("envelope.read_envelope", "frue.envelope", None, ("read_envelope",), BYTES_IN),
    ("envelope.pack", "frue.envelope", None,
     ("pack_paramset", "pack_epoch_key", "pack_public_key", "pack_token",
      "pack_ciphertext"), BYTES_OUT),
    ("hybrids.sample_token_randomness", "frue.hybrids", None,
     ("sample_token_randomness",), None),
    ("hybrids.token_from_randomness", "frue.hybrids", None,
     ("token_from_randomness",), None),
    ("hybrids.hyb_ue_upd", "frue.hybrids", None, ("hyb_ue_upd",), None),
    ("game.run_experiment", "frue.game", None, ("run_experiment",), None),
    ("game.oracles", "frue.game", "SecurityGame",
     ("o_enc", "o_dec", "o_next", "o_upd", "o_corr", "o_chall", "o_upd_ct"), None),
    ("game.closures", "frue.game", None, ("kstar_op_uni", "tstar_op_uni", "cstar"), None),
)


class Tracer:
    """Collects spans and exact counters; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []         # [name, parent, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                key, _, value = counter
                self.counts[f"{name}.{key}"] += value(args, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Install the layer wrappers for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "frue" or n.startswith("frue.")) and m is not None]
        saved = []
        try:
            for name, home, cls_name, attrs, counter in LAYERS:
                owner = sys.modules[home]
                if cls_name is not None:
                    cls = getattr(owner, cls_name)
                    for attr in attrs:
                        original = cls.__dict__[attr]
                        saved.append((cls, attr, original))
                        setattr(cls, attr, self.wrap(name, original, counter))
                    continue
                for attr in attrs:
                    original = getattr(owner, attr)
                    wrapper = self.wrap(name, original, counter)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                saved.append((mod, key, original))
                                setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child_s[sid]
        return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """calls, self_s and the layer's counter for every entry of LAYERS."""
    self_s = tracer.self_seconds()
    out = {}
    for name, *_, counter in LAYERS:
        out[f"{name}.calls"] = (tracer.counts.get(f"{name}.calls", 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        if counter is not None:
            key, unit, _ = counter
            out[f"{name}.{key}"] = (tracer.counts.get(f"{name}.{key}", 0), unit)
    return out


def traced_outcome(work) -> tuple[Outcome, object]:
    """Run `work` untraced, then traced twice, on the same inputs.

    `work()` does a fixed amount of work and returns what the workload's
    checks need; it runs with the layer wrappers installed in the traced
    passes only.  One untimed warm-up call
    comes first so that lazy set-up and allocator growth are not charged to
    the untraced pass.  Returns an Outcome holding the per-layer metrics of
    the first traced pass and the tracing overhead, and the untraced pass's
    result.  The two traced passes must count exactly the same work.
    """
    work()
    t0 = time.perf_counter()
    result = work()
    plain_s = time.perf_counter() - t0
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.patched():
            t0 = time.perf_counter()
            work()
            tracers.append((tracer, time.perf_counter() - t0))
    (first, traced_s), (second, _) = tracers
    out = Outcome(metrics=layer_metrics(first))
    out.metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    out.metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
    if dict(first.counts) != dict(second.counts):
        out.problems.append("two traced passes over the same inputs counted different work")
    return out, result
