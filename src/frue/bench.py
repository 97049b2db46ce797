"""Timing harness for the five scheme operations across parameter levels.

Only the library calls are timed (no I/O), on the monotonic clock, with one
discarded warm-up call per operation.  Reports the per-operation mean and
sample standard deviation; a single run reports a standard deviation of 0.

BLAS runs on one thread while a level is set up and timed (where the BLAS
library lets itself be told so at run time).  A multithreaded GEMM hands part
of every product to a second core.  When that core has been idle, as on a
small or shared virtual machine, each hand-off can wait for the core to be
scheduled: short products such as those of KG and Enc then take 8-16 ms
instead of 0.5 ms for as long as the core stays cold.  OpenBLAS's helper
threads also busy-wait for a while after a product, which shows as 4 ms
stalls in the next timed calls.  With one thread each timing holds the
call's own work only.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import statistics
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .matrix import MatrixZq, RngHandle
from .params import ParamSet, paramset_for
from .pke import pke_setup, random_message_bits
from .ue import ue_dec, ue_enc, ue_kg, ue_tg, ue_upd


@dataclass(frozen=True)
class BenchResult:
    level: str
    mode: str
    op: str
    runs: int
    mean_s: float
    std_s: float


# OpenBLAS thread-control entry points, by build: numpy >= 2 wheels,
# numpy 1.x wheels, system OpenBLAS
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@contextlib.contextmanager
def _single_blas_thread():
    """Run BLAS on one thread inside the block, if numpy links an OpenBLAS
    that exposes its thread-count calls; other BLAS builds are left alone."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        lib = None                  # has none of the calls
    names = next((pair for pair in _OPENBLAS_THREAD_CALLS
                  if all(hasattr(lib, name) for name in pair)), None)
    if names is None:
        yield
        return
    get_threads, set_threads = (getattr(lib, name) for name in names)
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _time_op(fn, runs: int) -> tuple[float, float]:
    fn()  # warm-up, discarded
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    mean = statistics.fmean(samples)
    std = statistics.stdev(samples) if runs > 1 else 0.0
    return mean, std


@_single_blas_thread()
def bench_level(p: ParamSet, runs: int) -> list[BenchResult]:
    rng = RngHandle(b"frue-bench")
    _, A = pke_setup(rng, p)
    k0 = ue_kg(rng, p, A, 0)
    k1 = ue_kg(rng, p, A, 1)
    tok = ue_tg(rng, p, A, k0.sk_S, k1.pk_B, 1)
    m = random_message_bits(rng, p)
    ct = ue_enc(rng, p, A, k0, m)
    # a storage side decomposes each ciphertext it updates, so each call of
    # UE.Upd (the warm-up and `runs` timed) gets a C1 that ord_bits has not seen
    fresh = iter([replace(ct, C1=MatrixZq(ct.C1.data, p.D)) for _ in range(runs + 1)])

    ops = {
        "UE.KG": lambda: ue_kg(rng, p, A, 0),
        "UE.Enc": lambda: ue_enc(rng, p, A, k0, m),
        "UE.Dec": lambda: ue_dec(p, k0, ct),
        "UE.TG": lambda: ue_tg(rng, p, A, k0.sk_S, k1.pk_B, 1),
        "UE.Upd": lambda: ue_upd(rng, p, tok, next(fresh)),
    }
    out = []
    for op, fn in ops.items():
        mean, std = _time_op(fn, runs)
        out.append(BenchResult(str(p.n), p.gen_mode, op, runs, mean, std))
    return out


def run_benchmarks(levels, modes, runs: int) -> list[BenchResult]:
    """Time each distinct (level, mode) once, in first-seen order.  Every
    target is resolved before the first is timed, so a bad one fails fast."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    targets = dict.fromkeys(paramset_for(level, mode) for level in levels for mode in modes)
    return [r for p in targets for r in bench_level(p, runs)]


def to_csv(results: list[BenchResult]) -> str:
    lines = [",".join(f.name for f in fields(BenchResult))]
    for r in results:
        lines.append(f"{r.level},{r.mode},{r.op},{r.runs},{r.mean_s:.6f},{r.std_s:.6f}")
    return "\n".join(lines) + "\n"


def format_table(results: list[BenchResult]) -> str:
    """One block per run of same-(level, mode) results, as run_benchmarks groups them."""
    blocks = []
    for (level, mode), group in itertools.groupby(results, lambda r: (r.level, r.mode)):
        rows = list(group)
        blocks.append(f"frodo-{level} ({mode}), {rows[0].runs} runs")
        blocks.append(f"  {'operation':<8} {'mean [s]':>12} {'std [s]':>12}")
        for r in rows:
            blocks.append(f"  {r.op:<8} {r.mean_s:>12.6f} {r.std_s:>12.6f}")
        blocks.append("")
    return "\n".join(blocks)
