"""Shared pieces of the benchmark: the result record, the host-speed meter
and latency statistics."""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The checkout the benchmark runs in: the program is built from ROOT/src.
ROOT = Path(__file__).resolve().parent.parent

@dataclass
class Outcome:
    """What one workload run reports.

    `metrics` maps a metric name to (value, unit) and is what the last output
    line carries; `named` holds the workload's own metrics and notes, which
    are printed by name before it.  `problems` lists every output check that
    found the program computing something other than what it specifies.
    """
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    named: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def name(self, metric: str, value, unit: str, note: str = "") -> None:
        line = f"metric {metric} {value!r} {unit}"
        self.named.append(f"{line} ({note})" if note else line)


class Meter:
    """Records timed operations and scales them by the host's speed.

    The host is shared, and its speed drifts by tens of percent over seconds
    to minutes as other tenants come and go.  So after each slice of measured
    work the meter times a fixed calibration kernel, and each operation of
    the slice is scaled by the kernel's reference time / its time now.
    Scaled times read as times on the reference host (the 2-core Xeon these
    figures were first taken on, lightly loaded).  The kernels use numpy,
    hashlib and the interpreter only, never frue, so a change to the program
    moves scaled times just as it moves raw ones.

    A kernel tracks a workload only if it stresses the same resources, so
    each workload names the parts it needs:
      blas    a 2400 x 640 uint16 -> float64 conversion and an 8-row GEMM
      interp  small int64 matrix products, dicts and hashing in a loop
      start   a fresh interpreter that imports numpy, in a subprocess
    """

    REFERENCE_S = {"blas": 0.0022, "interp": 0.0012, "start": 0.14}

    def __init__(self, *parts: str):
        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 1 << 15, size=(2400, 640), dtype=np.uint16)
        self._rows = np.ones((8, 2400))
        self._small = np.arange(64, dtype=np.int64).reshape(8, 8)
        self._parts = [getattr(self, "_" + part) for part in parts]
        self._reference_s = sum(self.REFERENCE_S[part] for part in parts)
        self.ops: list[tuple[str, float, int]] = []    # (kind, seconds, slice)
        self.kernel_s: list[float] = []
        self.calibrate()                                # warm-up, discarded
        self.kernel_s.clear()

    def _blas(self) -> None:
        self._rows @ self._words.astype(np.float64)

    def _interp(self) -> None:
        acc = 0
        for i in range(150):
            b = (self._small @ self._small) & 0xFFFF
            acc += int(b[i % 8, 3]) + sum({j: j * i for j in range(8)}.values())
            hashlib.sha256(b.tobytes()).digest()

    def _start(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       capture_output=True, timeout=60)

    def add(self, kind: str, seconds: float) -> None:
        self.ops.append((kind, seconds, len(self.kernel_s)))

    def calibrate(self) -> None:
        """Close the current slice by timing the kernel once."""
        t0 = time.perf_counter()
        for part in self._parts:
            part()
        self.kernel_s.append(time.perf_counter() - t0)

    def seconds(self, *kinds: str, scaled: bool = True) -> list[float]:
        """Times of the operations of the given kinds, in the order recorded.

        Every slice must have been closed by calibrate().
        """
        return [s * self._reference_s / self.kernel_s[i] if scaled else s
                for k, s, i in self.ops if k in kinds]

    def speed(self) -> float:
        return self._reference_s / statistics.median(self.kernel_s)


def timed_setups(build, reps: int, meter: Meter) -> list:
    """Run `build(i)` for i < reps, each timed as one "setup" operation.

    Set-up is repeated so that its time is a median, not one noisy sample.
    """
    results = []
    for i in range(reps):
        t0 = time.perf_counter()
        results.append(build(i))
        meter.add("setup", time.perf_counter() - t0)
        meter.calibrate()
    return results


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with rank 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency_metrics(out: Outcome, meter: Meter, op_kinds: tuple[str, ...],
                    overhead_kinds: tuple[str, ...] = ()) -> None:
    """The end-to-end metrics every workload reports, in its own unit of work.

    Operations of `op_kinds` are the unit of work; the time of
    `overhead_kinds` operations counts against throughput but is no
    operation's latency.  All times are scaled by the host's speed.
    """
    lat = meter.seconds(*op_kinds)
    busy = sum(lat) + sum(meter.seconds(*overhead_kinds))
    out.metrics["setup_s"] = (statistics.median(meter.seconds("setup")), "s")
    out.metrics["ops_per_s"] = (len(lat) / busy, "1/s")
    out.metrics["op_p50_ms"] = (1e3 * statistics.median(lat), "ms")
    out.name("host.speed", meter.speed(), "ratio",
             f"reference kernel time / median of {len(meter.kernel_s)} kernel runs; "
             "the end-to-end metrics are scaled slice by slice, the workload's own are raw")
