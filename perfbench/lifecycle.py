"""lifecycle-cli-640: the key holder's round on frodo-640, step by step.

Each round runs seven `python -m frue.cli` subprocesses, one after the
other: keygen for epochs e and e+1, encrypt, token, update, decrypt of the
fresh ciphertext and decrypt of the rotated one.  Every step pays
interpreter start and import, and every step but decrypt and update expands
the public matrix again; token runs TG and writes a 13.3 MB file that update
reads back.  Each token serves exactly one ciphertext.  A closed loop with
one client runs rounds until the time is up.

Checks: every step but the last must exit 0, and the fresh decrypt must give
back the message.  The rotated decrypt exits 5 on frodo-640 today, because
the update noise exceeds the decoding margin; that is counted as a failed
step and reported, never hidden.  Any other exit code is a wrong result.

The traced passes run the same round in this process through
`frue.cli.main(..., standalone_mode=False)`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import frue
from frue import cli

from common import ROOT, Meter, Outcome, latency_metrics, timed_setups
from tracer import traced_outcome

PARAMS = "frodo-640"
SETUPS = 3
STEP_TIMEOUT_S = 60
KINDS = ("keygen", "encrypt", "token", "update", "decrypt")
TRACE_ROUNDS = 2


@dataclass
class Step:
    kind: str
    argv: list[str]
    seconds: float = 0.0
    code: int | None = None


@dataclass
class Round:
    dir: Path
    message: bytes
    steps: list[Step]
    fresh_out: Path
    rotated_out: Path


@dataclass
class Tally:
    steps: list[Step] = field(default_factory=list)
    rounds: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)


@contextlib.contextmanager
def workspace():
    """A work directory inside the checkout, removed afterwards."""
    ws = ROOT / ".perfbench_work" / str(os.getpid())
    ws.mkdir(parents=True, exist_ok=True)
    try:
        yield ws
    finally:
        shutil.rmtree(ws, ignore_errors=True)
        with contextlib.suppress(OSError):
            ws.parent.rmdir()


def make_round(ws: Path, seed: int, r: int) -> Round:
    """Arguments for round r, in a fresh directory holding only the message."""
    def hexseed(label: str) -> str:
        return hashlib.sha256(f"perfbench:lifecycle:{seed}:{r}:{label}".encode()).hexdigest()[:32]

    capacity = cli.message_capacity(frue.load_paramset(PARAMS))
    message = hashlib.shake_256(hexseed("message").encode()).digest(capacity)
    rdir = ws / f"round{r}"
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir()
    f = {name: str(rdir / name) for name in
         ("msg", "k0", "p0", "k1", "p1", "ct0", "tok", "ct1", "out0", "out1")}
    Path(f["msg"]).write_bytes(message)
    e0, e1 = str(r), str(r + 1)
    deploy = hexseed("deployment")
    steps = [
        Step("keygen", ["keygen", "--params", PARAMS, "--epoch", e0, "--seed", deploy,
                        "--out-key", f["k0"], "--out-pub", f["p0"]]),
        Step("keygen", ["keygen", "--params", PARAMS, "--epoch", e1, "--seed", deploy,
                        "--out-key", f["k1"], "--out-pub", f["p1"]]),
        Step("encrypt", ["encrypt", "--key", f["p0"], "--message-file", f["msg"],
                         "--seed", hexseed("encrypt"), "--out", f["ct0"]]),
        Step("token", ["token", "--prev-key", f["k0"], "--next-pub", f["p1"],
                       "--seed", hexseed("token"), "--out", f["tok"]]),
        Step("update", ["update", "--token", f["tok"], "--ct", f["ct0"],
                        "--seed", hexseed("update"), "--out", f["ct1"]]),
        Step("decrypt", ["decrypt", "--key", f["k0"], "--ct", f["ct0"], "--out", f["out0"]]),
        Step("decrypt", ["decrypt", "--key", f["k1"], "--ct", f["ct1"], "--out", f["out1"]]),
    ]
    return Round(rdir, message, steps, Path(f["out0"]), Path(f["out1"]))


def run_subprocess(step: Step) -> None:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "frue.cli", *step.argv], cwd=ROOT,
                              capture_output=True, timeout=STEP_TIMEOUT_S)
        step.code = proc.returncode
    except subprocess.TimeoutExpired:
        step.code = None
    step.seconds = time.perf_counter() - t0


def run_inproc(step: Step) -> None:
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main(step.argv, standalone_mode=False)
            step.code = 0
        except SystemExit as exc:
            step.code = exc.code if isinstance(exc.code, int) else 1
    step.seconds = time.perf_counter() - t0


def settle(rnd: Round, tally: Tally) -> None:
    """Check one finished round against its expected outcome."""
    def output(path: Path) -> bytes | None:
        return path.read_bytes() if path.is_file() else None

    tally.rounds += 1
    tally.steps += rnd.steps
    *leading, rotated = rnd.steps
    for step in leading:
        if step.code != 0:
            tally.failed += 1
            tally.unexpected.append(f"{step.kind} exited {step.code}")
    if leading[-1].code == 0 and output(rnd.fresh_out) != rnd.message:
        tally.failed += 1
        tally.unexpected.append("fresh decrypt returned the wrong bytes")
    if rotated.code == 0 and output(rnd.rotated_out) == rnd.message:
        return
    tally.failed += 1
    if rotated.code not in (0, cli.EXIT_MSGLEN):
        tally.unexpected.append(f"rotated decrypt exited {rotated.code}")


def judge(out: Outcome, tally: Tally) -> None:
    out.attempted = len(tally.steps)
    out.failed = tally.failed
    out.problems += sorted(set(tally.unexpected))
    out.name("cli.fail_ratio", tally.failed / len(tally.steps), "ratio",
             f"{tally.failed}/{len(tally.steps)} steps failed over {tally.rounds} rounds")


def run(seed: int, seconds: float) -> Outcome:
    meter = Meter("start", "blas")
    tally = Tally()
    with workspace() as ws:
        def setup(i: int) -> None:
            # A fresh round directory and one CLI start that does no scheme
            # work; the first start in a new checkout also compiles the package.
            make_round(ws, seed, -1 - i)
            run_subprocess(Step("params", ["params", "show", PARAMS]))

        timed_setups(setup, SETUPS, meter)
        deadline = time.perf_counter() + seconds
        r = 0
        while time.perf_counter() < deadline:
            rnd = make_round(ws, seed, r)
            for step in rnd.steps:
                run_subprocess(step)
                meter.add(step.kind, step.seconds)
                meter.calibrate()
            settle(rnd, tally)
            shutil.rmtree(rnd.dir)
            r += 1
    out = Outcome()
    latency_metrics(out, meter, KINDS)
    for kind in KINDS:
        times = meter.seconds(kind, scaled=False)
        out.name(f"cli.{kind}_s", statistics.median(times), "s",
                 f"median of {len(times)} subprocess runs")
    judge(out, tally)
    return out


def import_seconds(reps: int = 5) -> float:
    """Median wall time of a subprocess that only imports frue.cli."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import frue.cli"], cwd=ROOT, check=True,
                       capture_output=True, timeout=STEP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def trace(seed: int) -> Outcome:
    """TRACE_ROUNDS rounds run in this process, untraced and traced."""
    with workspace() as ws:
        def work():
            rounds = []
            for r in range(TRACE_ROUNDS):
                rnd = make_round(ws, seed, r)
                for step in rnd.steps:
                    run_inproc(step)
                rounds.append(rnd)
            return rounds

        out, rounds = traced_outcome(work)
        # Outputs depend only on the seed, so the files the last traced pass
        # left behind are the ones the untraced pass wrote.
        tally = Tally()
        for rnd in rounds:
            settle(rnd, tally)
    judge(out, tally)
    for kind in KINDS:
        out.metrics[f"cli.{kind}.inproc_s"] = (statistics.median(
            s.seconds for s in tally.steps if s.kind == kind), "s")
    return out
