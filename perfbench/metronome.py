"""Machine-speed reference for the benchmark's timings.

The machine this benchmark was calibrated on is a few cores of a shared
host, and its speed wanders by 20-40% over tens of seconds; the same pass
of the same inputs takes 5.0 s in one window and 8.0 s in the next.  A
run's raw seconds therefore mostly measure the host's load.  To take that
out, a fixed reference chunk of work (pure-Python dictionary and float work
plus small numpy linear algebra, no qthermo code) runs at regular
intervals *during* the timed work, driven by a wall-clock timer signal.
The chunks see the same machine as the code around them, so

    speed = (mean seconds of one chunk) / REF_CHUNK_S

is how much slower than the reference speed the machine ran over that
stretch, and a timing is reported as

    (raw seconds - seconds spent in chunks) / speed,

that is, in seconds at the reference speed.  The chunks do not touch the
workload's data, and a change that makes qthermo faster or slower moves the
reported seconds exactly as it moves the raw ones.

Run as a script, it runs one qthermo CLI invocation under the metronome in
this fresh interpreter and writes the chunk tally to OUT.json:

    python3 perfbench/metronome.py OUT.json paper-regression --output R.json
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time

import numpy as np

# seconds one chunk takes at the reference speed (about its median on a
# quiet core of the 2-core VM the figures in NOTES.md come from)
REF_CHUNK_S = 0.020
INTERVAL_S = 0.2  # wall-clock seconds between chunks: about 10% overhead

_M = np.random.default_rng(20260308).random((12, 12)) + 12.0 * np.eye(12)
_ONES = np.ones(12)


def chunk() -> float:
    """One reference chunk of fixed work; returns a value so none of it is skipped."""
    d: dict[int, float] = {}
    for i in range(30000):
        x = (i * 2654435761) % 1000003
        d[x % 997] = d.get(x % 997, 0.0) + math.sqrt(x)
    acc = 0.0
    for k in range(100):
        M = _M + (k * 1e-3) * _M.T
        acc += float(np.abs(np.linalg.eigvals(M)).max() + np.linalg.solve(M, _ONES).sum()
                     + np.exp(-M).sum())
    return acc + d[0]


class Metronome:
    """Runs ``chunk`` every ``interval`` wall-clock seconds while started."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.count = 0
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late tick during a chunk is dropped, not nested
            return
        self._busy = True
        try:
            self.sample(1)
        finally:
            self._busy = False

    def sample(self, n: int) -> None:
        """Run ``n`` chunks now and add them to the tally."""
        for _ in range(n):
            t0 = time.perf_counter()
            chunk()
            self.spent += time.perf_counter() - t0
            self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return self.count, self.spent


def speed(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Machine slowdown against the reference speed between two marks."""
    count, spent = after[0] - before[0], after[1] - before[1]
    if count <= 0:
        raise RuntimeError("no reference chunk ran in the timed stretch")
    return spent / count / REF_CHUNK_S


def normalized(raw_s: float, before: tuple[int, float], after: tuple[int, float]) -> float:
    """Seconds at the reference speed of a stretch that took ``raw_s`` wall seconds."""
    return (raw_s - (after[1] - before[1])) / speed(before, after)


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    met = Metronome()
    met.start()
    try:
        from qthermo import cli

        code = cli.main(cli_args)
    finally:
        met.stop()
    with open(out, "w") as fh:
        json.dump({"count": met.count, "spent": met.spent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
