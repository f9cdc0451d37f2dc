"""Machine-speed probe: puts times measured on a shared host on one scale.

On a shared host the same pass can take 30% longer from one minute to
the next because of load the benchmark cannot see.  The probe is a child
process pinned, with the benchmark, to one CPU.  Every 50 ms it times a
fixed pure-Python loop (a "chunk"), so it runs under the same contention
as the benchmark at the same moments while taking about 3% of the CPU.
A time measured over a window is rescaled to the reference speed, one
chunk per millisecond, by ``REF_CHUNK_S / median chunk in the window``.

    python3 perfbench/pace.py OUT_FILE CPU      # the probe itself
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: Iterations of one chunk; about a millisecond on a quiet 2 GHz core.
CHUNK_ITERATIONS = 15_000
REF_CHUNK_S = 1e-3
INTERVAL_S = 0.05
#: Fewest chunks a window is judged on; short windows borrow neighbours.
MIN_CHUNKS = 5


def chunk() -> float:
    t0 = time.monotonic()
    s = 0
    for i in range(CHUNK_ITERATIONS):
        s += i * i
    return time.monotonic() - t0


class SpeedProbe:
    """Runs the probe beside this process, on this process's CPU."""

    def __init__(self, path: str) -> None:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path, str(cpu)],
            stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30.0
        while not self._chunks():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("speed probe did not start")
            time.sleep(0.01)

    def _chunks(self):
        try:
            with open(self.path) as fh:
                # The last piece is empty or a line still being written.
                lines = fh.read().split("\n")[:-1]
        except FileNotFoundError:
            return []
        return [tuple(map(float, line.split())) for line in lines]

    def factor(self, t0: float, t1: float) -> float:
        """Reference-speed scale for the ``time.monotonic`` window [t0, t1]."""
        chunks = self._chunks()
        inside = [d for t, d in chunks if t0 <= t <= t1]
        if len(inside) < MIN_CHUNKS:
            mid = (t0 + t1) / 2
            inside = [d for _, d in sorted(chunks, key=lambda c: abs(c[0] - mid))]
            inside = inside[:MIN_CHUNKS]
        return REF_CHUNK_S / statistics.median(inside)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait()


def main(path: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(path, "w") as fh:
        while True:
            d = chunk()
            fh.write(f"{time.monotonic()} {d}\n")
            fh.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
