"""Speed probe: how fast the CPU the charlab children run on is, right now.

The host this benchmark was built on is shared, and in contention phases
every process on it runs up to about 1.6x slower; the child's CPU time grows
with its wall time, so neither is steady.  The probe is a second process, pinned to
the same CPU as the children and run at the lowest priority, that repeats a
fixed unit of work resembling charlab's (a batched small complex SVD, one
small SVD with its array set-up, a short pure-Python loop, and filling a
512 KB array, which slows less under contention than the rest, as a child's
start-up does; a fifth of the unit's time).  At nice 19 it
gets about 1.5% of the CPU in short slices spread over each child's life,
so its rate samples the speed the child saw.  ``SpeedProbe.read`` returns
(units done, probe CPU ns), and a child's time is scaled to a fixed
reference speed of ``REF_UNITS_PER_S``:

    normalised seconds = child CPU seconds * probe units per CPU second / REF_UNITS_PER_S

so a change that makes charlab do less work reads lower on any host, in any
phase.  Run directly (``python3 perfbench/probe.py``) it prints the probe's
rate on this CPU.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

# about the probe's rate on one uncontended vCPU of the 2-vCPU Xeon host
# the benchmark was built on; a fixed scale, not a measurement
REF_UNITS_PER_S = 8000.0
RECORD = struct.Struct("<qq")       # units done, probe CPU ns at that moment
START_TIMEOUT_S = 60.0


def _work():
    import numpy as np

    rng = np.random.default_rng(0)
    stack = rng.standard_normal((8, 6, 6)) + 1j * rng.standard_normal((8, 6, 6))
    one = rng.standard_normal((6, 6))
    eye = np.eye(6)

    def unit(i: int) -> float:
        np.linalg.svd(stack, compute_uv=False)
        m = (one * (1.0 + 1e-3 * (i & 255))).astype(complex) - 0.5 * eye
        s = float(np.linalg.svd(m, compute_uv=False)[-1])
        d = {}
        for j in range(60):
            d[j & 15] = d.get(j & 15, 0) + j * 7 % 13
        a = np.ones(1 << 16)
        a[::512] += s
        return s

    return unit


def serve(path: str):
    """Probe process: do units forever, publishing the count after each."""
    os.nice(19)
    unit = _work()
    with open(path, "r+b") as f:
        mm = mmap.mmap(f.fileno(), RECORD.size)
    parent = os.getppid()
    n = 0
    while True:
        unit(n)
        n += 1
        mm[:RECORD.size] = RECORD.pack(n, time.process_time_ns())
        if n % 256 == 0 and os.getppid() != parent:
            return          # the benchmark is gone; so is the reader


class SpeedProbe:
    """Starts the probe pinned to this process's CPU (children inherit it)."""

    def __init__(self, shm_path: Path, env: dict):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        shm_path.write_bytes(bytes(RECORD.size))
        self._file = open(shm_path, "r+b")
        self._mm = mmap.mmap(self._file.fileno(), RECORD.size)
        self.proc = subprocess.Popen([sys.executable, __file__, str(shm_path)],
                                     env=env, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.read()[0] == 0:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("speed probe did not start")
            time.sleep(0.01)
        self.start = self.read()    # CPU time before the first unit is start-up

    def read(self) -> tuple:
        while True:         # the probe may be mid-write; read until stable
            a, b = self._mm[:RECORD.size], self._mm[:RECORD.size]
            if a == b:
                return RECORD.unpack(a)

    def rate(self, before: tuple, after: tuple) -> float:
        """Units per probe CPU second between two reads; over the probe's
        whole life when the window saw too few units to say."""
        if self.proc.poll() is not None:
            raise RuntimeError(f"speed probe exited ({self.proc.returncode})")
        if after[0] - before[0] < 10:
            before = self.start
        if after[0] == before[0]:
            raise RuntimeError("speed probe made no progress")
        return (after[0] - before[0]) / (after[1] - before[1]) * 1e9

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._mm.close()
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    if len(sys.argv) > 1:
        serve(sys.argv[1])
    else:
        unit = _work()
        t0, n = time.process_time(), 0
        while time.process_time() - t0 < 1.0:
            unit(n)
            n += 1
        print(f"{n / (time.process_time() - t0):.0f} units per CPU second "
              f"(reference {REF_UNITS_PER_S:.0f})")
