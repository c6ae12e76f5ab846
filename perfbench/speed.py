"""Reference-speed timing: op times corrected for how fast the host runs now.

On a shared host the same code runs at very different speeds from one second
to the next: other tenants' load slows every instruction of this process, up
to 2x, in phases from a fraction of a second to minutes.  CPU time slows with
wall time, so neither can tell a slower program from a slower host.

A `Speedometer` runs a fixed reference loop (Python dict, tuple, sort and
complex arithmetic work, small numpy vector ops and one small SVD; no qipsim
code) right before and right after every timed op, and every `TICK_S` of CPU
time during it from a ``SIGPROF`` handler.  Each stretch of the op between
two samples, divided by the mean reference time at its ends, is its cost in
reference loops; the op's sum, times `REF_S`, is its reference-speed time in
seconds.  A program that does more work still takes more reference loops,
while a slower host stretches the op and the reference loop alike.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# Median time of one reference loop on a 2-vCPU cloud VM (Python 3.11,
# numpy 2.4, one BLAS thread); it only sets the scale of the reported times.
REF_S = 2.3e-3
# CPU seconds between reference samples inside an op.
TICK_S = 0.05
# Untimed loops before the first sample, so that none is a cold one.
WARMUP_LOOPS = 20
# Bound at import: the traced run wraps numpy.linalg.svd, and a reference
# sample taken inside the completion must not count as a completion SVD.
_svd = np.linalg.svd


class Speedometer:
    """Reference samples around and inside timed blocks."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        self._w = np.empty_like(self._v)
        self._m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._d = {(i % 97, i % 13): 0.0 for i in range(97 * 13)}
        self._pairs = [((i * 7919) % 10007, i) for i in range(1500)]
        self.spent = 0.0  # seconds spent in reference loops so far
        self.history: list[float] = []  # every reference time, in order
        self._last = None  # the sample after the previous block
        self._marks: list[tuple[float, float]] = []  # (clock, reference time)
        for _ in range(WARMUP_LOOPS):
            self._reference()

    def _reference(self) -> None:
        d = self._d
        for i in range(1500):
            k = (i % 97, i % 13)
            d[k] = d[k] * 0.5 + i
        v, w = self._v, self._w
        for _ in range(20):
            np.multiply(v, 0.999, out=w)
            np.add(w, v.conj(), out=w)
            np.vdot(w, w)
        _svd(self._m, compute_uv=False)
        sorted(self._pairs)
        z = 0j
        for i in range(750):
            z = z * (0.5 + 0.1j) + complex(i, 1)
        tuple(sorted({(i % 31, i % 17) for i in range(400)}))

    def sample(self) -> float:
        """Time one reference loop; its time is excluded from `clock`."""
        t0 = time.perf_counter()
        self._reference()
        elapsed = time.perf_counter() - t0
        self.spent += elapsed
        self.history.append(elapsed)
        return elapsed

    def clock(self) -> float:
        """perf_counter minus the time spent in reference loops."""
        return time.perf_counter() - self.spent

    def _on_tick(self, signum, frame):
        self._marks.append((self.clock(), self.sample()))

    def start(self) -> None:
        if self._last is None:
            self._last = self.sample()
        signal.signal(signal.SIGPROF, self._on_tick)
        self._marks = [(self.clock(), self._last)]
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> tuple[float, float]:
        """End the block; returns (seconds, reference-speed seconds).

        Each stretch between two reference samples counts at the mean speed
        of its two ends, so a long C call that no tick can interrupt weighs
        as much as the time it took.
        """
        signal.setitimer(signal.ITIMER_PROF, 0)
        end = self.clock()
        self._last = self.sample()
        marks = self._marks + [(end, self._last)]
        ref_elapsed = sum((t1 - t0) * 2 * REF_S / (r0 + r1)
                          for (t0, r0), (t1, r1) in zip(marks, marks[1:]))
        return end - marks[0][0], ref_elapsed

    def measure(self, fn):
        """Run fn(); returns (result, seconds, reference-speed seconds)."""
        self.start()
        try:
            out = fn()
        finally:
            elapsed, ref_elapsed = self.stop()
        return out, elapsed, ref_elapsed
