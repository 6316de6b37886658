"""Machine-speed sampler, and the clock that turns measured times into reference seconds.

The speed of the machine this benchmark was built on drifts by up to 1.7x,
in phases that last from seconds to many minutes, whatever runs on it; a
fixed loop and attmot's passes slow down together.  Medians over passes
cannot remove a phase that outlasts a run.  So ``run.py`` starts this file
as a sampler on the CPU the passes run on:

    python3 perfbench/speed.py SAMPLES.bin

Every ``PERIOD_S`` it times one run of a fixed reference kernel, in CPU
seconds so that a pass preempting it does not count, and appends
``(midpoint, seconds)`` to SAMPLES.bin.  The speed at a sample is
``KERNEL_REF_S / seconds``: 1.0 where one kernel run takes ``KERNEL_REF_S``.
``ReferenceClock`` takes the median speed of the samples within ``PAD_S`` of
each sample and integrates it, so ``clock(end) - clock(start)`` is the time
``[start, end]`` would have taken at speed 1.0: reference seconds.  It maps
instants, not durations, so nested spans stay nested and their times still
add up.  The sampler takes about 4% of the CPU from the pass it shares it
with, the same share on every commit.
"""
from __future__ import annotations

import struct
import sys
import time
from pathlib import Path

PERIOD_S = 0.05
KERNEL_REF_S = 0.002
PAD_S = 0.2     # the speed at a sample is the median over samples this close
RECORD = struct.Struct("dd")
# numpy is imported where it is used: passes.py imports this module, and a
# cli-roundtrip pass must not pay numpy's import in its set-up time.


def clock() -> float:
    """Monotonic clock shared by all processes on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def read_samples(path: Path) -> list[tuple[float, float]]:
    data = path.read_bytes()
    return list(RECORD.iter_unpack(data[:len(data) - len(data) % RECORD.size]))


class ReferenceClock:
    """Maps a ``clock()`` reading to reference seconds, from the sampler's samples."""

    def __init__(self, samples: list[tuple[float, float]]):
        import numpy as np

        if not samples:
            raise RuntimeError("the speed sampler took no sample")
        t, seconds = np.array(samples).T
        speed = KERNEL_REF_S / seconds
        lo = np.searchsorted(t, t - PAD_S, side="left")
        hi = np.searchsorted(t, t + PAD_S, side="right")
        self.t = t
        # The median, so that one kernel run slowed by an interrupt does not count.
        self.speed = np.array([np.median(speed[a:b]) for a, b in zip(lo, hi)])
        self.at = np.concatenate(
            ([0.0], np.cumsum(np.diff(t) * (self.speed[1:] + self.speed[:-1]) / 2)))

    def __call__(self, instant):
        """Reference seconds at ``instant``, a float or an array.  Before the
        first sample and after the last, the speed there holds."""
        import numpy as np

        instant = np.asarray(instant, dtype=float)
        before = np.minimum(instant - self.t[0], 0.0) * self.speed[0]
        after = np.maximum(instant - self.t[-1], 0.0) * self.speed[-1]
        return np.interp(instant, self.t, self.at) + before + after

    def seconds(self, start: float, end: float) -> float:
        return float(self(end) - self(start))


def main(path: str) -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    a, b, v = rng.normal(size=(64, 128)), rng.normal(size=(128, 128)), rng.normal(size=256)

    def kernel() -> None:
        # What attmot spends its time on: an interpreted loop, small numpy
        # calls and a few matrix products.
        acc = 0.0
        for k in range(12_000):
            acc += k * 0.5
        for _ in range(150):
            acc += float(np.exp(v).sum())
        for _ in range(10):
            acc += float((a @ b).sum())

    kernel()  # numpy's lazy set-up
    with open(path, "ab", buffering=0) as out:
        while True:
            t0, cpu0 = clock(), time.process_time()
            kernel()
            t1, cpu1 = clock(), time.process_time()
            out.write(RECORD.pack((t0 + t1) / 2, cpu1 - cpu0))
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
