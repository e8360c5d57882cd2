"""Host-speed calibration interleaved with the measured work.

The benchmark's host shares its cores' hardware with other machines.
Identical interpreter-bound work runs up to 1.6 times slower for stretches of
seconds to minutes, with no steal time and no other load in the guest, so
nothing inside the guest explains the change except the speed itself. A
timing taken in such a stretch measures the neighbours, not the program.

:class:`SpeedProbe` runs a short fixed calibration kernel every ``interval``
seconds of wall time, from a ``SIGALRM`` handler in the measuring process
itself, so each kernel runs on the same core, in the same host state, as the
work around it. :meth:`SpeedProbe.scaled` then takes a timed interval and
returns its work time (the interval minus the time spent in the kernels) with
each stretch between two kernels scaled by ``REFERENCE_S / kernel time``: the
time the work would have taken on a host where the kernel takes
``REFERENCE_S``. The wall time is kept beside it.

The kernel is an integer loop in the interpreter followed by small-array
steps like those of a dim-8 run. It uses no splitrate code, so a change to
the program moves scaled and wall timings alike. Fitting
``log(sweep time)`` against ``log(kernel time)`` over 49 default sweeps, each
timed with the kernel running alongside, gave a slope of 0.96 for this
kernel; the integer loop alone gave 1.27 and the array steps alone 0.83.
Kernels of float64 passes over cache-resident or freshly allocated
1e6-element arrays tracked the dim-1e6 runs poorly (slopes 0.4-0.6,
correlations 0.5-0.67), so those runs are timed by the wall clock
(:class:`WallClock`).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: nominal kernel time that scaled timings refer to
REFERENCE_S = 0.004

#: kernel sizes, chosen so that the kernel takes about REFERENCE_S on a quiet
#: host of the reference machine (2-core Xeon VM, Python 3.11, numpy 2.4)
PYTHON_LOOP = 30_000
SMALL_VEC_STEPS = 400


class Kernel:
    """The calibration kernel. Either half alone tracks the neighbours'
    effect on the sweeps less well than the two together."""

    def __init__(self):
        self.v = np.linspace(0.0, 1.0, 8)
        self.w = np.linspace(1.0, 2.0, 8)

    def __call__(self) -> None:
        s = 0
        for i in range(PYTHON_LOOP):
            s += i * i
        a, w = self.v, self.w
        for _ in range(SMALL_VEC_STEPS):
            a = a * 0.5 + w
            if not np.all(np.isfinite(a)):
                raise FloatingPointError("calibration kernel overflowed")
            float(np.sqrt(np.dot(a, a)))


def time_kernel(kernel: Kernel, repeats: int = 3) -> float:
    """Median wall time of ``repeats`` calls of the kernel."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class WallClock:
    """Collects timed intervals; :meth:`results` gives them as wall time."""

    def __init__(self):
        self.intervals: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def record(self, key: str, t0: float, t1: float, scale: float = 1.0) -> None:
        """One sample of ``key``: the interval ``[t0, t1]`` times ``scale``."""
        self.intervals.append((key, t0, t1, scale))

    def scaled(self, t0: float, t1: float) -> float:
        return t1 - t0

    def results(self) -> tuple[dict, dict]:
        """(scaled samples, wall samples), each ``key -> [value, ...]``."""
        scaled: dict[str, list] = {}
        wall: dict[str, list] = {}
        for key, t0, t1, scale in self.intervals:
            scaled.setdefault(key, []).append(scale * self.scaled(t0, t1))
            wall.setdefault(key, []).append(scale * (t1 - t0))
        return scaled, wall

    def summary(self) -> dict:
        return {"kernel_runs": 0}


class SpeedProbe(WallClock):
    """Runs the kernel every ``interval`` seconds while entered; intervals
    recorded meanwhile are scaled to the reference host speed."""

    def __init__(self, interval: float = 0.2):
        super().__init__()
        self.interval = interval
        self._kernel = Kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, *_args) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled work time of the interval ``[t0, t1]``.

        The work time excludes the kernels that ran inside the interval. Each
        stretch of work between two kernels is scaled by ``REFERENCE_S`` over
        the mean of those two kernels' times; a stretch at either end of the
        interval uses the nearest kernel outside it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        if lo == 0 or hi >= len(self.starts):
            raise ValueError("interval not enclosed by calibration kernels")
        total = 0.0
        edge, before = t0, self.kernel_s[lo - 1]
        for k in range(lo, hi):
            total += (self.starts[k] - edge) * 2.0 * REFERENCE_S / (before + self.kernel_s[k])
            edge, before = self.ends[k], self.kernel_s[k]
        return total + (t1 - edge) * 2.0 * REFERENCE_S / (before + self.kernel_s[hi])

    def summary(self) -> dict:
        return {"kernel_runs": len(self.kernel_s), "kernel_median_s": statistics.median(self.kernel_s)}
