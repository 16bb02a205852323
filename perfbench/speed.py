"""Machine-speed sampling, so that timings on a shared machine stay comparable.

On a shared 2-core virtual machine the speed of a core drifts by tens of
percent within seconds (measured: the same job varied 1.7x between 5-second
windows while its CPU time stayed equal to its wall time), so a raw wall time
measures the neighbours as much as the program.  While a timed call runs,
``SpeedSampler`` interrupts it every ``PERIOD_S`` and times a fixed kernel on
the same core; the call's time divided by the mean kernel time, times the
kernel's reference time, is the call's time at the reference speed.

Two kernels: ``"mixed"`` (interpreted float arithmetic plus NumPy scalar
operations, the work mix of the jobs) and ``"python"`` (no NumPy, for
set-up, so that the sampler does not move the NumPy import out of the timed
region).  On a 2-core Intel Xeon virtual machine, the mixed kernel cut
the job-to-job spread (standard deviation of log time) from 0.09 to 0.03 on
``synth-ieee39``, from 0.08 to 0.06 on ``oracle-sweep`` and from 0.10 to
0.03 on ``simulate-line3``.  The probes take about 1.5% of the timed
interval, the same share for every version of the program.
"""

import math
import signal
import statistics
import time

PERIOD_S = 0.02


def _python_kernel() -> float:
    acc = 0.0
    for i in range(1000):
        acc += math.sin(i * 1e-3) * math.cos(i * 2e-3)
    return acc


def _mixed_kernel() -> float:
    import numpy as np

    r = np.asarray(0.3)
    for _ in range(60):
        r = np.cos(r) * 0.5 + np.sin(r) * 0.1
    return _python_kernel() + float(r)


# kernel and its duration on the reference machine (a 2-core Intel Xeon
# virtual machine); scaled times are seconds at that machine's typical speed
KERNELS = {"python": (_python_kernel, 2.0e-4), "mixed": (_mixed_kernel, 2.8e-4)}


class SpeedSampler:
    """Context manager sampling the core's speed while its body runs.

    Uses SIGALRM, so it must run in the main thread and nothing inside may
    use that signal.
    """

    def __init__(self, kernel: str = "mixed"):
        self._kernel, self._ref_s = KERNELS[kernel]
        self.samples: list[float] = []
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def speed(self) -> float:
        """Reference probe time over the mean probe time of the sampled interval."""
        return self._ref_s / statistics.fmean(self.samples)


def scaled(samples) -> float:
    """Median of (seconds, speed) samples, as seconds at the reference speed."""
    return statistics.median(t * speed for t, speed in samples) if samples else 0.0
