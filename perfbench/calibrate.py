"""Machine-speed calibration for the end-to-end timings.

On a shared host the same operation can take up to twice as long for
stretches of seconds to minutes, because other tenants load the core. Raw
medians then move by 30-40 % from one run to the next. To keep runs
comparable, the benchmark times a fixed kernel, which does not touch heatctx,
just before, just after and every ``INTERVAL_S`` during every timed operation,
and rescales each sample to the speed at which this kernel takes
``REFERENCE_S``:

    scaled = raw * REFERENCE_S * mean(1 / kernel time)

The readings during an operation matter for the sweeps, which take seconds:
the host's speed changes within them, and readings at their two ends alone
made sweep samples spread more within a run than raw ones did. The kernel
mixes what the operations do: small dense eigenproblems, a vectorised ufunc
over a few hundred kilobytes, and float-to-text formatting. Raw medians are
printed next to the scaled ones.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# A fixed reference, about the kernel's time on the Intel Xeon host (Python
# 3.11, numpy 2.4, single-threaded OpenBLAS) where the benchmark was written;
# the kernel took from under 1 ms to over 2 ms there, with the load of other
# tenants.
# Scaled timings are seconds at the speed at which the kernel takes this long.
REFERENCE_S = 1.2e-3
INTERVAL_S = 0.1

_H = np.random.default_rng(12345).standard_normal((16, 16)) + 0j
_H = _H + _H.conj().T
_X = np.linspace(0.0, 1.0, 40_000)


def _kernel() -> None:
    for _ in range(10):
        np.linalg.eigvalsh(_H)
    float(np.sin(_X).sum())
    ",".join(f"{x:.16e}" for x in _X[:300])


def kernel_time() -> float:
    """Wall time of one run of the calibration kernel, after one untimed run.

    The untimed run brings the kernel's few hundred kilobytes back into the
    caches, so that what the previous operation left there does not count.
    """
    _kernel()
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def warm_up() -> None:
    """Run the kernel until its first, slower calls are behind."""
    for _ in range(20):
        kernel_time()


def scale(raw: float, readings: list[float]) -> float:
    """``raw`` rescaled to the reference speed, from the kernel ``readings``."""
    return raw * REFERENCE_S * sum(1.0 / k for k in readings) / len(readings)


class Sampler:
    """Times one operation, and the kernel before, during and after it.

    During the operation a SIGALRM timer interrupts it every ``INTERVAL_S``
    between two Python bytecodes (a long C call delays the interruption to
    its end) to time the kernel. ``elapsed`` is the operation's wall time
    less the time spent in these interruptions.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.elapsed = 0.0
        self._ticks: list[tuple[float, float]] = []  # start and length of each interruption

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.readings.append(kernel_time())
        self._ticks.append((t0, perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self.readings.append(kernel_time())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = end - self._start - sum(d for s, d in self._ticks if s < end)
        self.readings.append(kernel_time())

    def scaled(self) -> float:
        return scale(self.elapsed, self.readings)
