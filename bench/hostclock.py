"""Host-speed canary sampled through a run, and times normalised by it.

The benchmark's host is shared. Its speed moves by up to 1.5 times within
seconds and can stay slow for longer than a run, so a raw wall time measures
the host as much as the code. While a ``HostClock`` samples, a SIGALRM every
``PERIOD`` seconds runs one of three fixed canary kernels in the main thread,
in turn: a numpy FFT, a pure-Python loop and a streaming numpy update of
arrays larger than the cache, each about 3 ms, none calling bplab. Between
them they load what the workloads load: arithmetic, the interpreter and
memory bandwidth. A sample's speed is the kernel's reference time over its
measured time, so it reads 1 on a host as fast as the reference.

The normalised time of an interval is its own time (its wall time minus the
canary time spent inside it) times the mean speed of the samples taken in it
and up to ``PAD`` seconds around it. Samples are evenly spaced in time, so
that is the time the interval would have taken at the reference speed
throughout. An interval spent waiting on a child process is bracketed by
``burst()`` calls instead of being sampled: a sample taken while the child
runs would compete with it.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD = 0.1
PAD = 0.5
_FFT_INPUT = np.random.default_rng(20150918).standard_normal((128, 128)) * (1 + 1j)
_STREAM = np.ones((3, 1 << 20))


def _fft_kernel():
    for _ in range(4):
        np.fft.ifft2(np.fft.fft2(_FFT_INPUT))


def _python_kernel():
    s = 0
    for i in range(40_000):
        s += i * i


def _stream_kernel():
    np.multiply(_STREAM[1], 2.0, out=_STREAM[0])
    np.add(_STREAM[0], _STREAM[2], out=_STREAM[0])


# (kernel, reference time in s): about each kernel's time on a fast phase of
# a 2-vCPU Xeon (family 6, model 207) guest. They only set the scale.
KERNELS = ((_fft_kernel, 2.0e-3), (_python_kernel, 2.8e-3), (_stream_kernel, 2.6e-3))


class HostClock:
    def __init__(self):
        self.samples: list = []  # (kernel index, start, duration)
        self._busy = False

    def _run(self, kind):
        t0 = time.perf_counter()
        KERNELS[kind][0]()
        self.samples.append((kind, t0, time.perf_counter() - t0))

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        self._run(len(self.samples) % len(KERNELS))
        self._busy = False

    def burst(self):
        """Sample every kernel three times, now."""
        for _ in range(3):
            for kind in range(len(KERNELS)):
                self._run(kind)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _in(self, t0, t1):
        return [s for s in self.samples if t0 <= s[1] < t1]

    def own_time(self, t0, t1):
        """Wall time of [t0, t1) without the canary samples run inside it."""
        return (t1 - t0) - sum(s[2] for s in self._in(t0, t1))

    def normalised(self, t0, t1):
        """Time of [t0, t1) at the reference host speed. Call it once the
        samples after t1 are taken."""
        near = self._in(t0 - PAD, t1 + PAD)
        if not near:
            raise RuntimeError("no canary samples near the interval")
        speed = np.mean([KERNELS[kind][1] / d for kind, _, d in near])
        return self.own_time(t0, t1) * float(speed)

    def kernel_ms(self, kind):
        """Median time of one canary kernel over every sample, in ms."""
        return 1e3 * float(np.median([d for k, _, d in self.samples if k == kind]))
