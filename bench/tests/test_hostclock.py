"""The host-speed normalisation: canary time inside an interval is taken out,
and the rest is scaled by the mean speed of the samples in and around it.

    python -m pytest bench/tests
"""

import signal
import time

import pytest

import hostclock
from hostclock import KERNELS, PAD, HostClock


def test_normalised_scales_own_time_by_mean_speed():
    clock = HostClock()
    ref = [r for _, r in KERNELS]
    # kernel 0 at twice its reference time inside [10, 20); kernel 1 at its
    # reference time just after the interval, within PAD; one sample far away
    clock.samples = [(0, 12.0, 2 * ref[0]), (1, 20.0 + PAD / 2, ref[1]), (0, 100.0, ref[0])]
    own = 10.0 - 2 * ref[0]
    assert clock.own_time(10.0, 20.0) == pytest.approx(own)
    assert clock.normalised(10.0, 20.0) == pytest.approx(own * (0.5 + 1.0) / 2)


def test_normalised_needs_samples():
    with pytest.raises(RuntimeError):
        HostClock().normalised(0.0, 1.0)


def test_sampling_takes_every_kernel_in_turn_and_restores_the_handler():
    clock = HostClock()
    before = signal.getsignal(signal.SIGALRM)
    with clock.sampling():
        end = time.perf_counter() + 8 * hostclock.PERIOD
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    kinds = [k for k, _, _ in clock.samples]
    assert len(kinds) >= len(KERNELS)
    assert kinds == [i % len(KERNELS) for i in range(len(kinds))]
    clock.burst()
    assert [k for k, _, _ in clock.samples[-3 * len(KERNELS):]] == 3 * list(range(len(KERNELS)))
