"""The host-speed probe and the times it scales.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import signal
import time

import pytest

from speed import REFERENCE_S, SpeedMeter, reference_time


def _samples(starts, probe_s, warmup_s=0.0):
    """Synthetic probes: (start, start of the timed part, end)."""
    return [(t, t + warmup_s, t + warmup_s + probe_s) for t in starts]


def test_reference_speed_leaves_work_time_unchanged():
    samples = _samples([1.0, 2.0, 3.0], REFERENCE_S, warmup_s=0.001)
    probes = 3 * (REFERENCE_S + 0.001)
    assert reference_time(samples, 0.5, 3.5) == pytest.approx(3.0 - probes)


def test_half_speed_halves_the_time():
    samples = _samples([1.0, 2.0, 3.0], 2 * REFERENCE_S)
    assert reference_time(samples, 0.5, 3.5) == pytest.approx((3.0 - 6 * REFERENCE_S) / 2)


def test_each_stretch_is_scaled_by_the_probes_after_it():
    # Fast before t=10, slow after; the median of five smooths single probes only.
    starts = [float(t) for t in range(1, 21)]
    samples = [(t, t, t + (REFERENCE_S if t <= 10 else 2 * REFERENCE_S)) for t in starts]
    fast = reference_time(samples, 2.0, 7.0)
    slow = reference_time(samples, 14.0, 19.0)
    assert fast == pytest.approx(5.0 - 5 * REFERENCE_S)
    assert slow == pytest.approx((5.0 - 10 * REFERENCE_S) / 2)


def test_interval_without_a_probe_uses_the_next_one():
    samples = _samples([1.0, 2.0], 2 * REFERENCE_S)
    assert reference_time(samples, 1.2, 1.6) == pytest.approx(0.2)
    assert reference_time(samples, 2.5, 2.9) == pytest.approx(0.2)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        reference_time([], 0.0, 1.0)


def test_meter_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter(interval=0.05) as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 3
    assert all(start <= timed < end for start, timed, end in meter.samples)
    assert 0 < reference_time(meter.samples, t0, t1) < 4 * (t1 - t0)
