"""The reference clock: rescaling by the loop's time, ticks, and Batch's sums."""

import signal
import time

import pytest

import refclock
from harness import Batch
from refclock import REF_LOOP_S, RefClock


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def slow_core(monkeypatch):
    """A core on which the loop takes twice its reference time, and a count of samples."""
    samples = []

    def calibrate():
        samples.append(1)
        return 2 * REF_LOOP_S

    monkeypatch.setattr(refclock, "calibrate", calibrate)
    return samples


def test_reference_time_is_wall_time_rescaled_by_the_loop(slow_core):
    clock = RefClock()
    wall0, ref0 = clock.now()
    _spin(0.05)
    wall1, ref1 = clock.now()
    assert wall1 - wall0 >= 0.05
    assert ref1 - ref0 == pytest.approx((wall1 - wall0) / 2)


def test_calibration_time_is_left_out(monkeypatch):
    def calibrate():
        _spin(0.02)
        return REF_LOOP_S

    monkeypatch.setattr(refclock, "calibrate", calibrate)
    clock = RefClock()
    wall0, ref0 = clock.now()
    wall1, ref1 = clock.now()
    assert wall1 - wall0 < 0.01 and ref1 - ref0 < 0.01


def test_ticks_sample_inside_a_long_call_and_stop(slow_core):
    clock = RefClock()
    previous = signal.getsignal(signal.SIGALRM)
    clock.start_ticks()
    try:
        before = len(slow_core)
        _spin(10 * refclock.TICK_S)
    finally:
        clock.stop_ticks()
    assert len(slow_core) - before >= 5
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_batch_sums_wall_and_reference_time_of_its_calls(slow_core):
    batch = Batch(RefClock())
    batch.call("a", _spin, 0.03)
    batch.call("b", lambda: 1 / 0)
    assert batch.wall >= 0.03
    assert batch.ref == pytest.approx(batch.wall / 2)
    assert (batch.attempted, batch.failed) == (2, 1)

