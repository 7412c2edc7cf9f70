"""Rate-law properties and the throughput functional."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import centered_second_differences, random_corridor, reference_throughput

from ehsched import PowerSchedule, awgn_rate, composite_rate, taut_string, throughput


def test_awgn_values():
    rate = awgn_rate(1.0)
    assert rate(0.0) == 0.0
    assert rate(1.0) == pytest.approx(0.5, abs=1e-12)
    assert rate(3.0) == pytest.approx(1.0, abs=1e-12)


def test_awgn_rejects_bad_noise():
    for noise in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise"):
            awgn_rate(noise)


def test_awgn_vectorized():
    rate = awgn_rate(2.0)
    powers = np.array([0.0, 2.0, 6.0])
    np.testing.assert_allclose(rate(powers), [0.0, 0.5, 1.0], atol=1e-12)
    assert isinstance(rate(2.0), float)
    assert isinstance(rate.deriv(2.0), float)


def test_deriv_matches_finite_differences():
    rate = awgn_rate(1.0)
    for p in np.geomspace(1e-3, 1e3, 60):
        h = 1e-6 * max(p, 1.0)
        fd = (rate(p + h) - rate(p - h)) / (2.0 * h)
        assert rate.deriv(p) == pytest.approx(fd, rel=1e-6)


def test_scalar_calls_match_the_array_path_bitwise():
    rng = random.Random(3)
    powers = [rng.uniform(0.0, 10.0) * 10.0 ** rng.uniform(-300, 300) for _ in range(2000)]
    powers += [0.0, 5e-324, 1e300]
    for noise in (1.0, 0.37, 4.5):
        rate = awgn_rate(noise)
        for fn in (rate, rate.deriv):
            scalar = [fn(p) for p in powers]
            array = [float(fn(np.array([p]))[0]) for p in powers]
            assert all(type(v) is float for v in scalar)
            assert [v.hex() for v in scalar] == [v.hex() for v in array]


def test_strictly_concave_and_increasing():
    rate = awgn_rate(0.7)
    grid = np.linspace(0.0, 50.0, 501)
    values = np.asarray(rate(grid))
    assert np.all(np.diff(values) > 0.0)
    assert np.all(centered_second_differences(values) < 0.0)
    derivs = np.asarray(rate.deriv(grid))
    assert np.all(derivs > 0.0)
    assert np.all(np.diff(derivs) < 0.0)


def test_throughput_constant_benchmark():
    rate = awgn_rate(1.0)
    e0, horizon = 4.0, 4.0
    sched = PowerSchedule.constant(e0 / horizon, horizon)
    assert throughput(sched, rate) == pytest.approx(horizon * rate(e0 / horizon), abs=1e-12)


def test_throughput_zero_schedule():
    assert throughput(PowerSchedule.constant(0.0, 3.0), awgn_rate(1.0)) == 0.0


def test_throughput_power_three():
    sched = PowerSchedule.constant(3.0, 4.0)
    assert throughput(sched, awgn_rate(1.0)) == pytest.approx(4.0, abs=1e-12)


def test_jensen_dominance_random_schedules():
    # splitting a fixed energy budget unevenly always loses data
    rate = awgn_rate(1.0)
    e0, horizon = 4.0, 4.0
    best = horizon * rate(e0 / horizon)
    rng = random.Random(11)
    for _ in range(100):
        cut = rng.uniform(0.2, horizon - 0.2)
        first = rng.uniform(0.0, e0)
        if abs(first / cut - (e0 - first) / (horizon - cut)) < 1e-6:
            continue  # skip near-constant splits
        sched = PowerSchedule(
            ((0.0, cut, first / cut), (cut, horizon, (e0 - first) / (horizon - cut)))
        )
        assert throughput(sched, rate) < best


# --------------------------------------------------------------------------
# the batched throughput against one scalar rate call per segment

RATES = {
    "awgn": awgn_rate(1.0),
    "awgn-noise-0.3": awgn_rate(0.3),
    "composite-user1-only": composite_rate(1.0, 0.8, 1.0, 3.0),  # p_th = inf
    "composite-user2-only": composite_rate(1.0, 4.0, 1.0, 3.0),  # p_th = 0
    "composite-shared": composite_rate(1.0, 2.0, 1.0, 3.0),  # p_th = 1
}


def _random_schedule(rng: random.Random, n: int) -> PowerSchedule:
    """``n`` segments whose powers span zero, tiny, ordinary and huge values."""
    t, segments = 0.0, []
    for _ in range(n):
        dt = rng.uniform(1e-3, 3.0)
        power = rng.choice(
            (0.0, rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-12.0, 8.0), 1.0)
        )
        segments.append((t, t + dt, power))
        t += dt
    return PowerSchedule(tuple(segments))


@pytest.mark.parametrize("name", sorted(RATES))
def test_throughput_matches_scalar_reference_bitwise(name):
    rate = RATES[name]
    rng = random.Random(name)
    schedules = [_random_schedule(rng, n) for n in (1, 2, 3, 50, 1000) for _ in range(20)]
    schedules += [taut_string(*random_corridor(seed)).schedule for seed in range(100)]
    for schedule in schedules:
        assert throughput(schedule, rate) == reference_throughput(schedule, rate)
