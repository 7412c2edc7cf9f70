"""Two-receiver power splitting: threshold rule, composite rate, solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_schedule_rebuilds,
    broadcast_inner_max,
    chord_slopes,
    random_corridor,
)

from ehsched import (
    BroadcastProblem,
    awgn_rate,
    composite_rate,
    from_packet_arrivals,
    power_threshold,
    solve_broadcast,
    split_power,
    taut_string,
    throughput,
)


# --------------------------------------------------------------------------
# power_threshold


def test_threshold_value():
    assert power_threshold(1.0, 2.0, 1.0, 3.0) == pytest.approx(1.0, abs=1e-15)


def test_equal_weights_serve_cleaner_user():
    assert power_threshold(1.0, 1.0, 1.0, 3.0) == math.inf
    assert power_threshold(2.0, 1.0, 1.0, 3.0) == math.inf
    assert power_threshold(1.0, 0.0, 1.0, 3.0) == math.inf


def test_heavy_weight_serves_noisier_user():
    assert power_threshold(1.0, 4.0, 1.0, 3.0) == 0.0
    assert power_threshold(0.0, 1.0, 1.0, 3.0) == 0.0


def test_weight_ratio_at_noise_ratio_degenerates_to_zero_threshold():
    assert power_threshold(1.0, 3.0, 1.0, 3.0) == pytest.approx(0.0, abs=1e-15)


def test_threshold_validation():
    with pytest.raises(ValueError):
        power_threshold(1.0, 2.0, 3.0, 1.0)  # noise order flipped
    with pytest.raises(ValueError):
        power_threshold(1.0, 2.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        power_threshold(0.0, 0.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        power_threshold(-1.0, 2.0, 1.0, 3.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["mu1", "mu2", "noise1", "noise2"])
def test_non_finite_parameters_are_refused_by_name(name, value):
    # a NaN weight made weighted_sum NaN, an infinite one made it inf, and an
    # infinite noise2 passed the noise order
    harvested = from_packet_arrivals([(0.0, 2.0), (1.0, 1.0)], 3.0)
    params = {"noise1": 1.0, "noise2": 3.0, "mu1": 1.0, "mu2": 2.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        BroadcastProblem(harvested=harvested, **params)


# --------------------------------------------------------------------------
# composite_rate


def test_composite_zero_power():
    rate = composite_rate(1.0, 2.0, 1.0, 3.0)
    assert rate(0.0) == 0.0


def test_composite_value_above_knee():
    rate = composite_rate(1.0, 2.0, 1.0, 3.0)
    expected = 0.5 * math.log2(2.0) + 1.0 * math.log2(1.5)
    assert rate(3.0) == pytest.approx(expected, abs=1e-12)
    assert rate(3.0) == pytest.approx(1.0849625007211562, abs=1e-12)


def test_composite_continuous_at_knee():
    rate = composite_rate(1.0, 2.0, 1.0, 3.0)
    p_th = power_threshold(1.0, 2.0, 1.0, 3.0)
    below = 0.5 * math.log2(1.0 + p_th / 1.0)
    assert rate(p_th) == pytest.approx(below, abs=1e-12)
    assert rate(p_th - 1e-9) == pytest.approx(rate(p_th + 1e-9), abs=1e-8)


def test_composite_smooth_at_knee():
    rate = composite_rate(1.0, 2.0, 1.0, 3.0)
    p_th = 1.0
    left = rate.deriv(p_th - 1e-9)
    right = rate.deriv(p_th + 1e-9)
    assert abs(left - right) <= 1e-8


def test_composite_matches_inner_maximization():
    for power in np.geomspace(0.05, 20.0, 15):
        rate = composite_rate(1.0, 2.0, 1.0, 3.0)
        oracle = broadcast_inner_max(1.0, 2.0, 1.0, 3.0, float(power))
        assert rate(float(power)) == pytest.approx(oracle, abs=1e-6)


def test_composite_concave():
    rate = composite_rate(1.0, 2.5, 1.0, 3.0)
    grid = np.geomspace(1e-3, 100.0, 400)
    slopes = chord_slopes(grid, np.asarray(rate(grid)))
    assert np.all(np.diff(slopes) <= 1e-9)


DEGENERATE = [  # (mu1, mu2, the served user's noise and weight)
    (1.0, 1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0, 2.0),
    (1.0, 0.0, 1.0, 1.0),
    (1.0, 4.0, 3.0, 4.0),
    (0.0, 1.0, 3.0, 1.0),
    (0.3, 7.0, 3.0, 7.0),
]


@pytest.mark.parametrize("mu1, mu2, noise, weight", DEGENERATE)
def test_composite_degenerate_regimes_are_scaled_awgn(mu1, mu2, noise, weight):
    rate = composite_rate(mu1, mu2, 1.0, 3.0)
    single = awgn_rate(noise)
    powers = [0.0, 1e-300, 1e-9, 0.37, 1.0, 3.0, 42.5, 1e12]
    for p in powers:
        assert rate(p) == weight * single(p), p
        assert rate.deriv(p) == pytest.approx(weight * single.deriv(p), rel=1e-15), p
    grid = np.asarray(powers)
    assert np.array_equal(rate(grid), weight * single(grid))
    np.testing.assert_allclose(
        rate.deriv(grid), weight * single.deriv(grid), rtol=1e-15, atol=0.0
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    mu1=st.floats(0.0, 4.0),
    mu2=st.floats(0.0, 4.0),
    noise1=st.floats(0.5, 4.0),
    spread=st.floats(1.01, 10.0),
    power=st.floats(0.0, 20.0),
)
def test_composite_matches_inner_maximization_everywhere(
    mu1, mu2, noise1, spread, power
):
    # weights and noises cover all three regimes: p_th = inf, 0, and between
    if mu1 == 0.0 and mu2 == 0.0:
        mu2 = 1.0
    noise2 = noise1 * spread
    oracle = broadcast_inner_max(mu1, mu2, noise1, noise2, power)
    assert composite_rate(mu1, mu2, noise1, noise2)(power) == pytest.approx(
        oracle, abs=1e-6
    )


# --------------------------------------------------------------------------
# split_power


def test_split_below_threshold():
    assert split_power(0.5, 1.0) == (0.5, 0.0)
    assert split_power(3.0, math.inf) == (3.0, 0.0)


def test_split_above_threshold():
    p1, p2 = split_power(3.0, 1.0)
    assert p1 == pytest.approx(1.0, abs=1e-15)
    assert p2 == pytest.approx(2.0, abs=1e-15)


def test_split_degenerate_user2():
    assert split_power(3.0, 0.0) == (0.0, 3.0)


def test_split_rejects_negative_power():
    with pytest.raises(ValueError):
        split_power(-1.0, math.inf)


# --------------------------------------------------------------------------
# solve_broadcast


def _single_packet_problem(mu1, mu2):
    harvested = from_packet_arrivals([(0.0, 8.0)], 4.0)
    return BroadcastProblem(
        noise1=1.0, noise2=3.0, mu1=mu1, mu2=mu2, harvested=harvested
    )


def test_degenerate_weights_reduce_to_point_to_point():
    problem = _single_packet_problem(1.0, 1.0)
    solution = solve_broadcast(problem)
    p2p = taut_string(problem.harvested)
    assert solution.total_schedule.segments == p2p.schedule.segments
    assert solution.string.vertices == p2p.vertices
    assert solution.user2_data == 0.0
    assert solution.user1_data == pytest.approx(
        throughput(p2p.schedule, awgn_rate(1.0)), abs=1e-12
    )


def test_single_packet_split_and_data():
    solution = solve_broadcast(_single_packet_problem(1.0, 2.0))
    assert solution.total_schedule.segments == ((0.0, 4.0, 2.0),)
    assert solution.user1_schedule.segments == ((0.0, 4.0, 1.0),)
    assert solution.user2_schedule.segments == ((0.0, 4.0, 1.0),)
    assert solution.user1_data == pytest.approx(2.0, abs=1e-12)
    assert solution.user2_data == pytest.approx(4.0 * 0.5 * math.log2(1.25), abs=1e-12)
    assert solution.weighted_sum == pytest.approx(
        solution.user1_data + 2.0 * solution.user2_data, abs=1e-12
    )


def test_two_packet_split_sequence():
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 3.0)], 4.0)
    problem = BroadcastProblem(
        noise1=1.0, noise2=3.0, mu1=1.0, mu2=2.0, harvested=harvested
    )
    solution = solve_broadcast(problem)
    totals = [p for _, _, p in solution.total_schedule.segments]
    assert totals == pytest.approx([0.5, 1.5], abs=1e-12)
    u1 = [p for _, _, p in solution.user1_schedule.segments]
    u2 = [p for _, _, p in solution.user2_schedule.segments]
    assert u1 == pytest.approx([0.5, 1.0], abs=1e-12)
    assert u2 == pytest.approx([0.0, 0.5], abs=1e-12)


def test_power_conservation_exact():
    harvested = from_packet_arrivals([(0.0, 1.5), (1.0, 2.0), (3.0, 1.0)], 5.0)
    problem = BroadcastProblem(
        noise1=0.8, noise2=2.4, mu1=1.0, mu2=1.7, harvested=harvested
    )
    solution = solve_broadcast(problem)
    for (t0, t1, p), (_, _, p1), (_, _, p2) in zip(
        solution.total_schedule.segments,
        solution.user1_schedule.segments,
        solution.user2_schedule.segments,
    ):
        assert p1 + p2 == pytest.approx(p, abs=1e-15)
        assert p1 >= 0.0 and p2 >= 0.0


def test_total_schedule_ignores_weights_in_shared_regime():
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 3.0)], 4.0)
    base = taut_string(harvested)
    for mu2 in (1.5, 2.0, 2.9):
        problem = BroadcastProblem(
            noise1=1.0, noise2=3.0, mu1=1.0, mu2=mu2, harvested=harvested
        )
        solution = solve_broadcast(problem)
        assert solution.string.vertices == base.vertices


@pytest.mark.parametrize("mu2", [0.5, 2.0, 5.0])  # user 1 only, shared, user 2 only
def test_solution_rate_gives_weighted_sum(mu2):
    harvested = from_packet_arrivals([(0.0, 1.5), (1.0, 2.0), (3.0, 1.0)], 5.0)
    problem = BroadcastProblem(
        noise1=1.0, noise2=3.0, mu1=1.0, mu2=mu2, harvested=harvested
    )
    solution = solve_broadcast(problem)
    assert throughput(solution.total_schedule, solution.rate) == pytest.approx(
        solution.weighted_sum, rel=1e-12
    )


def test_threshold_rounded_below_zero_gives_user1_no_power():
    # mu2 / mu1 is noise2 / noise1 as floats, and the crossover power rounds
    # to -1.3e-16; the threshold clamps it to zero, so user 1 sends nothing
    noise1, noise2 = 0.559911975193751, 1.514539078448115
    mu2 = noise2 / noise1
    assert power_threshold(1.0, mu2, noise1, noise2) == 0.0
    harvested = from_packet_arrivals([(0.0, 2.0), (1.0, 1.0)], 3.0)
    solution = solve_broadcast(BroadcastProblem(noise1, noise2, 1.0, mu2, harvested))
    assert solution.user1_schedule.segments == ((0.0, 3.0, 0.0),)
    assert solution.user1_data == 0.0
    assert_schedule_rebuilds(solution.user1_schedule)


@pytest.mark.parametrize("mu2", [0.5, 2.0, 5.0])  # user 1 only, shared, user 2 only
def test_user_schedules_equal_their_validating_rebuild(mu2):
    for seed in range(60):
        harvested, minimum = random_corridor(seed)
        problem = BroadcastProblem(1.0, 3.0, 1.0, mu2, harvested, minimum)
        solution = solve_broadcast(problem)
        assert_schedule_rebuilds(solution.user1_schedule)
        assert_schedule_rebuilds(solution.user2_schedule)
