"""Cumulative-curve construction, evaluation, builders, and feasibility."""

from __future__ import annotations

import random

import pytest

from ehsched import (
    BatterySchedule,
    CumulativeCurve,
    PiecewiseCurve,
    PowerSchedule,
    check_feasible,
    dying_battery_scenario,
    from_packet_arrivals,
    integrate_rate,
    merge_times,
    min_energy_from_battery,
    solar_harvest_rate,
    solar_harvested_energy,
    zero_curve,
)


# --------------------------------------------------------------------------
# CumulativeCurve invariants and evaluation


def test_curve_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        CumulativeCurve(((0.0, 0.0, 0.0),), 1.0)  # missing horizon breakpoint
    with pytest.raises(ValueError):
        CumulativeCurve(((0.5, 0.0, 0.0), (1.0, 1.0, 1.0)), 1.0)  # starts late
    with pytest.raises(ValueError):
        CumulativeCurve(((0.0, 0.0, 2.0), (1.0, 1.0, 1.0)), 1.0)  # decreases
    with pytest.raises(ValueError):
        CumulativeCurve(((0.0, 1.0, 0.5), (1.0, 1.0, 1.0)), 1.0)  # downward jump
    with pytest.raises(ValueError):
        CumulativeCurve(((0.0, -1.0, 0.0), (1.0, 1.0, 1.0)), 1.0)  # negative


def test_eval_jump_semantics():
    stairs = from_packet_arrivals([(0.0, 2.0), (2.0, 2.0)], 4.0)
    assert stairs.eval(2.0) == 4.0
    assert stairs.eval_left(2.0) == 2.0
    assert stairs.eval(0.0) == 2.0
    assert stairs.eval_left(0.0) == 0.0
    assert stairs.eval(1.0) == 2.0
    assert stairs.eval(4.0) == 4.0


def test_eval_linear_interpolation():
    ramp = CumulativeCurve(((0.0, 0.0, 0.0), (3.0, 3.0, 3.0)), 3.0)
    assert ramp.eval(1.5) == pytest.approx(1.5, abs=1e-15)
    assert ramp.eval_left(1.5) == pytest.approx(1.5, abs=1e-15)


def test_eval_zero_curve():
    z = zero_curve(5.0)
    for t in (0.0, 1.7, 5.0):
        assert z.eval(t) == 0.0
        assert z.eval_left(t) == 0.0


def test_eval_outside_domain_raises():
    z = zero_curve(5.0)
    with pytest.raises(ValueError):
        z.eval(5.5)
    with pytest.raises(ValueError):
        z.eval(-0.5)


# --------------------------------------------------------------------------
# from_packet_arrivals


def test_single_packet_is_constant():
    curve = from_packet_arrivals([(0.0, 3.0)], 5.0)
    for t in (0.0, 2.0, 5.0):
        assert curve.eval(t) == 3.0


def test_no_packets_is_zero():
    curve = from_packet_arrivals([], 5.0)
    assert curve.eval(5.0) == 0.0
    assert curve.breakpoints == zero_curve(5.0).breakpoints


def test_staircase_matches_pointwise_sum():
    packets = [(0.0, 2.0), (2.0, 2.0)]
    curve = from_packet_arrivals(packets, 4.0)
    assert curve.eval(1.0) == 2.0
    assert curve.eval(2.0) == 4.0
    assert curve.eval(4.0) == 4.0
    rng = random.Random(7)
    for _ in range(50):
        t = rng.uniform(0.0, 4.0)
        expected = sum(e for tn, e in packets if tn <= t)
        assert curve.eval(t) == pytest.approx(expected, abs=1e-12)


def test_packet_validation_errors():
    with pytest.raises(ValueError):
        from_packet_arrivals([(1.0, 1.0), (1.0, 1.0)], 4.0)  # ties
    with pytest.raises(ValueError):
        from_packet_arrivals([(2.0, 1.0), (1.0, 1.0)], 4.0)  # decreasing
    with pytest.raises(ValueError):
        from_packet_arrivals([(0.0, -1.0)], 4.0)  # negative energy
    with pytest.raises(ValueError):
        from_packet_arrivals([(5.0, 1.0)], 4.0)  # past the horizon


# --------------------------------------------------------------------------
# integrate_rate


def test_solar_sunrise_and_total():
    curve = integrate_rate(solar_harvest_rate, 18.0, resolution=1024)
    # the cell straddling sunrise picks up O(h^2) spurious mass
    assert curve.eval(6.0) == pytest.approx(0.0, abs=1e-4)
    assert curve.eval(18.0) == pytest.approx(40.0, abs=1e-6)
    assert curve.eval(18.0) == pytest.approx(solar_harvested_energy(18.0), abs=1e-6)


def test_constant_rate_integrates_linearly():
    curve = integrate_rate(lambda t: 2.5, 4.0, resolution=16)
    for i in range(17):
        t = 4.0 * i / 16
        assert curve.eval(t) == pytest.approx(2.5 * t, abs=1e-12)


def test_integrate_rate_convergence():
    coarse = integrate_rate(solar_harvest_rate, 18.0, resolution=128)
    fine = integrate_rate(solar_harvest_rate, 18.0, resolution=256)
    err_coarse = abs(coarse.eval(18.0) - 40.0)
    err_fine = abs(fine.eval(18.0) - 40.0)
    assert err_fine <= err_coarse + 1e-12


def test_integrate_rate_last_edge_is_the_horizon():
    # 19.343151820042713 * 861 / 861 rounds to a different float
    horizon = 19.343151820042713
    curve = integrate_rate(solar_harvest_rate, horizon, resolution=861)
    assert curve.breakpoints[-1][0] == horizon
    assert curve.eval(horizon) == pytest.approx(40.0, abs=1e-6)


def test_integrate_rate_single_cell():
    curve = integrate_rate(lambda t: 2.0, 3.0, resolution=1, subsamples=1)
    assert curve.breakpoints == ((0.0, 0.0, 0.0), (3.0, 6.0, 6.0))


def test_integrate_rate_errors():
    with pytest.raises(ValueError):
        integrate_rate(lambda t: 1.0, 4.0, resolution=0)
    with pytest.raises(ValueError):
        integrate_rate(lambda t: -1.0, 4.0, resolution=16)


# --------------------------------------------------------------------------
# min_energy_from_battery


def test_battery_schedule_is_a_continuous_curve():
    battery = BatterySchedule(((0.0, 3.0), (2.0, 1.0), (4.0, 2.0)))
    assert isinstance(battery, PiecewiseCurve)
    assert battery.horizon == 4.0
    assert battery.eval(1.0) == 2.0
    assert battery.eval_left(2.0) == battery.eval(2.0) == 1.0
    assert BatterySchedule.constant(1.5, 4.0).eval(3.0) == 1.5
    bad = ((), ((0.0, 1.0),), ((1.0, 1.0), (4.0, 1.0)), ((0.0, 1.0), (4.0, -0.1)))
    for knots in bad:
        with pytest.raises(ValueError):
            BatterySchedule(knots)


def test_huge_battery_never_overflows():
    harvested = from_packet_arrivals([(0.0, 2.0), (2.0, 2.0)], 4.0)
    minimum = min_energy_from_battery(harvested, BatterySchedule.constant(100.0, 4.0))
    assert minimum.eval(4.0) == 0.0


def test_battery_overflow_staircase():
    harvested = from_packet_arrivals([(0.0, 2.0), (2.0, 2.0)], 4.0)
    minimum = min_energy_from_battery(harvested, BatterySchedule.constant(2.0, 4.0))
    # scan oracle: running max of max(H - b, 0) at dense sample times
    assert minimum.eval(1.0) == pytest.approx(0.0, abs=1e-12)
    assert minimum.eval_left(2.0) == pytest.approx(0.0, abs=1e-12)
    assert minimum.eval(2.0) == pytest.approx(2.0, abs=1e-12)
    assert minimum.eval(4.0) == pytest.approx(2.0, abs=1e-12)
    running = 0.0
    for i in range(401):
        t = 4.0 * i / 400
        running = max(running, harvested.eval(t) - 2.0, 0.0)
        assert minimum.eval(t) == pytest.approx(running, abs=1e-12)


def test_decreasing_capacity_forces_spending():
    # a smooth harvest against a shrinking battery: the floor rises and
    # stays below the harvest curve everywhere
    harvested = CumulativeCurve(((0.0, 0.0, 0.0), (4.0, 8.0, 8.0)), 4.0)
    battery = BatterySchedule(((0.0, 3.0), (4.0, 0.5)))
    minimum = min_energy_from_battery(harvested, battery)
    prev = 0.0
    for i in range(401):
        t = 4.0 * i / 400
        m = minimum.eval(t)
        assert m <= harvested.eval(t) + 1e-12
        assert m >= prev - 1e-12
        prev = m
    assert minimum.eval(4.0) == pytest.approx(7.5, abs=1e-9)


def test_min_energy_mismatched_horizons():
    harvested = from_packet_arrivals([(0.0, 1.0)], 4.0)
    with pytest.raises(ValueError):
        min_energy_from_battery(harvested, BatterySchedule.constant(1.0, 5.0))


def test_min_energy_randomized_bounds():
    # M is the running maximum of max(H - b, 0); H - b is linear between the
    # breakpoints of merge_times(H, b), so its maximum before t is taken over
    # both limits at those breakpoints and the left limit at t, exactly
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        t, packets = 0.0, []
        for _ in range(n):
            packets.append((t, rng.uniform(0.2, 3.0)))
            t += rng.uniform(0.4, 1.5)
        horizon = t + 0.5
        harvested = from_packet_arrivals(packets, horizon)
        inner = {rng.uniform(0.05, horizon - 0.05) for _ in range(rng.randint(0, 4))}
        knots = (0.0, *sorted(inner), horizon)
        battery = BatterySchedule(tuple((tk, rng.uniform(0.2, 6.0)) for tk in knots))
        minimum = min_energy_from_battery(harvested, battery)
        scale = max(1.0, harvested.eval(horizon))

        def overflow(tt, left):
            h = harvested.eval_left(tt) if left else harvested.eval(tt)
            return max(h - battery.eval(tt), 0.0)

        merged = merge_times(harvested, battery)
        grid = {horizon * i / 100 for i in range(101)}
        for tt in sorted(grid | set(merged)):
            before = [max(overflow(s, True), overflow(s, False)) for s in merged if s < tt]
            exact_left = max([0.0, *before, overflow(tt, True)])
            exact = max(exact_left, overflow(tt, False))
            assert minimum.eval_left(tt) == pytest.approx(exact_left, abs=1e-12 * scale)
            assert minimum.eval(tt) == pytest.approx(exact, abs=1e-12 * scale)


# --------------------------------------------------------------------------
# dying_battery_scenario


def test_dying_battery_pair():
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    assert harvested.eval(0.0) == 4.0
    assert harvested.eval(4.0) == 4.0
    assert minimum.eval(0.5) == 0.0
    assert minimum.eval_left(1.0) == 0.0
    assert minimum.eval(1.0) == 2.0
    assert minimum.eval(3.9) == 2.0
    assert minimum.eval(4.0) == 4.0


def test_single_dying_battery():
    harvested, minimum = dying_battery_scenario([5.0], [3.0])
    assert harvested.eval(1.0) == 5.0
    assert minimum.eval(2.9) == 0.0
    assert minimum.eval(3.0) == 5.0


def test_uniform_dying_staircase():
    _, minimum = dying_battery_scenario([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert minimum.eval(1.0) == 1.0
    assert minimum.eval(2.0) == 2.0
    assert minimum.eval(3.0) == 3.0


def test_dying_battery_errors():
    with pytest.raises(ValueError):
        dying_battery_scenario([], [])
    with pytest.raises(ValueError):
        dying_battery_scenario([1.0, 1.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        dying_battery_scenario([-1.0], [1.0])


# --------------------------------------------------------------------------
# PowerSchedule


def test_schedule_validation():
    with pytest.raises(ValueError):
        PowerSchedule(((0.0, 1.0, 1.0), (1.5, 2.0, 1.0)))  # gap
    with pytest.raises(ValueError):
        PowerSchedule(((0.5, 1.0, 1.0),))  # starts late
    with pytest.raises(ValueError):
        PowerSchedule(((0.0, 1.0, -0.5),))  # negative power
    with pytest.raises(ValueError):
        PowerSchedule(((0.0, 0.0, 1.0),))  # empty segment


def test_schedule_energy_accounting():
    sched = PowerSchedule(((0.0, 2.0, 0.5), (2.0, 4.0, 1.5)))
    assert sched.total_energy == pytest.approx(4.0, abs=1e-12)
    curve = sched.energy_curve(5.0)
    assert curve.eval(2.0) == pytest.approx(1.0, abs=1e-12)
    assert curve.eval(3.0) == pytest.approx(2.5, abs=1e-12)
    assert curve.eval(4.0) == pytest.approx(4.0, abs=1e-12)
    assert curve.eval(5.0) == pytest.approx(4.0, abs=1e-12)


# --------------------------------------------------------------------------
# check_feasible


def test_zero_schedule_feasible_on_zero_floor():
    report = check_feasible(
        PowerSchedule.constant(0.0, 4.0), zero_curve(4.0), zero_curve(4.0)
    )
    assert report.feasible


def test_overdraw_detected_before_jump():
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 2.0)], 4.0)
    report = check_feasible(
        PowerSchedule.constant(1.0, 4.0), zero_curve(4.0), harvested
    )
    assert not report.feasible
    assert report.max_overdraw == pytest.approx(1.0, abs=1e-9)
    assert report.overdraw_time == pytest.approx(2.0, abs=1e-12)


def test_boundary_contact_is_feasible():
    harvested = from_packet_arrivals([(0.0, 2.0), (2.0, 2.0)], 4.0)
    report = check_feasible(
        PowerSchedule.constant(1.0, 4.0), zero_curve(4.0), harvested
    )
    assert report.feasible
    assert report.max_overdraw <= 1e-12


def test_shortfall_detected():
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    report = check_feasible(PowerSchedule.constant(1.0, 4.0), minimum, harvested)
    assert not report.feasible
    assert report.max_shortfall == pytest.approx(1.0, abs=1e-9)
    assert report.shortfall_time == pytest.approx(1.0, abs=1e-12)
