"""Cumulative-curve construction, evaluation, builders, and feasibility."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RATE1,
    assert_rebuilds,
    assert_schedule_rebuilds,
    leaky_train,
    narrow_gate_train,
    pointwise_check_feasible,
    pointwise_corridor_gates,
    pointwise_min_energy_from_battery,
    random_corridor,
    reference_largest_excess,
    solar_harvested_energy,
)
from ehsched import (
    DEFAULT_TOL,
    BatterySchedule,
    BroadcastProblem,
    CumulativeCurve,
    InfeasibleError,
    PiecewiseCurve,
    PowerSchedule,
    LeakageProblem,
    check_feasible,
    compare_ST_NT,
    dual_bound,
    dying_battery_scenario,
    from_packet_arrivals,
    integrate_rate,
    merge_times,
    min_energy_from_battery,
    optimality_certificate,
    random_feasible_schedule,
    simulate,
    solar_harvest_rate,
    solve_broadcast,
    solve_n_packet,
    taut_string,
    throughput,
    zero_curve,
)
from ehsched import curves
from ehsched.curves import corridor_gates


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
# PiecewiseCurve.eval


@st.composite
def jump_curves(draw):
    """Cumulative curves with ramps, flats and upward jumps."""
    n = draw(st.integers(1, 8))
    t, v = 0.0, 0.0
    bps = []
    for _ in range(n + 1):
        left = v
        v += draw(st.sampled_from((0.0, 0.5, 2.0))) * draw(st.floats(0.0, 3.0))
        bps.append((t, left, v))
        t += draw(st.floats(0.01, 3.0))
        v += draw(st.floats(0.0, 3.0))
    return CumulativeCurve(tuple(bps), bps[-1][0])


@st.composite
def battery_schedules(draw):
    """Continuous capacity profiles with 2-6 knots."""
    n = draw(st.integers(2, 6))
    t, knots = 0.0, []
    for _ in range(n):
        knots.append((t, draw(st.floats(0.0, 5.0))))
        t += draw(st.floats(0.01, 3.0))
    return BatterySchedule(knots)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(jump_curves(), battery_schedules()), st.data())
def test_eval_reads_its_own_piece(curve, data):
    T = curve.horizon
    tol = DEFAULT_TOL * max(1.0, T)
    bps = curve.breakpoints
    for t, vl, vr in bps:
        assert (curve.eval_left(t), curve.eval(t)) == (vl, vr)
    # within the tolerance outside the domain, eval clamps to its ends
    assert curve.eval_left(-0.5 * tol) == bps[0][1]
    assert curve.eval(T + 0.5 * tol) == bps[-1][2]
    inside = [0.5 * (a + b) for a, b in zip(curve.times, curve.times[1:])]
    inside += data.draw(st.lists(st.floats(0.0, T), max_size=5))
    for t in inside:
        if t in curve.times:
            continue
        (t0, _, v0), (t1, v1, _) = next(
            (a, b) for a, b in zip(bps, bps[1:]) if a[0] < t < b[0]
        )
        expected = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        assert curve.eval_left(t) == curve.eval(t) == expected

    outside = data.draw(st.sampled_from((-10.0 * tol, T + 10.0 * tol)))
    with pytest.raises(ValueError, match="outside the curve domain"):
        curve.eval(outside)


def test_eval_limits_at_a_staircase_jump():
    stairs = from_packet_arrivals([(0.0, 2.0), (2.0, 2.0)], 4.0)
    times = [0.0, 2.0, 2.0, 3.0]
    assert [stairs.eval_left(t) for t in times] == [0.0, 2.0, 2.0, 4.0]
    assert [stairs.eval(t) for t in times] == [2.0, 4.0, 4.0, 4.0]


def test_nan_time_is_outside_the_domain():
    stairs = from_packet_arrivals([(0.0, 2.0), (2.0, 2.0)], 4.0)
    with pytest.raises(ValueError, match="outside the curve domain"):
        stairs.eval(float("nan"))


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


@pytest.mark.parametrize(
    "packets, message",
    [
        # every number is converted before any check
        ([(2.0, 1.0), (1.0, 1.0), (3.0, "x")], "could not convert string to float: 'x'"),
        # the order of all times before any packet's energy or time
        ([(0.0, -1.0), (2.0, 1.0), (1.0, 1.0)], "packet arrival times must strictly increase at t=1.0"),
        ([(1.0, 1.0), (1.0, 1.0)], "packet arrival times must strictly increase at t=1.0"),
        # then packet by packet, its energy before its time
        ([(0.0, 1.0), (5.0, -1.0)], "packet energy must be positive and finite, got -1.0 at t=5.0"),
        ([(5.0, 1.0), (6.0, -1.0)], "packet at t=5.0 outside [0, 4.0]"),
        ([(-1.0, 1.0)], "packet at t=-1.0 outside [0, 4.0]"),
        ([(-0.0, 1.0), (1.0, 0.0)], "packet energy must be positive and finite, got 0.0 at t=1.0"),
    ],
)
def test_packet_refusals_keep_their_precedence(packets, message):
    for given in (packets, iter(packets)):
        with pytest.raises(ValueError) as raised:
            from_packet_arrivals(given, 4.0)
        assert str(raised.value) == message


def test_packets_from_an_iterator_build_the_same_curve():
    packets = [(0.0, 1.5), (1, 2), (2.5, 0.25)]
    curve = from_packet_arrivals(iter(packets), 4)
    assert curve == from_packet_arrivals(packets, 4.0)
    assert curve.breakpoints == (
        (0.0, 0.0, 1.5),
        (1.0, 1.5, 3.5),
        (2.5, 3.5, 3.75),
        (4.0, 3.75, 3.75),
    )
    assert_rebuilds(curve)


# --------------------------------------------------------------------------
# integrate_rate


def test_solar_sunrise_and_total():
    # a wrapper is integrated by the trapezoid rule, not in closed form
    curve = integrate_rate(lambda t: solar_harvest_rate(t), 18.0, resolution=1024)
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
    coarse = integrate_rate(lambda t: solar_harvest_rate(t), 18.0, resolution=128)
    fine = integrate_rate(lambda t: solar_harvest_rate(t), 18.0, resolution=256)
    err_coarse = abs(coarse.eval(18.0) - 40.0)
    err_fine = abs(fine.eval(18.0) - 40.0)
    assert err_fine <= err_coarse + 1e-12


def test_integrate_rate_last_edge_is_the_horizon():
    # 19.343151820042713 * 861 / 861 rounds to a different float
    horizon = 19.343151820042713
    curve = integrate_rate(solar_harvest_rate, horizon, resolution=861)
    assert curve.breakpoints[-1][0] == horizon
    assert curve.eval(horizon) == pytest.approx(40.0, abs=1e-6)


@pytest.mark.parametrize("horizon", [5.0, 18.0, 24.0, 19.343151820042713])
@pytest.mark.parametrize("resolution", [64, 861, 1024, 8192])
def test_solar_harvest_is_integrated_exactly(horizon, resolution):
    curve = integrate_rate(solar_harvest_rate, horizon, resolution)
    # the quadrature's grid: T*k/n, the last at T
    grid = tuple(horizon * k / resolution for k in range(resolution)) + (horizon,)
    assert curve.times == grid
    previous = 0.0
    for t, vl, vr in curve.breakpoints:
        assert vl == vr
        assert abs(vr - solar_harvested_energy(t)) <= 1e-13, t
        assert vr >= previous, t
        previous = vr
    assert curve.breakpoints[0][2] == 0.0


def test_exact_solar_harvest_is_the_limit_of_the_quadrature():
    exact = integrate_rate(solar_harvest_rate, 18.0, 1024)
    quadrature = integrate_rate(lambda t: solar_harvest_rate(t), 18.0, 1024)
    assert exact.times == quadrature.times
    gaps = [
        abs(e - q)
        for (_, _, e), (_, _, q) in zip(exact.breakpoints, quadrature.breakpoints)
    ]
    # the trapezoid rule's own O(h^2) error at 32 x 1024 sub-intervals
    assert 0.0 < max(gaps) <= 1e-7
    assert exact.eval(18.0) == 40.0


def test_integrate_rate_single_cell():
    curve = integrate_rate(lambda t: 2.0, 3.0, resolution=1)
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
    # a floor that jumps at t=-0.0 shares t=0 with the spent curve, whose
    # time the report keeps
    floor = from_packet_arrivals([(-0.0, 1.0)], 4.0)
    report = check_feasible(PowerSchedule.constant(0.5, 4.0), floor, harvested)
    assert (report.max_shortfall, repr(report.shortfall_time)) == (1.0, "0.0")
    _assert_walk_matches(PowerSchedule.constant(0.5, 4.0), floor, harvested)


def test_excess_read_at_both_limits_of_a_step_within_the_slack():
    # a curve may step down by less than its slack; where the other curve
    # has no breakpoint, the walk reads the excess at both limits of the step
    line = PowerSchedule.constant(1.0, 2.0)
    harvested = CumulativeCurve(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0 - 1e-10), (2.0, 2.0, 2.0)), 2.0)
    report = check_feasible(line, zero_curve(2.0), harvested)
    assert (report.max_overdraw, report.overdraw_time) == (1.0 - (1.0 - 1e-10), 1.0)
    floor = CumulativeCurve(((0.0, 0.0, 0.0), (1.0, 1.0 + 1e-10, 1.0), (2.0, 1.0, 1.0)), 2.0)
    report = check_feasible(line, floor, from_packet_arrivals([(0.0, 4.0)], 2.0))
    assert (report.max_shortfall, report.shortfall_time) == ((1.0 + 1e-10) - 1.0, 1.0)
    _assert_walk_matches(line, zero_curve(2.0), harvested)
    _assert_walk_matches(line, floor, from_packet_arrivals([(0.0, 4.0)], 2.0))


def test_check_feasible_mismatched_horizons():
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 2.0)], 3.0)
    schedule = PowerSchedule.constant(1.0, 3.0)
    for floor_horizon in (2.0, 4.0):
        with pytest.raises(ValueError, match="horizon mismatch"):
            check_feasible(schedule, zero_curve(floor_horizon), harvested)


# --------------------------------------------------------------------------
# non-finite numbers

NAN, INF = math.nan, math.inf
NON_FINITE = {
    "battery-nan": (lambda: BatterySchedule.constant(NAN, 3.0), "battery capacity must be finite"),
    "battery-inf": (lambda: BatterySchedule.constant(INF, 3.0), "battery capacity must be finite"),
    "packet-energy-nan": (lambda: from_packet_arrivals([(0.0, NAN)], 2.0), "positive and finite, got nan"),
    "packet-energy-inf": (lambda: from_packet_arrivals([(0.0, INF)], 2.0), "positive and finite, got inf"),
    "packet-time-nan": (lambda: from_packet_arrivals([(NAN, 1.0)], 2.0), "packet at t=nan outside"),
    "packet-horizon-inf": (lambda: from_packet_arrivals([(0.0, 1.0)], INF), "horizon must be finite, got inf"),
    "packet-horizon-nan": (lambda: from_packet_arrivals([(0.0, 1.0)], NAN), "horizon must be finite, got nan"),
    "packet-total-inf": (
        lambda: from_packet_arrivals([(0.0, 1e308), (1.0, 1e308)], 2.0),
        "ends at a non-finite value inf",
    ),
    "rate-nan": (lambda: integrate_rate(lambda t: NAN, 4.0, 16), "harvest rate is negative or NaN"),
    "rate-inf": (lambda: integrate_rate(lambda t: INF, 4.0, 16), "integrates to a non-finite inf"),
    "rate-horizon-inf": (lambda: integrate_rate(lambda t: 1.0, INF, 16), "horizon must be finite"),
    "power-nan": (lambda: PowerSchedule(((0.0, 1.0, NAN),)), "power must be finite and non-negative, got nan"),
    "power-inf": (lambda: PowerSchedule(((0.0, 1.0, INF),)), "power must be finite and non-negative, got inf"),
    "schedule-end-inf": (lambda: PowerSchedule(((0.0, INF, 1.0),)), "must end at a finite time"),
    "schedule-energy-inf": (
        lambda: PowerSchedule(((0.0, 1.0, 1e308), (1.0, 3.0, 1e308))).energy_curve(),
        "spends a non-finite energy inf",
    ),
    "energy-curve-horizon-nan": (
        lambda: PowerSchedule.constant(1.0, 2.0).energy_curve(NAN),
        "horizon nan shorter than the schedule",
    ),
    "energy-curve-horizon-inf": (
        lambda: PowerSchedule.constant(1.0, 2.0).energy_curve(INF),
        "horizon must be finite, got inf",
    ),
    "curve-horizon-inf": (
        lambda: CumulativeCurve(((0.0, 0.0, 0.0), (INF, 1.0, 1.0)), INF),
        "horizon must be positive and finite, got inf",
    ),
    "curve-value-nan": (
        lambda: CumulativeCurve(((0.0, 0.0, NAN), (1.0, 1.0, 1.0)), 1.0),
        "cumulative curve is negative or NaN at t=0.0",
    ),
    "curve-end-inf": (
        lambda: CumulativeCurve(((0.0, 0.0, 0.0), (1.0, 1.0, INF)), 1.0),
        "ends at a non-finite value inf",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_numbers_are_refused(case):
    build, message = NON_FINITE[case]
    with pytest.raises(ValueError, match=message):
        build()


def test_energy_curve_horizon_errors():
    schedule = PowerSchedule.constant(1.0, 2.0)
    with pytest.raises(ValueError, match="horizon 1.5 shorter than the schedule"):
        schedule.energy_curve(1.5)
    assert schedule.energy_curve(3.0).breakpoints == (
        (0.0, 0.0, 0.0),
        (2.0, 2.0, 2.0),
        (3.0, 2.0, 2.0),
    )


# --------------------------------------------------------------------------
# curves built without checks against their validating rebuild


def test_trusted_curves_equal_their_validating_rebuild():
    for seed in range(300):
        harvested, minimum = random_corridor(seed)
        assert_rebuilds(harvested)
        assert_rebuilds(minimum)
        T = harvested.horizon
        schedules = [
            taut_string(harvested, minimum).schedule,
            random_feasible_schedule(harvested, minimum, seed=seed),
            PowerSchedule.constant(0.0, 0.5 * T),
        ]
        for schedule in schedules:
            assert_schedule_rebuilds(schedule)
            for horizon in (None, T, 2.0 * T):
                assert_rebuilds(schedule.energy_curve(horizon))
    rng = random.Random(9)
    for n in (1, 5, 50, 500):
        t, packets = 0.0, []
        for _ in range(n):
            packets.append((t, rng.uniform(0.3, 3.0)))
            t += rng.uniform(0.05, 2.0)
        harvested = from_packet_arrivals(packets, t)
        assert_rebuilds(harvested)
        for capacity in (0.0, 1.0, 3.5, 1e9):
            battery = BatterySchedule.constant(capacity, t)
            minimum = min_energy_from_battery(harvested, battery)
            assert_rebuilds(minimum)
            if capacity > 3.0:  # above every packet, so the corridor is open
                assert_schedule_rebuilds(taut_string(harvested, minimum).schedule)
        assert_rebuilds(min_energy_from_battery(harvested, _random_battery(rng, t, 3.0)))


def test_every_builder_rebuilds_from_its_rows():
    packets, T = narrow_gate_train(64)
    harvested = from_packet_arrivals(packets, T)
    minimum = min_energy_from_battery(harvested, BatterySchedule.constant(3.5, T))
    string = taut_string(harvested, minimum)
    broadcast = solve_broadcast(BroadcastProblem(1.0, 3.0, 1.0, 2.0, harvested))
    problem = leaky_train(64)
    leakage = solve_n_packet(problem)
    trace = simulate(leakage.schedule, problem)
    schedules = [
        string.schedule,
        broadcast.total_schedule,
        broadcast.user1_schedule,
        broadcast.user2_schedule,
        leakage.schedule,
        random_feasible_schedule(harvested, minimum, seed=1),
    ]
    curves = [
        harvested,
        minimum,
        zero_curve(T),
        *dying_battery_scenario([1.0, 2.5, 0.5], [1.0, 3.0, 3.5]),
        integrate_rate(solar_harvest_rate, 18.0, 64),
        integrate_rate(lambda t: 1.0 + math.sin(t), 5.0, 8),
        trace.transmitted,
        trace.leaked,
        trace.usable,
        *(s.energy_curve(s.end_time + 1.0) for s in schedules),
    ]
    for curve in curves:
        assert_rebuilds(curve)
    for schedule in schedules:
        assert_schedule_rebuilds(schedule)


def test_rows_are_built_from_the_columns_once():
    curve = CumulativeCurve(((0, 0, 1), (2, 3, 3), (5, 4, 4)), 5)
    assert curve.times == (0.0, 2.0, 5.0)
    assert (curve.left, curve.right) == ((0.0, 3.0, 4.0), (1.0, 3.0, 4.0))
    assert "breakpoints" not in vars(curve)
    rows = curve.breakpoints
    assert rows == ((0.0, 0.0, 1.0), (2.0, 3.0, 3.0), (5.0, 4.0, 4.0))
    assert curve.breakpoints is rows
    schedule = PowerSchedule(((0, 1, 2), (1, 3, 0.5)))
    assert (schedule.starts, schedule.ends, schedule.powers) == ((0.0, 1.0), (1.0, 3.0), (2.0, 0.5))
    assert "segments" not in vars(schedule)
    assert schedule.segments == ((0.0, 1.0, 2.0), (1.0, 3.0, 0.5))
    assert schedule.segments is schedule.segments


def _built_no_rows(*objects) -> bool:
    """Whether none of the curves and schedules has built its rows."""
    return not any({"breakpoints", "segments"} & vars(o).keys() for o in objects)


def test_solves_replays_and_checks_build_no_rows(monkeypatch):
    spent = []
    energy_curve = PowerSchedule.energy_curve

    def recorded(schedule, horizon=None):
        spent.append(energy_curve(schedule, horizon))
        return spent[-1]

    monkeypatch.setattr(PowerSchedule, "energy_curve", recorded)
    packets, T = narrow_gate_train(300)
    harvested = from_packet_arrivals(packets, T)
    # a capped train takes the corridor walk, a zero floor the NumPy pre-pass
    for minimum in (
        min_energy_from_battery(harvested, BatterySchedule.constant(3.5, T)),
        zero_curve(T),
    ):
        solution = taut_string(harvested, minimum)
        schedule = solution.schedule
        assert check_feasible(schedule, minimum, harvested).feasible
        assert optimality_certificate(solution, minimum, harvested).ok
        throughput(schedule, RATE1)
        dual_bound(schedule, harvested, minimum, RATE1)
        rival = random_feasible_schedule(harvested, minimum, seed=3)
        check_feasible(rival, minimum, harvested)
        assert _built_no_rows(harvested, minimum, schedule, rival, *spent)
    broadcast = solve_broadcast(BroadcastProblem(1.0, 3.0, 1.0, 2.0, harvested))
    assert _built_no_rows(
        broadcast.total_schedule, broadcast.user1_schedule, broadcast.user2_schedule
    )
    for problem in (leaky_train(300), LeakageProblem(((0.0, 2.0), (1.0, 1.0)), 0.5, None, RATE1)):
        solution = solve_n_packet(problem)
        trace = simulate(solution.schedule, problem)
        if problem.deadline is not None:
            compare_ST_NT(problem)
        assert trace.infeasible_at is None
        assert _built_no_rows(solution.schedule, trace.transmitted, trace.leaked, trace.usable)
    assert spent and _built_no_rows(*spent)


# --------------------------------------------------------------------------
# the gates corridor_gates keeps on the harvest curve


def _gate_hex(result) -> tuple:
    """``corridor_gates``' result as the ``float.hex`` of every value."""
    gates, end_value = result
    return tuple(tuple(v.hex() for v in gate) for gate in gates), end_value.hex()


def _capped_corridor(n: int = 60):
    packets, T = narrow_gate_train(n)
    harvested = from_packet_arrivals(packets, T)
    return harvested, min_energy_from_battery(harvested, BatterySchedule.constant(3.5, T))


def _counted_walks(monkeypatch) -> list:
    """The corridors ``corridor_gates`` walks from here on, one per build."""
    walks = []
    walk = curves._corridor_walk
    monkeypatch.setattr(
        curves, "_corridor_walk", lambda h, m: walks.append((h, m)) or walk(h, m)
    )
    return walks


def test_kept_gates_equal_a_fresh_build(monkeypatch):
    walks = _counted_walks(monkeypatch)
    harvested, minimum = _capped_corridor()
    first = _gate_hex(corridor_gates(harvested, minimum))
    assert [_gate_hex(corridor_gates(harvested, minimum)) for _ in range(3)] == [first] * 3
    # built once, and equal to the gates of new curves with the same columns
    assert len(walks) == 1
    assert _gate_hex(corridor_gates(*_capped_corridor())) == first
    assert _gate_hex(pointwise_corridor_gates(harvested, minimum)) == first


def test_a_changed_gate_list_leaves_the_kept_gates_intact():
    harvested, minimum = _capped_corridor()
    fresh = corridor_gates(harvested, minimum)
    gates, _ = corridor_gates(harvested, minimum)
    # the changes the rival draw makes to its list, and more
    gates.pop()
    gates.insert(3, (0.5, 0.0, 0.0))
    gates[0] = (1.0, 2.0, 3.0)
    del gates[10:]
    assert corridor_gates(harvested, minimum) == fresh
    assert corridor_gates(harvested, minimum)[0] is not corridor_gates(harvested, minimum)[0]


def test_an_equal_floor_object_builds_its_own_gates(monkeypatch):
    walks = _counted_walks(monkeypatch)
    harvested, minimum = _capped_corridor()
    twin = CumulativeCurve(minimum.breakpoints, minimum.horizon)
    assert twin == minimum and twin is not minimum
    gates = corridor_gates(harvested, minimum)
    assert corridor_gates(harvested, twin) == gates
    assert corridor_gates(harvested, twin) == gates
    assert [m is twin for _, m in walks] == [False, True]


def test_alternating_corridors_give_their_own_gates():
    harvested, capped = _capped_corridor()
    floor = zero_curve(harvested.horizon)
    bank = dying_battery_scenario([1.0, 2.0, 0.5], [1.0, 2.5, 4.0])
    corridors = [(harvested, capped), (harvested, floor), bank]
    expected = [_gate_hex(pointwise_corridor_gates(h, m)) for h, m in corridors]
    for _ in range(3):
        for (h, m), gates in zip(corridors, expected):
            assert _gate_hex(corridor_gates(h, m)) == gates
            assert _gate_hex(corridor_gates(h, m)) == gates


def test_a_shut_corridor_is_refused_on_every_call(monkeypatch):
    walks = _counted_walks(monkeypatch)
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 1.0)], 4.0)
    shut = from_packet_arrivals([(1.0, 1.5)], 4.0)
    for _ in range(3):
        with pytest.raises(InfeasibleError, match="floor exceeds ceiling at t=1.0"):
            corridor_gates(harvested, shut)
    assert len(walks) == 3 and "_gates" not in vars(harvested)
    # an open corridor on the same harvest is kept, and a shut one after it
    # is still refused, without replacing it
    gates, end_value = corridor_gates(harvested, zero_curve(4.0))
    with pytest.raises(InfeasibleError):
        corridor_gates(harvested, shut)
    assert vars(harvested)["_gates"][1:] == (tuple(gates), end_value)


def test_kept_gates_leave_equality_hash_and_repr_alone():
    harvested, minimum = _capped_corridor()
    plain, _ = _capped_corridor()
    corridor_gates(harvested, minimum)
    assert "_gates" in vars(harvested) and "_gates" not in vars(plain)
    assert harvested == plain and hash(harvested) == hash(plain)
    assert repr(harvested) == repr(plain)


def _rows_digest() -> str:
    """sha256 of the ``float.hex`` of the rows of packet trains (with and
    without a battery) and solar days, of their taut strings' schedules and
    spending curves and of a random feasible schedule each, and of the
    replays of the trains' strings under a leak.  No rate is read and no
    recorded value goes through ``sum`` (whose rounding changed in Python
    3.12), so the bits are the same on every platform."""
    tables = []
    for seed in range(120):
        rng = random.Random(seed)
        t, packets = 0.0, []
        for _ in range(rng.choice((1, 3, 12, 40, 300))):
            packets.append((t, rng.uniform(0.2, 3.0)))
            t += rng.uniform(0.1, 1.5)
        T = t + rng.uniform(0.2, 1.0)
        harvested = from_packet_arrivals(packets, T)
        if seed % 3:
            minimum = min_energy_from_battery(harvested, BatterySchedule.constant(3.2, T))
        else:
            minimum = zero_curve(T)
        corridors = [(harvested, minimum)]
        if seed % 10 == 0:
            day = integrate_rate(solar_harvest_rate, 18.0, 64 * (1 + seed // 10))
            corridors.append((day, zero_curve(18.0)))
        for h, m in corridors:
            schedule = taut_string(h, m).schedule
            rival = random_feasible_schedule(h, m, seed=seed)
            spent = schedule.energy_curve(h.horizon + 1.0)
            tables += [h.breakpoints, m.breakpoints, schedule.segments, rival.segments]
            tables.append(spent.breakpoints)
        deadline = None if seed % 4 == 0 else T + 1.0
        problem = LeakageProblem(tuple(packets), 0.05 + seed / 100, deadline, RATE1)
        trace = simulate(taut_string(harvested).schedule, problem)
        tables += [c.breakpoints for c in (trace.transmitted, trace.leaked, trace.usable)]
    text = ";".join(x.hex() for table in tables for row in table for x in row)
    return hashlib.sha256(text.encode()).hexdigest()


#: the digest of :func:`_rows_digest` when curves and schedules kept their
#: rows as tuples of tuples
ROWS_DIGEST = "eb7d025c39ebf490480baf4894ae56f7f584e6ba2cc34e4a7c8116263e82abd5"


def test_rows_keep_their_bits():
    assert _rows_digest() == ROWS_DIGEST


@pytest.mark.parametrize(
    "packets, horizon",
    [([(0.0, 1.0)], 0.0), ([], -1.0)],
    ids=["zero", "negative"],
)
def test_packet_curve_refuses_a_degenerate_horizon(packets, horizon):
    with pytest.raises(
        ValueError, match=f"horizon must be positive and finite, got {horizon}"
    ):
        from_packet_arrivals(packets, horizon)


# --------------------------------------------------------------------------
# the sampled helpers against their point-by-point references


def _outcome(fn, *args):
    """A helper's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_corridor_matches(harvested, minimum, schedules=()):
    assert _outcome(corridor_gates, harvested, minimum) == _outcome(
        pointwise_corridor_gates, harvested, minimum
    )
    for schedule in schedules:
        assert check_feasible(schedule, minimum, harvested) == (
            pointwise_check_feasible(schedule, minimum, harvested)
        )
        _assert_walk_matches(schedule, minimum, harvested)


def _assert_walk_matches(schedule, minimum, harvested):
    """``check_feasible`` gives the report, to the sign of a zero, that it
    gave when its walk read the tuples of ``_merged_limits``."""
    report = repr(check_feasible(schedule, minimum, harvested))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ehsched.curves._largest_excess", reference_largest_excess)
        assert report == repr(check_feasible(schedule, minimum, harvested))


def _scaled_powers(schedule: PowerSchedule, factor) -> PowerSchedule:
    """``schedule`` with each power times its own ``factor()``."""
    return PowerSchedule(
        tuple((t0, t1, p * factor()) for t0, t1, p in schedule.segments)
    )


def _near_schedules(rng: random.Random, string, rival):
    """The taut string with its powers scaled by U(0.97, 1.03), which
    overdraws or falls short, and the rival with its powers nudged by
    +-1e-15 relative, which ties the corridor to within rounding."""
    return [
        _scaled_powers(string, lambda: rng.uniform(0.97, 1.03)),
        _scaled_powers(rival, lambda: 1.0 + rng.choice((-1e-15, 1e-15))),
    ]


def _random_battery(rng: random.Random, horizon: float, scale: float):
    inner = sorted({rng.uniform(0.0, horizon) for _ in range(rng.randint(0, 4))})
    knots = (0.0, *(t for t in inner if 0.0 < t < horizon), horizon)
    return BatterySchedule(tuple((t, rng.uniform(0.3, 1.0) * scale) for t in knots))


def test_sampled_helpers_match_references_on_random_corridors():
    rng = random.Random(4)
    for seed in range(300):
        harvested, minimum = random_corridor(seed)
        T = harvested.horizon
        end = harvested.eval_left(T)
        string = taut_string(harvested, minimum).schedule
        rival = random_feasible_schedule(harvested, minimum, seed=seed)
        schedules = [
            string,
            rival,
            *_near_schedules(rng, string, rival),
            # straight lines that overdraw or fall short somewhere
            PowerSchedule.constant(end / T, T),
            PowerSchedule.constant(2.0 * end / T, 0.5 * T),
            PowerSchedule.constant(0.0, T),
        ]
        _assert_corridor_matches(harvested, minimum, schedules)


def test_sampled_helpers_match_references_on_capped_trains():
    rng = random.Random(5)
    # floors that cross the running maximum inside a piece of a battery with
    # inner knots, and floors that touch the ceiling at a gate
    crossings = touches = 0
    for _ in range(300):
        t, packets = rng.choice((0.0, rng.uniform(0.1, 1.0))), []
        for _ in range(rng.randint(1, 8)):
            packets.append((t, rng.uniform(0.2, 3.0)))
            t += rng.uniform(0.05, 2.0)
        horizon = t
        harvested = from_packet_arrivals(packets, horizon)
        battery = _random_battery(rng, horizon, 2.0 * max(e for _, e in packets))
        minimum = min_energy_from_battery(harvested, battery)
        assert minimum.breakpoints == (
            pointwise_min_energy_from_battery(harvested, battery).breakpoints
        )
        if len(battery.breakpoints) > 2 and set(minimum.times) - set(
            merge_times(harvested, battery)
        ):
            crossings += 1
        outcome = _outcome(corridor_gates, harvested, minimum)
        if outcome[0] is not InfeasibleError and any(
            lo == hi for _, lo, hi in outcome[0][:-1]
        ):
            touches += 1
        schedules = [
            PowerSchedule.constant(harvested.eval(horizon) / horizon, horizon)
        ]
        try:
            schedules.append(random_feasible_schedule(harvested, minimum, seed=1))
        except InfeasibleError:
            pass  # a packet larger than the battery overflows at once
        _assert_corridor_matches(harvested, minimum, schedules)
    assert crossings and touches, (crossings, touches)
    # long trains with narrow gates; a 2.0 battery is below the largest
    # packet (3.0), so its corridor is shut and the schedules come from the
    # uncapped one
    for n in (100, 1000):
        packets, horizon = narrow_gate_train(n)
        harvested = from_packet_arrivals(packets, horizon)
        for capacity in (2.0, 3.5, 6.0):
            battery = BatterySchedule.constant(capacity, horizon)
            minimum = min_energy_from_battery(harvested, battery)
            floor = minimum if capacity > 3.0 else zero_curve(horizon)
            string = taut_string(harvested, floor).schedule
            rival = random_feasible_schedule(harvested, floor, seed=n)
            schedules = [string, rival, *_near_schedules(rng, string, rival)]
            _assert_corridor_matches(harvested, minimum, schedules)


def test_feasibility_walk_matches_reference_on_random_corridors():
    rng = random.Random(9)
    for seed in range(1500):
        harvested, minimum = random_corridor(seed)
        T = harvested.horizon
        string = taut_string(harvested, minimum).schedule
        end = harvested.eval_left(T)
        for schedule in (
            string,
            _scaled_powers(string, lambda: rng.uniform(0.97, 1.03)),
            PowerSchedule.constant(2.0 * end / T, 0.5 * T),
        ):
            _assert_walk_matches(schedule, minimum, harvested)


#: The benchmark's corridor-ladder sizes: 256 to 4096 in steps of 2^(1/4).
LADDER = tuple(round(256 * 2 ** (k / 4)) for k in range(17))


def _ladder_train(rng: random.Random, n: int) -> CumulativeCurve:
    t, packets = 0.0, []
    for _ in range(n):
        packets.append((t, rng.uniform(0.3, 3.0)))
        t += rng.uniform(0.3, 2.0)
    return from_packet_arrivals(packets, t + rng.uniform(0.5, 2.0))


def test_feasibility_walk_matches_reference_on_ladders():
    # the ladder's five corridor families, each with its solver's schedule
    # and that schedule's powers scaled off the corridor
    rng = random.Random(10)
    for n in LADDER:
        train = _ladder_train(rng, n)
        T = train.horizon
        capped = min_energy_from_battery(
            train, BatterySchedule.constant(max(r - l for _, l, r in train.breakpoints) + 0.5, T)
        )
        broadcast = _ladder_train(rng, n)
        total = solve_broadcast(BroadcastProblem(1.0, 3.0, 1.0, 2.0, broadcast))
        deaths = [0.0]
        for _ in range(n):
            deaths.append(deaths[-1] + rng.uniform(0.5, 2.0))
        amounts = [rng.uniform(0.5, 3.0) for _ in range(n)]
        solar = integrate_rate(solar_harvest_rate, 18.0, n)
        for harvested, minimum, schedule in (
            (train, zero_curve(T), taut_string(train).schedule),
            (train, capped, taut_string(train, capped).schedule),
            (*dying_battery_scenario(amounts, deaths[1:]), None),
            (broadcast, zero_curve(broadcast.horizon), total.total_schedule),
            (solar, zero_curve(18.0), taut_string(solar).schedule),
        ):
            if schedule is None:
                schedule = taut_string(harvested, minimum).schedule
            _assert_walk_matches(schedule, minimum, harvested)
            scaled = _scaled_powers(schedule, lambda: rng.uniform(0.97, 1.03))
            _assert_walk_matches(scaled, minimum, harvested)


def _random_stairs_and_ramps(rng: random.Random, times, scale: float, at_zero: float):
    """A cumulative curve on ``times`` (0 to the horizon) with random ramps
    and jumps; it jumps at t=0 with probability ``at_zero``."""
    v = rng.uniform(0.0, scale) if rng.random() < at_zero else 0.0
    bps = [(0.0, 0.0, v)]
    for t in times[1:]:
        left = v + rng.choice((0.0, rng.uniform(0.0, scale)))
        v = left + rng.choice((0.0, rng.uniform(0.0, scale)))
        bps.append((t, left, v))
    return CumulativeCurve(tuple(bps), times[-1])


def test_sampled_helpers_match_references_on_infeasible_corridors():
    rng = random.Random(8)
    kinds = {
        "instantaneously": 0,
        "just before": 0,
        "exceeds ceiling at": 0,
        "available before the jump": 0,
    }
    for _ in range(300):
        horizon = rng.uniform(1.0, 6.0)
        shared = {rng.uniform(0.0, horizon) for _ in range(rng.randint(0, 3))}
        harvest_times, floor_times = (
            [0.0, *sorted(shared | {rng.uniform(0.0, horizon)}), horizon]
            for _ in range(2)
        )
        harvested = _random_stairs_and_ramps(rng, harvest_times, 3.0, 0.5)
        minimum = _random_stairs_and_ramps(rng, floor_times, 2.0, 0.1)
        schedules = [PowerSchedule.constant(rng.uniform(0.0, 2.0), horizon)]
        _assert_corridor_matches(harvested, minimum, schedules)
        outcome = _outcome(corridor_gates, harvested, minimum)
        if outcome[0] is InfeasibleError:
            kinds[next(k for k in kinds if k in outcome[1])] += 1
    # every kind of pinch is covered: at t=0, before, at and across a jump
    assert all(kinds.values()), kinds
