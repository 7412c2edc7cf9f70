"""Taut-string optimizer: exact schedules, contacts, certificates, solar."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chord_certificate,
    narrow_gate_train,
    random_corridor,
    reference_taut_string,
    solar_harvested_energy,
    tangent_root,
)

from ehsched import (
    BatterySchedule,
    CumulativeCurve,
    InfeasibleError,
    PowerSchedule,
    StringSolution,
    awgn_rate,
    check_feasible,
    dual_bound,
    dying_battery_scenario,
    from_packet_arrivals,
    integrate_rate,
    min_energy_from_battery,
    optimality_certificate,
    random_feasible_schedule,
    solar_harvest_rate,
    solve_solar,
    taut_string,
    throughput,
    zero_curve,
)
from ehsched.curves import corridor_gates

RATE = awgn_rate(1.0)


def test_single_packet_constant_power():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    sol = taut_string(harvested, rate=RATE)
    assert sol.schedule.segments == ((0.0, 4.0, 1.0),)
    assert sol.total_data == pytest.approx(4.0 * RATE(1.0), abs=1e-12)
    # forcing the endpoint with a dying battery changes nothing
    harvested2, minimum2 = dying_battery_scenario([4.0], [4.0])
    sol2 = taut_string(harvested2, minimum2, rate=RATE)
    assert sol2.schedule.segments == ((0.0, 4.0, 1.0),)


def test_two_packets_slope_up_at_upper_contact():
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 3.0)], 4.0)
    sol = taut_string(harvested, rate=RATE)
    assert len(sol.schedule.segments) == 2
    (t0, t1, p1), (t2, t3, p2) = sol.schedule.segments
    assert (t0, t1, t2, t3) == (0.0, 2.0, 2.0, 4.0)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    assert p2 == pytest.approx(1.5, abs=1e-12)
    assert p2 > p1
    uppers = [c for c in sol.contacts if c.kind == "upper"]
    assert len(uppers) == 1 and uppers[0].time == pytest.approx(2.0, abs=1e-12)
    expected = 2.0 * RATE(0.5) + 2.0 * RATE(1.5)
    assert sol.total_data == pytest.approx(expected, abs=1e-12)


def test_dying_battery_slope_down_at_lower_contact():
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    sol = taut_string(harvested, minimum, rate=RATE)
    assert sol.vertices == ((0.0, 0.0), (1.0, 2.0), (4.0, 4.0))
    (_, _, p1), (_, _, p2) = sol.schedule.segments
    assert p1 == pytest.approx(2.0, abs=1e-12)
    assert p2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    lowers = [c for c in sol.contacts if c.kind == "lower"]
    assert len(lowers) == 1 and lowers[0].time == pytest.approx(1.0, abs=1e-12)
    expected = 1.0 * RATE(2.0) + 3.0 * RATE(2.0 / 3.0)
    assert sol.total_data == pytest.approx(expected, abs=1e-12)


def test_endpoint_pinned_exactly():
    for seed in range(20):
        harvested, minimum = random_corridor(seed)
        sol = taut_string(harvested, minimum)
        assert sol.schedule.total_energy == pytest.approx(
            harvested.eval_left(harvested.horizon), rel=1e-12
        )
        assert sol.vertices[-1][1] == pytest.approx(
            harvested.eval_left(harvested.horizon), rel=1e-12
        )


def test_solution_always_feasible():
    for seed in range(40):
        harvested, minimum = random_corridor(seed)
        sol = taut_string(harvested, minimum)
        report = check_feasible(sol.schedule, minimum, harvested)
        assert report.feasible, (seed, report)


def test_monotone_powers_without_floor():
    for seed in range(30):
        harvested, _ = random_corridor(seed * 3 + 1)
        sol = taut_string(harvested, zero_curve(harvested.horizon))
        powers = [p for _, _, p in sol.schedule.segments]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:])), powers


def test_rate_independent_geometry():
    harvested, minimum = dying_battery_scenario([2.0, 1.0, 3.0], [1.0, 2.5, 4.0])
    a = taut_string(harvested, minimum, rate=awgn_rate(1.0))
    b = taut_string(harvested, minimum, rate=awgn_rate(7.0))
    assert a.vertices == b.vertices


def test_infeasible_pinch_raises():
    harvested = from_packet_arrivals([(0.0, 1.0)], 4.0)
    minimum = from_packet_arrivals([(2.0, 2.0)], 4.0)  # floor above ceiling
    with pytest.raises(InfeasibleError):
        taut_string(harvested, minimum)


def test_instant_forced_spend_raises():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    minimum = from_packet_arrivals([(0.0, 1.0)], 4.0)  # M(0) > 0 = E(0)
    with pytest.raises(InfeasibleError):
        taut_string(harvested, minimum)


@pytest.mark.parametrize(
    "harvested, minimum, message",
    [
        (
            from_packet_arrivals([(0.0, 4.0)], 4.0),
            from_packet_arrivals([(0.0, 1.0)], 4.0),
            "the floor forces 1 energy to be spent instantaneously at t=0",
        ),
        (
            from_packet_arrivals([(0.0, 1.0)], 4.0),
            CumulativeCurve(((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), (4.0, 2.0, 2.0)), 4.0),
            "floor exceeds ceiling just before t=2.0",
        ),
        (
            from_packet_arrivals([(0.0, 1.0)], 4.0),
            from_packet_arrivals([(2.0, 2.0)], 4.0),
            "floor exceeds ceiling at t=2.0",
        ),
        (
            from_packet_arrivals([(0.0, 1.0), (2.0, 2.0)], 4.0),
            from_packet_arrivals([(2.0, 2.0)], 4.0),
            "floor 2 at t=2.0 exceeds the energy 1 available before the jump there",
        ),
        (
            from_packet_arrivals([(0.0, 1.0)], 4.0),
            zero_curve(5.0),
            "horizon mismatch: 5.0 != 4.0",
        ),
    ],
)
def test_pinches_are_refused_as_corridor_gates_refuses_them(harvested, minimum, message):
    with pytest.raises(ValueError) as gates:
        corridor_gates(harvested, minimum)
    with pytest.raises(ValueError) as string:
        taut_string(harvested, minimum)
    assert type(string.value) is type(gates.value)
    assert str(string.value) == str(gates.value) == message
    assert isinstance(string.value, InfeasibleError) == ("horizon" not in message)


def test_overflowing_slope_is_refused_as_the_schedule_refuses_it():
    # the floor forces one unit of energy out over the first 5e-324 seconds
    harvested = CumulativeCurve(((0.0, 0.0, 0.0), (5e-324, 1.0, 1.0), (1.0, 1.0, 1.0)), 1.0)
    minimum = min_energy_from_battery(harvested, BatterySchedule.constant(0.0, 1.0))
    with pytest.raises(
        ValueError, match=r"power must be finite and non-negative, got inf on \[0.0, 5e-324\]"
    ):
        taut_string(harvested, minimum)


# --------------------------------------------------------------------------
# solar model


def test_funnel_matches_reference_on_random_corridors():
    # the funnel that inlines the cross product and settles only after a
    # chain collapses bends at exactly the same points
    for seed in range(1500):
        harvested, minimum = random_corridor(seed)
        sol = taut_string(harvested, minimum)
        vertices, contacts = reference_taut_string(harvested, minimum)
        assert sol.vertices == vertices
        assert tuple((c.time, c.value, c.kind) for c in sol.contacts) == contacts


def test_funnel_matches_reference_on_long_trains():
    rng = random.Random(3)
    for n in (200, 800):
        t, packets = 0.0, []
        for _ in range(n):
            packets.append((t, rng.uniform(0.3, 3.0)))
            t += rng.uniform(0.3, 2.0)
        harvested = from_packet_arrivals(packets, t)
        capacity = max(e for _, e in packets) + 0.5
        amounts = [rng.uniform(0.5, 3.0) for _ in range(n)]
        deaths = [0.0]
        for _ in range(n):
            deaths.append(deaths[-1] + rng.uniform(0.5, 2.0))
        for corridor in (
            (harvested, zero_curve(t)),
            (
                harvested,
                min_energy_from_battery(harvested, BatterySchedule.constant(capacity, t)),
            ),
            # the corridor-ladder's other two families: a dying bank and the
            # solar day
            dying_battery_scenario(amounts, deaths[1:]),
            (integrate_rate(solar_harvest_rate, 18.0, n), zero_curve(18.0)),
        ):
            sol = taut_string(*corridor)
            vertices, contacts = reference_taut_string(*corridor)
            assert sol.vertices == vertices
            assert tuple((c.time, c.value, c.kind) for c in sol.contacts) == contacts
            assert len(vertices) > 3


def test_solar_departure_and_endpoint():
    sol = solve_solar(18.0, resolution=1024)
    end_t, end_v = sol.vertices[-1]
    assert end_t == 18.0
    assert end_v == pytest.approx(40.0, abs=1e-6)
    departure = max(c.time for c in sol.contacts if c.kind == "upper")
    assert departure == pytest.approx(tangent_root(18.0), abs=0.05)


def test_solar_final_slope_matches_tangent():
    sol = solve_solar(18.0, resolution=4096)
    root = tangent_root(18.0)
    final_power = sol.schedule.segments[-1][2]
    # chord slope from the tangency point to the endpoint
    expected = (solar_harvested_energy(18.0) - solar_harvested_energy(root)) / (
        18.0 - root
    )
    assert final_power == pytest.approx(expected, rel=1e-3)


def test_solar_late_deadline_spends_everything():
    sol = solve_solar(24.0, resolution=512)
    assert sol.schedule.total_energy == pytest.approx(40.0, rel=1e-6)
    for t0, t1, p in sol.schedule.segments:
        if t1 > 6.0 + 24.0 / 512 + 1e-9:
            assert p > 0.0, (t0, t1, p)


def test_solar_validation():
    with pytest.raises(ValueError):
        solve_solar(5.0)
    with pytest.raises(ValueError):
        solve_solar(25.0)
    with pytest.raises(ValueError):
        solve_solar(18.0, resolution=32)


# --------------------------------------------------------------------------
# optimality certificate


def test_certificate_passes_constant_power():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    sol = taut_string(harvested)
    report = optimality_certificate(sol, zero_curve(4.0), harvested)
    assert report.ok, report.failures


def test_certificate_passes_dying_battery():
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    sol = taut_string(harvested, minimum)
    report = optimality_certificate(sol, minimum, harvested)
    assert report.ok, report.failures


def test_certificate_rejects_hand_built_suboptimal():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    # bends at t=2 with no contact there: a straight chord shortcuts it
    bad = StringSolution(
        schedule=PowerSchedule(((0.0, 2.0, 0.5), (2.0, 4.0, 1.5))),
        vertices=((0.0, 0.0), (2.0, 1.0), (4.0, 4.0)),
        contacts=(),
        total_data=None,
    )
    report = optimality_certificate(bad, zero_curve(4.0), harvested)
    assert not report.ok
    assert report.failures


def _path(schedule: PowerSchedule) -> StringSolution:
    """The vertex path a schedule traces, as a solution to certify."""
    vertices, total = [(0.0, 0.0)], 0.0
    for t0, t1, p in schedule.segments:
        total += p * (t1 - t0)
        vertices.append((t1, total))
    return StringSolution(schedule, tuple(vertices), (), None)


def _moved_vertex(
    sol: StringSolution, shift: float, rng: random.Random
) -> StringSolution | None:
    """The solution with one interior vertex moved up or down by ``shift``,
    or None when that leaves a negative power."""
    verts = list(sol.vertices)
    k = rng.randrange(1, len(verts) - 1)
    t, v = verts[k]
    verts[k] = (t, v + shift)
    segments = tuple(
        (t0, t1, (v1 - v0) / (t1 - t0))
        for (t0, v0), (t1, v1) in zip(verts, verts[1:])
    )
    try:
        schedule = PowerSchedule(segments)
    except ValueError:
        return None
    return StringSolution(schedule, tuple(verts), (), None)


def test_certificate_agrees_with_chord_check():
    """On optima, random feasible rivals and optima with a vertex moved, the
    certificate never accepts a path the chord check rejects, and every path
    it accepts sends the optimum's data."""
    passed = rejected = 0
    for seed in range(300):
        harvested, minimum = random_corridor(seed)
        sol = taut_string(harvested, minimum, rate=RATE)
        assert optimality_certificate(sol, minimum, harvested).ok, seed
        assert chord_certificate(sol, minimum, harvested).ok, seed
        rng = random.Random(seed)
        paths = [
            _path(random_feasible_schedule(harvested, minimum, seed=3 * seed + k))
            for k in range(3)
        ]
        if len(sol.vertices) > 2:
            scale = max(1.0, harvested.eval_left(harvested.horizon))
            paths.append(_moved_vertex(sol, rng.uniform(-0.05, 0.05) * scale, rng))
        for path in filter(None, paths):
            kkt = optimality_certificate(path, minimum, harvested)
            chord = chord_certificate(path, minimum, harvested)
            assert chord.ok or not kkt.ok, (seed, path.vertices, chord.failures)
            if kkt.ok:
                data = throughput(path.schedule, RATE)
                assert data == pytest.approx(sol.total_data, rel=1e-9), seed
            passed += kkt.ok
            rejected += not kkt.ok
    assert passed > 0 and rejected > 0, (passed, rejected)


GAP_HARVEST = from_packet_arrivals([(0.0, 1.0), (2.0, 3.0)], 3.0)


def test_certificate_rejects_overdraw():
    # constant 4/3 spends 8/3 by t=2, where only the first unit has arrived
    path = _path(PowerSchedule.constant(4.0 / 3.0, 3.0))
    report = optimality_certificate(path, zero_curve(3.0), GAP_HARVEST)
    assert not report.ok
    assert report.failures == (
        "the path overdraws the harvest at t=2: it has spent 2.66667 of "
        "H(t^-) = 1",
    )


def test_certificate_rejects_unspent_energy():
    path = _path(PowerSchedule.constant(0.25, 3.0))
    report = optimality_certificate(path, zero_curve(3.0), GAP_HARVEST)
    assert not report.ok
    assert report.failures == (
        "the path ends at (3, 0.75), not at (T, H(T^-)) = (3, 4)",
    )


def test_certificate_rejects_bend_below_the_ceiling():
    # the power rises at t=2 with the battery half full; no chord between
    # vertices is feasible, so the chord check misses it
    harvested = from_packet_arrivals([(0.5, 1.0), (2.0, 2.5)], 3.0)
    path = _path(PowerSchedule(((0.0, 0.5, 0.0), (0.5, 2.0, 1 / 3), (2.0, 3.0, 3.0))))
    assert chord_certificate(path, zero_curve(3.0), harvested).ok
    report = optimality_certificate(path, zero_curve(3.0), harvested)
    assert report.failures == (
        "slope increases at t=2 but the path is at 0.5, off the ceiling 1",
    )


def test_certificate_rejects_path_off_its_schedule():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    sol = taut_string(harvested)
    bad = StringSolution(sol.schedule, ((0.0, 0.0), (4.0, 3.0)), (), None)
    report = optimality_certificate(bad, zero_curve(4.0), harvested)
    assert not report.ok
    assert report.failures[0] == "segment [0, 4] spends 4 but the path rises 3"


def test_certificate_bends_are_the_contacts():
    harvested, minimum = dying_battery_scenario([3.0, 1.5, 1.0], [1.0, 2.0, 4.0])
    sol = taut_string(harvested, minimum)
    report = optimality_certificate(sol, minimum, harvested)
    assert report.ok, report.failures
    assert [(t, kind) for t, kind, _, _ in report.bends] == [
        (c.time, c.kind) for c in sol.contacts if c.kind in ("upper", "lower")
    ] == [(1.0, "lower"), (2.0, "lower")]
    powers = [p for _, _, p in sol.schedule.segments]
    assert [(a, b) for _, _, a, b in report.bends] == list(zip(powers, powers[1:]))
    # a rise between packets sits on the ceiling
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 3.0)], 4.0)
    report = optimality_certificate(taut_string(harvested), zero_curve(4.0), harvested)
    assert report.bends == ((2.0, "upper", 0.5, 1.5),)


# --------------------------------------------------------------------------
# properties


@st.composite
def corridors(draw):
    """Small packet trains, half of them with a finite battery, as
    ``(packets, horizon, capacity or None)``."""
    n = draw(st.integers(1, 5))
    t = draw(st.one_of(st.just(0.0), st.floats(0.3, 1.5)))
    packets = []
    for _ in range(n):
        packets.append((t, draw(st.floats(0.3, 3.0))))
        t += draw(st.floats(0.3, 2.0))
    horizon = packets[-1][0] + draw(st.floats(0.5, 2.0))
    capacity = None
    if draw(st.booleans()):
        total = sum(e for _, e in packets)
        largest = max(e for _, e in packets)
        capacity = max(draw(st.floats(0.4, 0.9)) * total, largest + 0.1)
    return tuple(packets), horizon, capacity


def _corridor(packets, horizon, capacity, a=1.0, b=1.0):
    harvested = from_packet_arrivals([(a * t, b * e) for t, e in packets], a * horizon)
    if capacity is None:
        return harvested, zero_curve(a * horizon)
    battery = BatterySchedule.constant(b * capacity, a * horizon)
    return harvested, min_energy_from_battery(harvested, battery)


def _on_path(vertices, t: float) -> float:
    times, values = zip(*vertices)
    return float(np.interp(t, times, values))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(corridors(), st.floats(1e-2, 1e2), st.floats(1e-2, 1e2))
def test_scaling_time_and_energy(case, a, b):
    """Scaling time by ``a`` and energy by ``b`` maps the string onto
    ``(a*t, b*v)``.  Gate points that lie on a straight stretch of the path
    may or may not be reported as vertices, depending on rounding, so each
    path is checked at the other's vertices as well as its own."""
    harvested, minimum = _corridor(*case)
    sol = taut_string(harvested, minimum)
    scaled_h, scaled_m = _corridor(*case, a=a, b=b)
    scaled = taut_string(scaled_h, scaled_m)
    span, end = harvested.horizon, harvested.eval_left(harvested.horizon)
    assert scaled.vertices[-1] == (a * span, scaled_h.eval_left(a * span))
    for t, v in sol.vertices:
        assert abs(_on_path(scaled.vertices, a * t) - b * v) <= 1e-9 * b * end, t
    for t, v in scaled.vertices:
        assert abs(b * _on_path(sol.vertices, t / a) - v) <= 1e-9 * b * end, t
    report = optimality_certificate(scaled, scaled_m, scaled_h)
    assert report.ok, report.failures


@settings(max_examples=200, deadline=None, derandomize=True)
@given(corridors(), st.data())
def test_more_energy_never_lowers_data(case, data):
    packets, horizon, capacity = case
    k = data.draw(st.integers(0, len(packets) - 1))
    t, e = packets[k]
    # a packet larger than the battery would overflow at once
    room = 2.0 if capacity is None else capacity - e
    extra = data.draw(st.floats(0.0, 1.0)) * room
    richer = packets[:k] + ((t, e + extra),) + packets[k + 1 :]
    before = taut_string(*_corridor(packets, horizon, capacity), rate=RATE).total_data
    after = taut_string(*_corridor(richer, horizon, capacity), rate=RATE).total_data
    assert after >= before - 1e-12 * max(1.0, before), (extra, before, after)


# --------------------------------------------------------------------------
# dual bound


def test_dual_bound_prices_any_schedule_that_ends_at_the_horizon():
    harvested = from_packet_arrivals([(0.0, 2.0), (1.0, 3.0)], 4.0)
    floor = zero_curve(4.0)
    optimal = taut_string(harvested, floor, rate=RATE)
    best = optimal.total_data
    assert dual_bound(optimal.schedule, harvested, floor, RATE) == pytest.approx(
        best, rel=1e-12
    )
    # equal powers on both sides of a breakpoint put no multiplier there
    split = PowerSchedule(((0.0, 0.5, 1.25), (0.5, 1.0, 1.25), (1.0, 4.0, 1.25)))
    assert dual_bound(split, harvested, floor, RATE) == dual_bound(
        PowerSchedule.constant(1.25, 4.0), harvested, floor, RATE
    )
    # the gates are at t=1 and t=4, but weak duality holds with multipliers
    # at any times: a power change at t=0.5 is priced there
    bent = PowerSchedule(((0.0, 0.5, 1.0), (0.5, 1.0, 1.5), (1.0, 4.0, 1.25)))
    assert dual_bound(bent, harvested, floor, RATE) >= best
    with pytest.raises(ValueError, match="not at the horizon 4"):
        dual_bound(PowerSchedule.constant(1.25, 3.0), harvested, floor, RATE)
    with pytest.raises(ValueError, match="horizon mismatch: 5.0 != 4.0"):
        dual_bound(optimal.schedule, harvested, zero_curve(5.0), RATE)


def test_dual_bound_reads_no_corridor_gates(monkeypatch):
    # the bound reads the curves only at the schedule's own breakpoints
    packets, deadline = narrow_gate_train(256)
    harvested = from_packet_arrivals(packets, deadline)
    floor = min_energy_from_battery(
        harvested, BatterySchedule.constant(3.5, deadline)
    )
    solution = taut_string(harvested, floor, rate=RATE)

    def refuse(*args):
        raise AssertionError("the corridor walked")

    # every walk of a corridor, corridor_gates' and taut_string's, is this one
    monkeypatch.setattr("ehsched.curves._merged_limits", refuse)
    assert dual_bound(solution.schedule, harvested, floor, RATE) == pytest.approx(
        solution.total_data, rel=1e-12
    )


def test_dual_bound_certifies_a_long_capped_train():
    # far past the sizes any grid oracle can take
    packets, deadline = narrow_gate_train(10_000)
    harvested = from_packet_arrivals(packets, deadline)
    battery = BatterySchedule.constant(3.5, deadline)
    floor = min_energy_from_battery(harvested, battery)
    solution = taut_string(harvested, floor, rate=RATE)
    assert check_feasible(solution.schedule, floor, harvested).feasible
    bound = dual_bound(solution.schedule, harvested, floor, RATE)
    gap = (bound - solution.total_data) / solution.total_data
    assert -1e-12 <= gap <= 1e-9
