"""Taut-string optimizer: exact schedules, contacts, certificates, solar."""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    taut_string,
    throughput,
    zero_curve,
)
from ehsched.curves import _corridor_walk, corridor_gates
from ehsched import string_solver
from ehsched.string_solver import PRUNE_MIN_BREAKPOINTS, _binding_gates, _funnel

RATE = awgn_rate(1.0)


def test_single_packet_constant_power():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    sol = taut_string(harvested)
    assert sol.schedule.segments == ((0.0, 4.0, 1.0),)
    assert throughput(sol.schedule, RATE) == pytest.approx(4.0 * RATE(1.0), abs=1e-12)
    # forcing the endpoint with a dying battery changes nothing
    harvested2, minimum2 = dying_battery_scenario([4.0], [4.0])
    sol2 = taut_string(harvested2, minimum2)
    assert sol2.schedule.segments == ((0.0, 4.0, 1.0),)


def test_two_packets_slope_up_at_upper_contact():
    harvested = from_packet_arrivals([(0.0, 1.0), (2.0, 3.0)], 4.0)
    sol = taut_string(harvested)
    assert len(sol.schedule.segments) == 2
    (t0, t1, p1), (t2, t3, p2) = sol.schedule.segments
    assert (t0, t1, t2, t3) == (0.0, 2.0, 2.0, 4.0)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    assert p2 == pytest.approx(1.5, abs=1e-12)
    assert p2 > p1
    uppers = [c for c in sol.contacts if c.kind == "upper"]
    assert len(uppers) == 1 and uppers[0].time == pytest.approx(2.0, abs=1e-12)
    expected = 2.0 * RATE(0.5) + 2.0 * RATE(1.5)
    assert throughput(sol.schedule, RATE) == pytest.approx(expected, abs=1e-12)


def test_dying_battery_slope_down_at_lower_contact():
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    sol = taut_string(harvested, minimum)
    assert sol.vertices == ((0.0, 0.0), (1.0, 2.0), (4.0, 4.0))
    (_, _, p1), (_, _, p2) = sol.schedule.segments
    assert p1 == pytest.approx(2.0, abs=1e-12)
    assert p2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    lowers = [c for c in sol.contacts if c.kind == "lower"]
    assert len(lowers) == 1 and lowers[0].time == pytest.approx(1.0, abs=1e-12)
    expected = 1.0 * RATE(2.0) + 3.0 * RATE(2.0 / 3.0)
    assert throughput(sol.schedule, RATE) == pytest.approx(expected, abs=1e-12)


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
    # the one string meets the dual bound of each concave rate, so it is
    # optimal under both
    harvested, minimum = dying_battery_scenario([2.0, 1.0, 3.0], [1.0, 2.5, 4.0])
    sol = taut_string(harvested, minimum)
    for rate in (awgn_rate(1.0), awgn_rate(7.0)):
        data = throughput(sol.schedule, rate)
        bound = dual_bound(sol.schedule, harvested, minimum, rate)
        assert bound == pytest.approx(data, rel=1e-12)


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
    # from PRUNE_MIN_BREAKPOINTS on, a train, a dying bank and the solar day
    # take the gates _binding_gates keeps; capped trains keep the walk
    rng = random.Random(3)
    for n in (200, 800, 2000, 10000):
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
        corridors = [
            (harvested, zero_curve(t)),
            # the corridor-ladder's other two families: a dying bank and the
            # solar day
            dying_battery_scenario(amounts, deaths[1:]),
            (integrate_rate(solar_harvest_rate, 18.0, min(n, 8192)), zero_curve(18.0)),
        ]
        if n <= 800:
            capped = min_energy_from_battery(harvested, BatterySchedule.constant(capacity, t))
            corridors.append((harvested, capped))
        for corridor in corridors:
            sol = taut_string(*corridor)
            vertices, contacts = reference_taut_string(*corridor)
            assert sol.vertices == vertices
            assert tuple((c.time, c.value, c.kind) for c in sol.contacts) == contacts
            assert len(vertices) > 3


def _line(horizon: float, start: float, end: float) -> CumulativeCurve:
    return CumulativeCurve(((0.0, 0.0, start), (horizon, end, end)), horizon)


def _tiled_reproducer(tiles: int) -> list[tuple[float, float]]:
    # packets 1, 1, 2, 2 scaled by the factor at which the funnel's cross
    # product on collinear gate points rounds to either sign
    a = 0.5396341818022085
    return [(4.0 * k + j, e * a) for k in range(tiles) for j, e in enumerate((1, 1, 2, 2))]


def _falling_ceiling() -> tuple[CumulativeCurve, CumulativeCurve]:
    # the ceiling falls by 5e-10, within the curves' tolerance, so the floor
    # before its last tiny step lies over H(T^-) and is clamped to it
    minimum = from_packet_arrivals(
        [(k + 1.0, 1e-3) for k in range(399)] + [(400.0, 1e-12)], 400.0
    )
    total = minimum.breakpoints[-1][2]
    return _line(400.0, total, total - 5e-10), minimum


def _one_flat(corridor) -> bool:
    """Whether an envelope is flat, two breakpoints at one value: the
    corridors whose gates ``taut_string`` may give to the pre-pass."""
    return any(len(b) == 2 and b[0][2] == b[1][1] for b in (c.breakpoints for c in corridor))


def _bits(rows) -> list:
    """Rows with their floats as ``float.hex``, so that -0.0 != 0.0."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


#: Corridors past PRUNE_MIN_BREAKPOINTS with one flat envelope whose gates
#: sit on or near their neighbours' chords, where a pre-pass that dropped too
#: much would show.
ADVERSARIAL_CORRIDORS = {
    "collinear staircase": lambda: (
        from_packet_arrivals([(float(k), 1.0) for k in range(400)], 400.0),
        zero_curve(400.0),
    ),
    "collinear staircase, inexact steps": lambda: (
        from_packet_arrivals([(0.1 * k, 0.1) for k in range(400)], 40.0),
        zero_curve(40.0),
    ),
    "collinear dying bank": lambda: dying_battery_scenario(
        [3.0] * 400, [0.7 * (k + 1) for k in range(400)]
    ),
    "tiled reproducer": lambda: (
        from_packet_arrivals(_tiled_reproducer(100), 400.0),
        zero_curve(400.0),
    ),
    "tiled reproducer, dying": lambda: dying_battery_scenario(
        [e for _, e in _tiled_reproducer(100)], [t + 1.0 for t, _ in _tiled_reproducer(100)]
    ),
    "first packet after t=0": lambda: (
        from_packet_arrivals([(2.5 + k, 1.0 + k % 3) for k in range(400)], 403.0),
        zero_curve(403.0),
    ),
    "flat floor above zero": lambda: (
        from_packet_arrivals([(3.0 + k, 1.0 + k % 3) for k in range(400)], 404.0),
        _line(404.0, 5e-10, 5e-10),
    ),
    # the walk reads the floor between its ends as 0.0
    "-0.0 floor": lambda: (
        from_packet_arrivals([(2.5 + k, 1.0 + k % 3) for k in range(400)], 403.0),
        _line(403.0, -0.0, -0.0),
    ),
    # products of the passes past the float range, and below normal floats
    "huge scales": lambda: (
        from_packet_arrivals([(k * 1e303, 1e303 * (1 + k % 3)) for k in range(400)], 4e305),
        zero_curve(4e305),
    ),
    "tiny scales": lambda: (
        from_packet_arrivals([(k * 1e-160, 1e-160 * (1 + k % 3)) for k in range(400)], 4e-158),
        zero_curve(4e-158),
    ),
    "solar day": lambda: (integrate_rate(solar_harvest_rate, 18.0, 600), zero_curve(18.0)),
}

#: Corridors past PRUNE_MIN_BREAKPOINTS whose envelopes both bend or slope,
#: which ``taut_string`` solves by the walk.
TWO_SIDED_CORRIDORS = {
    "rising floor line": lambda: (
        from_packet_arrivals([(float(k), 1.0 + k % 3) for k in range(400)], 400.0),
        _line(400.0, 0.0, 300.0),
    ),
    "ceiling line": lambda: (
        _line(400.0, 0.0, 800.0),
        from_packet_arrivals([(k + 0.5, 1.0 + k % 2) for k in range(400)], 400.0),
    ),
    "ceiling falling below its start": _falling_ceiling,
    # a ceiling line whose interpolation overflows to inf
    "ceiling line past the float range": lambda: (
        _line(1e300, 0.0, 1e300),
        from_packet_arrivals([(k * 2.5e297, 1.0) for k in range(1, 400)], 1e300),
    ),
}


def _long_corridor(seed: int) -> tuple[CumulativeCurve, CumulativeCurve]:
    """A one-sided corridor of up to 700 pieces: a train under a zero floor
    or a dying bank under a constant ceiling, with whole or random numbers
    (whole ones put many gates exactly on their neighbours' chords)."""
    rng = random.Random(seed)
    n = rng.randint(1, 700)
    whole = rng.random() < 0.5

    def draw(low, high):
        return float(rng.randint(1, 3)) if whole else rng.uniform(low, high)

    if rng.random() < 0.5:
        amounts, times, t = [], [], 0.0
        for _ in range(n):
            t += draw(0.3, 2.0)
            amounts.append(draw(0.3, 3.0))
            times.append(t)
        return dying_battery_scenario(amounts, times)
    t = 0.0 if rng.random() < 0.7 else draw(0.3, 2.0)
    packets = []
    for _ in range(n):
        packets.append((t, draw(0.3, 3.0)))
        t += draw(0.3, 2.0)
    return from_packet_arrivals(packets, t), zero_curve(t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(0, 2**32 - 1).map(random_corridor).filter(_one_flat),
        st.integers(0, 2**32 - 1).map(_long_corridor),
        st.sampled_from(sorted(ADVERSARIAL_CORRIDORS)).map(
            lambda name: ADVERSARIAL_CORRIDORS[name]()
        ),
    )
)
@example(ADVERSARIAL_CORRIDORS["collinear staircase"]())
@example(ADVERSARIAL_CORRIDORS["collinear staircase, inexact steps"]())
@example(ADVERSARIAL_CORRIDORS["collinear dying bank"]())
@example(ADVERSARIAL_CORRIDORS["tiled reproducer"]())
@example(ADVERSARIAL_CORRIDORS["tiled reproducer, dying"]())
@example(ADVERSARIAL_CORRIDORS["first packet after t=0"]())
@example(ADVERSARIAL_CORRIDORS["flat floor above zero"]())
@example(ADVERSARIAL_CORRIDORS["-0.0 floor"]())
@example(ADVERSARIAL_CORRIDORS["huge scales"]())
@example(ADVERSARIAL_CORRIDORS["tiny scales"]())
@example(ADVERSARIAL_CORRIDORS["solar day"]())
def test_binding_gates_keep_the_string(corridor):
    """On corridors with one flat envelope, the funnel on the gates
    _binding_gates keeps bends at the points of the reference funnel on
    every gate, and the path meets every gate the pre-pass dropped."""
    harvested, minimum = corridor
    gates, end_value = corridor_gates(harvested, minimum)
    with warnings.catch_warnings():
        # NumPy overflows quietly, as the walk's Python floats do
        warnings.simplefilter("error")
        kept = list(_binding_gates(harvested, minimum, end_value))
    kept_times = {t for t, *_ in kept}
    # the kept gates are corridor_gates' own, bit for bit, the last included
    assert _bits((t, lo, hi) for t, hi, _, _, lo in kept) == _bits(
        g for g in gates if g[0] in kept_times
    )
    assert kept[-1][0] == harvested.horizon
    times, values, kinds = _funnel(iter(kept), harvested.horizon, end_value)
    vertices, contacts = reference_taut_string(harvested, minimum)
    assert _bits(zip(times, values)) == _bits(vertices)
    assert _bits(zip(times, values, kinds)) == _bits(contacts)
    slack = 1e-9 * max(1.0, end_value)
    for t, lo, hi in gates:
        if t not in kept_times:
            v = float(np.interp(t, times, values))
            assert lo - slack <= v <= hi + slack, (t, lo, v, hi)


@pytest.mark.parametrize("name", sorted(TWO_SIDED_CORRIDORS))
def test_two_sided_corridors_keep_the_reference_string(name):
    """Corridors under or over a sloped line take the walk, and the funnel on
    it bends at the points of the reference funnel, as does ``taut_string``
    wherever the path's values are finite (random capped corridors are
    checked in test_funnel_matches_reference_on_random_corridors)."""
    harvested, minimum = TWO_SIDED_CORRIDORS[name]()
    walk, end_value = _corridor_walk(harvested, minimum)
    times, values, kinds = _funnel(walk, harvested.horizon, end_value)
    _, contacts = reference_taut_string(harvested, minimum)
    assert _bits(zip(times, values, kinds)) == _bits(contacts)
    if all(map(math.isfinite, values)):
        sol = taut_string(harvested, minimum)
        assert _bits((c.time, c.value, c.kind) for c in sol.contacts) == _bits(contacts)


def test_binding_gates_drop_most_gates_of_one_sided_ladders():
    # the pre-pass is worth its cost: a long train and a dying bank keep
    # only the gates near their strings
    rng = random.Random(7)
    amounts = [rng.uniform(0.5, 3.0) for _ in range(4096)]
    deaths = [float(k + 1) for k in range(4096)]
    packets, horizon = narrow_gate_train(4096)
    for harvested, minimum in (
        (from_packet_arrivals(packets, horizon), zero_curve(horizon)),
        dying_battery_scenario(amounts, deaths),
    ):
        end_value = harvested.breakpoints[-1][1]
        assert len(list(_binding_gates(harvested, minimum, end_value))) < 200


def test_only_a_flat_envelope_past_the_size_drops_gates(monkeypatch):
    calls = []
    pruned = string_solver._binding_gates
    monkeypatch.setattr(
        string_solver, "_binding_gates", lambda *a: calls.append(a) or pruned(*a)
    )
    packets, horizon = narrow_gate_train(1448)
    harvested = from_packet_arrivals(packets, horizon)
    half = harvested.breakpoints[-1][1] / 2
    # flat: the zero floor, and a floor at zero until it jumps at the horizon
    taut_string(harvested)
    taut_string(harvested, CumulativeCurve(((0.0, 0.0, 0.0), (horizon, 0.0, half)), horizon))
    assert len(calls) == 2
    # a sloped floor line, a capped train and a short train take the walk
    taut_string(harvested, _line(horizon, 0.0, half))
    taut_string(harvested, min_energy_from_battery(harvested, BatterySchedule.constant(3.5, horizon)))
    taut_string(from_packet_arrivals(packets[:200], horizon))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "harvested, minimum, message",
    [
        (
            from_packet_arrivals([(float(k), 1.0) for k in range(300)], 300.0),
            _line(300.0, 0.0, 450.0),
            "floor exceeds ceiling just before t=1.0",
        ),
        (
            from_packet_arrivals([(0.0, 100.0)], 300.0),
            from_packet_arrivals([(k + 1.0, 1.0) for k in range(300)], 300.0),
            "floor exceeds ceiling at t=101.0",
        ),
        (
            from_packet_arrivals([(float(k), 1.0) for k in range(301)], 300.0),
            CumulativeCurve(((0.0, 0.0, 0.0), (300.0, 0.0, 300.5)), 300.0),
            "floor 300.5 at t=300.0 exceeds the energy 300 available before the jump there",
        ),
        (
            from_packet_arrivals([(float(k), 1.0) for k in range(300)], 300.0),
            from_packet_arrivals([(0.0, 1.0)], 300.0),
            "the floor forces 1 energy to be spent instantaneously at t=0",
        ),
        (
            from_packet_arrivals([(float(k), 1.0) for k in range(300)], 300.0),
            zero_curve(301.0),
            "horizon mismatch: 301.0 != 300.0",
        ),
    ],
)
def test_pinches_past_the_pruning_size_are_refused_as_corridor_gates_refuses_them(
    harvested, minimum, message
):
    assert max(len(harvested.breakpoints), len(minimum.breakpoints)) >= PRUNE_MIN_BREAKPOINTS
    with pytest.raises(ValueError) as gates:
        corridor_gates(harvested, minimum)
    with pytest.raises(ValueError) as string:
        taut_string(harvested, minimum)
    assert type(string.value) is type(gates.value)
    assert str(string.value) == str(gates.value) == message


def test_solar_departure_and_endpoint():
    sol = taut_string(integrate_rate(solar_harvest_rate, 18.0, 1024))
    end_t, end_v = sol.vertices[-1]
    assert end_t == 18.0
    assert end_v == pytest.approx(40.0, abs=1e-6)
    departure = max(c.time for c in sol.contacts if c.kind == "upper")
    assert departure == pytest.approx(tangent_root(18.0), abs=0.05)


def test_solar_final_slope_matches_tangent():
    sol = taut_string(integrate_rate(solar_harvest_rate, 18.0, 4096))
    root = tangent_root(18.0)
    final_power = sol.schedule.segments[-1][2]
    # chord slope from the tangency point to the endpoint
    expected = (solar_harvested_energy(18.0) - solar_harvested_energy(root)) / (
        18.0 - root
    )
    assert final_power == pytest.approx(expected, rel=1e-3)


def test_solar_late_deadline_spends_everything():
    sol = taut_string(integrate_rate(solar_harvest_rate, 24.0, 512))
    assert sol.schedule.total_energy == pytest.approx(40.0, rel=1e-6)
    for t0, t1, p in sol.schedule.segments:
        if t1 > 6.0 + 24.0 / 512 + 1e-9:
            assert p > 0.0, (t0, t1, p)


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
    return StringSolution(schedule, tuple(vertices), ())


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
    return StringSolution(schedule, tuple(verts), ())


def test_certificate_agrees_with_chord_check():
    """On optima, random feasible rivals and optima with a vertex moved, the
    certificate never accepts a path the chord check rejects, and every path
    it accepts sends the optimum's data."""
    passed = rejected = 0
    for seed in range(300):
        harvested, minimum = random_corridor(seed)
        sol = taut_string(harvested, minimum)
        best = throughput(sol.schedule, RATE)
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
                assert data == pytest.approx(best, rel=1e-9), seed
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
    bad = StringSolution(sol.schedule, ((0.0, 0.0), (4.0, 3.0)), ())
    report = optimality_certificate(bad, zero_curve(4.0), harvested)
    assert not report.ok
    assert report.failures[0] == "segment [0, 4] spends 4 but the path rises 3"


_TWO_PACKETS = from_packet_arrivals([(0.0, 1.0), (2.0, 3.0)], 4.0)
_TWO_PACKET_STRING = taut_string(_TWO_PACKETS)  # vertices (0, 0), (2, 1), (4, 4)


@pytest.mark.parametrize(
    "changes, failures",
    [
        ({"vertices": ((0.0, 0.0),)}, ("the path needs at least two vertices",)),
        (
            {"vertices": ((0.0, 0.5), (2.0, 1.0), (4.0, 4.0))},
            (
                "the path starts at (0.0, 0.5), not at (0, 0)",
                "segment [0, 2] spends 1 but the path rises 0.5",
            ),
        ),
        (
            {"vertices": ((0.0, 0.0), (2.0, 1.0))},
            (
                "the path has 2 vertices for 2 schedule segments",
                "the path ends at (2, 1), not at (T, H(T^-)) = (4, 4)",
            ),
        ),
        (
            {"vertices": ((0.0, 0.0), (1.5, 1.0), (4.0, 4.0))},
            (
                "segment [0, 2] does not join the vertices at t=0 and t=1.5",
                "segment [2, 4] does not join the vertices at t=1.5 and t=4",
            ),
        ),
        (
            {
                "schedule": PowerSchedule(((0.0, 2.0, 0.5), (2.0, 5.0, 1.0))),
                "vertices": ((0.0, 0.0), (2.0, 1.0), (5.0, 4.0)),
            },
            (
                "the schedule runs to t=5, past the horizon 4",
                "the path ends at (5, 4), not at (T, H(T^-)) = (4, 4)",
            ),
        ),
    ],
    ids=["one-vertex", "wrong-start", "count-mismatch", "unjoined-segment", "past-horizon"],
)
def test_certificate_names_a_malformed_path(changes, failures):
    bad = replace(_TWO_PACKET_STRING, **changes)
    report = optimality_certificate(bad, zero_curve(4.0), _TWO_PACKETS)
    assert not report.ok
    assert report.failures == failures


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
    before = throughput(taut_string(*_corridor(packets, horizon, capacity)).schedule, RATE)
    after = throughput(taut_string(*_corridor(richer, horizon, capacity)).schedule, RATE)
    assert after >= before - 1e-12 * max(1.0, before), (extra, before, after)


# --------------------------------------------------------------------------
# dual bound


def test_dual_bound_prices_any_schedule_that_ends_at_the_horizon():
    harvested = from_packet_arrivals([(0.0, 2.0), (1.0, 3.0)], 4.0)
    floor = zero_curve(4.0)
    optimal = taut_string(harvested, floor)
    best = throughput(optimal.schedule, RATE)
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
    solution = taut_string(harvested, floor)
    data = throughput(solution.schedule, RATE)

    def refuse(*args):
        raise AssertionError("the corridor walked")

    # every walk of a corridor, corridor_gates' and taut_string's, is this one
    monkeypatch.setattr("ehsched.curves._merged_limits", refuse)
    assert dual_bound(solution.schedule, harvested, floor, RATE) == pytest.approx(
        data, rel=1e-12
    )


def test_dual_bound_certifies_a_long_capped_train():
    # far past the sizes any grid oracle can take
    packets, deadline = narrow_gate_train(10_000)
    harvested = from_packet_arrivals(packets, deadline)
    battery = BatterySchedule.constant(3.5, deadline)
    floor = min_energy_from_battery(harvested, battery)
    solution = taut_string(harvested, floor)
    data = throughput(solution.schedule, RATE)
    assert check_feasible(solution.schedule, floor, harvested).feasible
    bound = dual_bound(solution.schedule, harvested, floor, RATE)
    gap = (bound - data) / data
    assert -1e-12 <= gap <= 1e-9
