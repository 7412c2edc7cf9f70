"""Brute-force verifiers: DP bounds, grid maximizers, roots, random schedules,
and the dual bound at the prices of random schedules."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    RATE1,
    awgn_conjugate,
    grid_argmax_f,
    random_corridor,
    random_leakage_problem,
    reference_dp_leakage_throughput,
    reference_dp_throughput,
    reference_dual_bound,
    solar_harvested_energy,
    tangent_root,
)

from ehsched import (
    BatterySchedule,
    CumulativeCurve,
    GridInfeasibleError,
    GridSpec,
    InfeasibleError,
    LeakageProblem,
    PowerSchedule,
    check_feasible,
    compare_ST_NT,
    dp_leakage_throughput,
    dp_throughput,
    drain_bound,
    dual_bound,
    dying_battery_scenario,
    from_packet_arrivals,
    integrate_rate,
    min_energy_from_battery,
    optimality_certificate,
    p_star,
    random_feasible_schedule,
    solar_harvest_rate,
    solve_n_packet,
    taut_string,
    throughput,
    zero_curve,
)
from ehsched.curves import DEFAULT_TOL, corridor_gates

GRID = GridSpec(200, 200, 16.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 200, 16.0)
    with pytest.raises(ValueError):
        GridSpec(200, 1, 16.0)
    with pytest.raises(ValueError):
        GridSpec(200, 200, 0.0)


# --------------------------------------------------------------------------
# dp_throughput


def test_dp_constant_power_benchmark():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    value = dp_throughput(harvested, zero_curve(4.0), RATE1, GRID)
    exact = 4.0 * RATE1(1.0)
    assert value <= exact + 1e-9
    assert (exact - value) / exact <= 0.005


def test_dp_dying_battery():
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    value = dp_throughput(harvested, minimum, RATE1, GRID)
    exact = 1.0 * RATE1(2.0) + 3.0 * RATE1(2.0 / 3.0)
    assert value <= exact + 1e-9
    assert (exact - value) / exact <= 0.005


@pytest.mark.parametrize("levels", [199, 200])
def test_dp_forced_spend_exact(levels):
    # floor equal to a continuous ceiling leaves no freedom at all; 199
    # levels put the interior pinch value 2 (of 3 total) on a level of one
    # grid over [0, 3], 200 do not, and the DP must solve both, because each
    # stretch between pinches gets its own grid
    curve = CumulativeCurve(((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), (4.0, 3.0, 3.0)), 4.0)
    value = dp_throughput(curve, curve, RATE1, GridSpec(200, levels, 16.0))
    exact = 2.0 * RATE1(1.0) + 2.0 * RATE1(0.5)
    assert value == pytest.approx(exact, abs=1e-12)


def test_dp_refining_grid_never_loses():
    harvested = from_packet_arrivals([(0.0, 2.0), (1.5, 1.0), (3.0, 2.0)], 5.0)
    coarse = dp_throughput(
        harvested, zero_curve(5.0), RATE1, GridSpec(200, 201, 16.0)
    )
    fine = dp_throughput(
        harvested, zero_curve(5.0), RATE1, GridSpec(200, 401, 16.0)
    )
    assert fine >= coarse - 1e-9


def test_dp_rejects_too_many_pieces():
    harvested = from_packet_arrivals(
        [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)], 5.0
    )
    with pytest.raises(GridInfeasibleError):
        dp_throughput(harvested, zero_curve(5.0), RATE1, GridSpec(2, 200, 16.0))


def test_dp_instant_forced_spend_infeasible():
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    minimum = from_packet_arrivals([(0.0, 1.0)], 4.0)
    with pytest.raises(InfeasibleError):
        dp_throughput(harvested, minimum, RATE1, GRID)


def _outcome(dp, *args):
    """The DP's value, or the type and message of the error it raises."""
    try:
        return dp(*args)
    except (GridInfeasibleError, InfeasibleError) as error:
        return type(error), str(error)


@pytest.mark.parametrize(
    "grid",
    [GridSpec(400, 400, 64.0), GridSpec(200, 201, 1.5), GridSpec(400, 400, 0.6)],
    ids=["wide", "capped", "tight"],
)
def test_dp_matches_the_full_matrix(grid):
    # the blocked DP over reachable levels leaves out only -inf terms, so its
    # value, or its error, is the full matrix's to the bit
    kinds = {"pinch": 0, "capped step": 0, "grid-infeasible": 0}
    for seed in range(1000):
        harvested, minimum = random_corridor(seed)
        expected = _outcome(reference_dp_throughput, harvested, minimum, RATE1, grid)
        assert _outcome(dp_throughput, harvested, minimum, RATE1, grid) == expected, seed
        gates, _ = corridor_gates(harvested, minimum)
        kinds["pinch"] += any(hi - lo <= DEFAULT_TOL for _, lo, hi in gates[:-1])
        if isinstance(expected, tuple):
            kinds["grid-infeasible"] += 1
        else:
            # the cap, not the ceiling, bounds the steps of some piece
            starts = [0.0] + [t for t, _, _ in gates]
            kinds["capped step"] += any(
                grid.power_cap * (t - t0) < hi for (t, _, hi), t0 in zip(gates, starts)
            )
    assert kinds["pinch"] > 0
    if grid.power_cap < 64.0:
        assert kinds["capped step"] > 0 and kinds["grid-infeasible"] > 0, kinds


def test_dp_memory_stays_blocked():
    # eight unit packets under a 64 cap: the full matrix of the step at t=7
    # is 350 levels by 350 steps, 1 MB, and the DP peaked at 1.43 MB with it;
    # a block is at most 256 kB, and NumPy buffers 128 kB beside it
    harvested = from_packet_arrivals([(float(k), 1.0) for k in range(8)], 8.0)
    grid = GridSpec(400, 400, 64.0)
    tracemalloc.start()
    try:
        dp_throughput(harvested, zero_curve(8.0), RATE1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000


# --------------------------------------------------------------------------
# dp_leakage_throughput


def test_dp_leak_zero_epsilon_reduces_to_plain_dp():
    packets = ((0.0, 2.0), (2.0, 2.0))
    problem = LeakageProblem(packets, 0.0, 4.0, RATE1)
    leak_value = dp_leakage_throughput(problem, GridSpec(400, 400, 16.0))
    plain_value = dp_throughput(
        from_packet_arrivals(packets, 4.0),
        zero_curve(4.0),
        RATE1,
        GridSpec(400, 400, 16.0),
    )
    assert leak_value == pytest.approx(plain_value, rel=0.01)


def test_dp_leak_single_packet_near_closed_form():
    problem = LeakageProblem(((0.0, 16.0),), 1.0, 4.0, RATE1)
    value = dp_leakage_throughput(problem, GridSpec(400, 400, 16.0))
    assert abs(value - 4.0) / 4.0 <= 0.01


def test_dp_leak_counterexample_below_single_packet_bound():
    problem = LeakageProblem(((0.0, 4.0), (3.0, 4.0)), 0.5, 4.0, RATE1)
    value = dp_leakage_throughput(problem, GridSpec(400, 400, 16.0))
    d_st = compare_ST_NT(problem).d_st
    assert value < d_st
    assert d_st - value == pytest.approx(0.22, abs=0.05)


def _closed_form(energy: float, epsilon: float, deadline: float | None) -> float:
    """One packet's optimum: ``E r(p) / (p + epsilon)`` at the block power."""
    p = p_star(RATE1, epsilon)
    if deadline is not None:
        p = max(p, energy / deadline - epsilon)
    return energy * RATE1(p) / (p + epsilon)


@pytest.mark.parametrize("energy", [0.5, 4.0, 16.0])
def test_dp_leak_bounded_single_packet_closed_form(energy):
    # the one interval only empties, so no carry level is ever rounded
    problem = LeakageProblem(((0.0, energy),), 1.0, 4.0, RATE1)
    value = dp_leakage_throughput(problem, GridSpec(energy_levels=401))
    assert value == pytest.approx(_closed_form(energy, 1.0, 4.0), rel=1e-12)


def test_dp_leak_unbounded_single_packet_closed_form():
    problem = LeakageProblem(((0.0, 4.0),), 0.5, None, RATE1)
    value = dp_leakage_throughput(problem, GridSpec(energy_levels=401))
    p = p_star(RATE1, 0.5)
    assert value == pytest.approx(4.0 * RATE1(p) / (p + 0.5), rel=1e-12)
    assert value == pytest.approx(_closed_form(4.0, 0.5, None), rel=1e-12)


def _leak_gap(problem: LeakageProblem, levels: int) -> float:
    data = solve_n_packet(problem).total_data
    return (data - dp_leakage_throughput(problem, GridSpec(energy_levels=levels))) / data


@pytest.mark.parametrize("bounded", [True, False])
def test_dp_leak_is_a_close_lower_bound(bounded):
    # every carry plan replays exactly, so the DP never beats the solver, and
    # 401 carry levels bring it within the CLI's tolerance on every seed
    gaps = [_leak_gap(random_leakage_problem(s, bounded), 401) for s in range(300)]
    assert -1e-12 <= min(gaps)
    assert max(gaps) <= 1e-4


@pytest.mark.parametrize("bounded", [True, False])
def test_dp_leak_stays_below_the_drain_bound(bounded):
    # the DP's value is a feasible schedule's data, which no bound is below
    for seed in range(300):
        problem = random_leakage_problem(seed, bounded)
        value = dp_leakage_throughput(problem, GridSpec(energy_levels=401))
        assert value <= drain_bound(problem) * (1.0 + 1e-12), seed


def test_dp_leak_refining_nested_levels_never_loses():
    # 201 levels are every other one of 401, which are every other one of 801
    for seed in range(30):
        problem = random_leakage_problem(seed, bounded=seed % 3 != 0)
        data = solve_n_packet(problem).total_data
        values = [
            dp_leakage_throughput(problem, GridSpec(energy_levels=levels))
            for levels in (201, 401, 801)
        ]
        for coarse, fine in zip(values, values[1:] + [data]):
            assert coarse <= fine * (1.0 + 1e-12), (seed, values, data)


def test_dp_leak_memory_stays_blocked():
    # an 800 x 800 float array alone is 5.1 MB
    problem = random_leakage_problem(5)
    assert len(problem.packets) == 5
    tracemalloc.start()
    try:
        dp_leakage_throughput(problem, GridSpec(energy_levels=800))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _short_gap_problem(seed: int, bounded: bool) -> LeakageProblem:
    """2-5 packets, some 0.01 or 0.05 apart: an interval that short carries
    the most charge the grid allows, the top reachable carry."""
    rng = random.Random(seed)
    t, packets = 0.0, []
    for _ in range(rng.randint(2, 5)):
        packets.append((t, rng.uniform(0.5, 4.0)))
        t += rng.choice((0.01, 0.05, 1.0, 2.0))
    deadline = t + 3.0 if bounded else None
    return LeakageProblem(tuple(packets), rng.uniform(0.05, 1.0), deadline, RATE1)


@pytest.mark.parametrize("levels", [201, 401, 800])
def test_dp_leak_matches_the_full_matrix(levels):
    # carries above the energy harvested so far are -inf, and so are the
    # rows no reachable carry feeds: leaving them out changes no bit
    grid = GridSpec(energy_levels=levels)
    for seed in range(300):
        for bounded in (True, False):
            problems = [random_leakage_problem(seed, bounded)]
            if seed < 100:
                problems.append(_short_gap_problem(seed, bounded))
            for problem in problems:
                expected = reference_dp_leakage_throughput(problem, grid)
                assert dp_leakage_throughput(problem, grid) == expected, problem


# --------------------------------------------------------------------------
# grid_argmax_f


def test_grid_argmax_near_closed_form():
    found = grid_argmax_f(RATE1, 1.0)
    assert found == pytest.approx(np.e - 1.0, rel=0.01)


def test_grid_argmax_zero_leak_picks_smallest_power():
    powers = np.geomspace(100.0 * 1e-9, 100.0, 4096)
    assert grid_argmax_f(RATE1, 0.0) == powers[0]


def test_grid_argmax_local_certificate():
    powers = np.geomspace(100.0 * 1e-9, 100.0, 4096)
    found = grid_argmax_f(RATE1, 1.0)
    i = int(np.argmin(np.abs(powers - found)))

    def f(p):
        return RATE1(float(p)) / (float(p) + 1.0)

    assert f(found) >= f(powers[i - 1])
    assert f(found) >= f(powers[i + 1])


def test_grid_argmax_needs_samples():
    with pytest.raises(ValueError):
        grid_argmax_f(RATE1, 1.0, samples=50)


# --------------------------------------------------------------------------
# tangent_root


def test_tangent_root_is_a_root():
    root = tangent_root(18.0)
    g = solar_harvest_rate(root) * (18.0 - root) - (
        solar_harvested_energy(18.0) - solar_harvested_energy(root)
    )
    assert abs(g) <= 1e-9
    assert 6.0 < root < 18.0


def test_tangent_root_various_deadlines():
    for deadline in (13.0, 15.0, 18.0):
        root = tangent_root(deadline)
        g = solar_harvest_rate(root) * (deadline - root) - (
            solar_harvested_energy(deadline) - solar_harvested_energy(root)
        )
        assert abs(g) <= 1e-9
        assert 6.0 < root < deadline


def test_tangent_root_domain():
    with pytest.raises(ValueError):
        tangent_root(6.0)
    with pytest.raises(ValueError):
        tangent_root(19.0)
    with pytest.raises(ValueError):
        tangent_root(10.0)  # optimum rides the ceiling: no departure


# --------------------------------------------------------------------------
# random_feasible_schedule


def test_random_schedule_feasible_and_deterministic():
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    a = random_feasible_schedule(harvested, minimum, seed=42)
    b = random_feasible_schedule(harvested, minimum, seed=42)
    c = random_feasible_schedule(harvested, minimum, seed=43)
    assert a.segments == b.segments
    assert c.segments != a.segments
    assert check_feasible(a, minimum, harvested).feasible


def test_random_schedule_spends_everything():
    harvested = from_packet_arrivals([(0.0, 2.0), (1.0, 3.0)], 4.0)
    for seed in range(20):
        sched = random_feasible_schedule(harvested, zero_curve(4.0), seed=seed)
        assert sched.total_energy == pytest.approx(5.0, rel=1e-9)
        assert check_feasible(sched, zero_curve(4.0), harvested).feasible


def test_random_schedules_never_beat_the_string():
    corridors = [dying_battery_scenario([2.0, 2.0], [1.0, 4.0])]
    corridors += [build() for build in RIVAL_CORRIDORS.values()]
    for harvested, minimum in corridors:
        best = throughput(taut_string(harvested, minimum).schedule, RATE1)
        for seed in range(200):
            sched = random_feasible_schedule(harvested, minimum, seed=seed)
            assert check_feasible(sched, minimum, harvested).feasible
            assert throughput(sched, RATE1) <= best + 1e-9


def test_random_schedule_rejects_infeasible_pair():
    harvested = from_packet_arrivals([(0.0, 1.0)], 4.0)
    minimum = from_packet_arrivals([(2.0, 2.0)], 4.0)
    # on every call, with a feasible corridor in between
    for _ in range(3):
        with pytest.raises(InfeasibleError):
            random_feasible_schedule(harvested, minimum, seed=0)
        random_feasible_schedule(harvested, zero_curve(4.0), seed=0)


def _train() -> CumulativeCurve:
    return from_packet_arrivals(
        [(0.5 * k, 1.0 + (7 * k % 5) * 0.4) for k in range(40)], 21.0
    )


def _touching_floor() -> tuple[CumulativeCurve, CumulativeCurve]:
    # the overflow floor at t=0.49 is 0.4600000000000001, one rounding above
    # the 0.46 harvested before the jump there; corridor_gates accepts it
    harvested = from_packet_arrivals([(0.0, 0.46), (0.49, 0.67)], 1.84)
    battery = BatterySchedule.constant(0.67, 1.84)
    return harvested, min_energy_from_battery(harvested, battery)


# each builder returns a fresh (harvested, minimum) pair, so no two calls
# share a curve object
RIVAL_CORRIDORS = {
    "dying-bank": lambda: dying_battery_scenario(
        [2.0, 1.5, 3.0, 0.5], [1.0, 2.5, 4.0, 6.0]
    ),
    "capped-train": lambda: (
        _train(),
        min_energy_from_battery(_train(), BatterySchedule.constant(3.5, 21.0)),
    ),
    # pinned with no floor, which drew what the zero floor draws
    "packets-no-floor": lambda: (
        from_packet_arrivals([(0.0, 2.0), (1.0, 3.0), (2.5, 0.5), (4.0, 1.25)], 6.0),
        zero_curve(6.0),
    ),
    # the quadrature the stream was pinned on: a wrapper does not take the
    # closed-form branch that solar_harvest_rate itself takes
    "solar-64": lambda: (
        integrate_rate(lambda t: solar_harvest_rate(t), 24.0, resolution=64),
        zero_curve(24.0),
    ),
    "touching-floor": _touching_floor,
}


def _rivals(harvested, minimum, seeds=range(64)) -> list[tuple]:
    return [
        random_feasible_schedule(harvested, minimum, seed=seed).segments
        for seed in seeds
    ]


@pytest.mark.parametrize(
    "name, digest",
    [
        ("dying-bank", "3f7b6968c19c1d7e272e4c1864a47b298934cdbed2e174751765f89cff2fbd82"),
        ("capped-train", "98458e458cf97f71536d414304e1919963498711bbc292ae37d199337fe88c6e"),
        ("packets-no-floor", "4eea9bf08d5fa4354abf5b7911817c51fcc921331f4b9bd1cb9b0cd29e39b1c5"),
        ("solar-64", "aa7ea78bedf6c21f6aecdb7ef1d98d391bef0a0017758c728a61a3d8481916a8"),
    ],
)
def test_rival_stream_is_pinned(name, digest):
    # sha256 of the segments of seeds 0-63, taken from the implementation that
    # rebuilt and re-sampled the corridor for every rival
    rivals = _rivals(*RIVAL_CORRIDORS[name]())
    assert hashlib.sha256("".join(map(repr, rivals)).encode()).hexdigest() == digest


def test_rival_knots_clamp_a_touching_floor_to_the_ceiling():
    # the knot floor is the gate's min(M, H^-, H(T^-)), so a rival's path
    # reaches at most the energy harvested before the jump, up to one
    # rounding of its segment powers (with the floor unclamped, two of these
    # rivals exceed that)
    harvested, minimum = _touching_floor()
    for seed in range(64):
        rival = random_feasible_schedule(harvested, minimum, seed=seed)
        assert rival.energy_curve().eval(0.49) <= math.nextafter(0.46, 1.0)


def test_rival_draw_on_a_breakpoint():
    # the second draw of seed 5 is a packet time, so it adds no knot
    harvested = from_packet_arrivals(
        [(0.0, 2.0), (4.450721935564376, 3.0), (4.5, 1.0)], 6.0
    )
    assert random_feasible_schedule(harvested, zero_curve(6.0), seed=5).segments == (
        (0.0, 3.7374101693382116, 0.5043333437196331),
        (3.7374101693382116, 4.450721935564376, 0.1193894592131181),
        (4.450721935564376, 4.5, 56.71056992524322),
        (4.5, 4.77116139339418, 0.13214130570128244),
        (4.77116139339418, 6.0, 0.9761402192619999),
    )


def test_rivals_of_alternating_corridors_match_fresh_calls():
    a = RIVAL_CORRIDORS["capped-train"]()
    b = RIVAL_CORRIDORS["dying-bank"]()
    fresh_a = [
        random_feasible_schedule(*RIVAL_CORRIDORS["capped-train"](), seed=seed).segments
        for seed in range(8)
    ]
    fresh_b = [
        random_feasible_schedule(*RIVAL_CORRIDORS["dying-bank"](), seed=seed).segments
        for seed in range(8)
    ]
    for pair, fresh in ((a, fresh_a), (b, fresh_b), (a, fresh_a)):
        assert _rivals(*pair, seeds=range(8)) == fresh
    # the same harvest under another floor is another corridor
    assert _rivals(a[0], zero_curve(a[0].horizon), seeds=range(8)) != fresh_a


def test_rivals_without_a_floor_match_the_zero_floor():
    # sha256 of the segments of seeds 0-63 drawn with no floor, when the
    # floor was optional; the zero floor draws the same, call after call
    harvested = from_packet_arrivals([(0.0, 2.0), (1.0, 3.0), (2.5, 0.5)], 5.0)
    digest = "54bfcebbaea0324eed817ecc6140a599fbc6fa4b773e0596b510d137d04ddbe1"
    for _ in range(2):
        rivals = _rivals(harvested, zero_curve(5.0))
        assert hashlib.sha256("".join(map(repr, rivals)).encode()).hexdigest() == digest


def test_random_schedule_keeps_no_curve_alive():
    harvested, minimum = RIVAL_CORRIDORS["capped-train"]()
    random_feasible_schedule(harvested, minimum, seed=0)
    refs = weakref.ref(harvested), weakref.ref(minimum)
    del harvested, minimum
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# --------------------------------------------------------------------------
# the dual bound at the prices of rivals


def _on_gate_pieces(schedule, gates) -> PowerSchedule:
    """``schedule`` moved onto the pieces between consecutive gates, each at
    its mean power there: it spends the same energy by every gate, so it is
    feasible when ``schedule`` is, and it sends no more data (Jensen)."""
    spent = schedule.energy_curve(gates[-1][0])
    segments, t0, e0 = [], 0.0, 0.0
    for t, _, _ in gates:
        e = spent.eval(t)
        segments.append((t0, t, (e - e0) / (t - t0)))
        t0, e0 = t, e
    return PowerSchedule(tuple(segments))


def _rival_bounds(name):
    """For each of 200 rivals in the named corridor: the rival on the gate
    pieces, its dual bound, and the bound from the closed-form conjugate."""
    harvested, minimum = RIVAL_CORRIDORS[name]()
    gates, _ = corridor_gates(harvested, minimum)
    best = throughput(taut_string(harvested, minimum).schedule, RATE1)
    for seed in range(200):
        rival = random_feasible_schedule(harvested, minimum, seed=seed)
        moved = _on_gate_pieces(rival, gates)
        powers = [p for _, _, p in moved.segments]
        yield (
            harvested,
            minimum,
            best,
            moved,
            dual_bound(moved, harvested, minimum, RATE1),
            reference_dual_bound(gates, powers, RATE1, awgn_conjugate),
        )


@pytest.mark.parametrize("name", sorted(RIVAL_CORRIDORS))
def test_dual_bound_at_rival_prices_is_never_below_the_optimum(name):
    # weak duality: every choice of prices bounds the optimum from above,
    # and with prices taken from a schedule's own powers the conjugate is
    # attained at those powers
    for _, _, best, _, bound, reference in _rival_bounds(name):
        assert (reference - best) / best >= -1e-12
        assert abs(bound - reference) <= 1e-12 * best


@pytest.mark.parametrize("name", sorted(set(RIVAL_CORRIDORS) - {"touching-floor"}))
def test_dual_bound_refuses_feasible_rivals(name):
    # the touching floor pins both of its pieces, so every rival is optimal
    # there; in the other corridors a feasible but suboptimal schedule sits
    # further below its own bound than verify's 1e-9
    for harvested, floor, _, moved, bound, _ in _rival_bounds(name):
        assert check_feasible(moved, floor, harvested).feasible
        data = throughput(moved, RATE1)
        assert (bound - data) / data > 1e-9


@pytest.mark.parametrize("name", sorted(RIVAL_CORRIDORS))
def test_dual_bound_of_raw_rivals_bounds_the_optimum_and_the_rival(name):
    # rivals change power off the gates; their own breakpoints carry the
    # multipliers, and weak duality holds at any prices and any times
    harvested, minimum = RIVAL_CORRIDORS[name]()
    best = throughput(taut_string(harvested, minimum).schedule, RATE1)
    for seed in range(200):
        rival = random_feasible_schedule(harvested, minimum, seed=seed)
        bound = dual_bound(rival, harvested, minimum, RATE1)
        assert bound >= best * (1.0 - 1e-12), seed
        assert bound >= throughput(rival, RATE1), seed


def test_dp_string_and_dual_bound_are_ordered():
    # the DP sends what one feasible grid schedule sends, the string is
    # optimal, and the bound is above every feasible schedule; the KKT
    # certificate agrees that the string is optimal
    for seed in range(40):
        harvested, minimum = random_corridor(seed)
        solution = taut_string(harvested, minimum)
        data = throughput(solution.schedule, RATE1)
        assert optimality_certificate(solution, minimum, harvested).ok
        oracle = dp_throughput(harvested, minimum, RATE1, GRID)
        bound = dual_bound(solution.schedule, harvested, minimum, RATE1)
        assert oracle <= data * (1.0 + 1e-12), seed
        assert -1e-12 <= (bound - data) / data <= 1e-9, seed
