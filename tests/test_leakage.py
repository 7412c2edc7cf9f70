"""Leakage model: p*, the block solver (one packet and N), simulator, S_T vs N_T."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    RATE1,
    assert_rebuilds,
    assert_schedule_rebuilds,
    battery_content,
    grid_argmax_f,
    leaky_train,
    random_leakage_problem,
    random_packets,
    reference_decompose_blocks,
    reference_simulate,
    reference_solve_n_packet,
    reference_usable,
)

from ehsched import (
    UNBOUNDED,
    LeakageProblem,
    PowerSchedule,
    compare_ST_NT,
    drain_bound,
    dual_bound,
    from_packet_arrivals,
    merge_times,
    p_star,
    simulate,
    solve_n_packet,
    sufficient_condition_holds,
    taut_string,
    throughput,
    zero_curve,
)
from ehsched import leakage, string_solver
from ehsched.leakage import _decompose_blocks

E = math.e


# --------------------------------------------------------------------------
# problem validation


def test_problem_validation():
    with pytest.raises(ValueError):
        LeakageProblem((), 0.5, 4.0, RATE1)
    with pytest.raises(ValueError):
        LeakageProblem(((1.0, 2.0),), 0.5, 4.0, RATE1)  # first packet late
    with pytest.raises(ValueError):
        LeakageProblem(((0.0, 2.0), (0.0, 1.0)), 0.5, 4.0, RATE1)
    with pytest.raises(ValueError):
        LeakageProblem(((0.0, 0.0),), 0.5, 4.0, RATE1)  # empty packet
    with pytest.raises(ValueError):
        LeakageProblem(((0.0, 2.0),), -0.1, 4.0, RATE1)
    with pytest.raises(ValueError):
        LeakageProblem(((0.0, 2.0), (3.0, 1.0)), 0.5, 3.0, RATE1)  # deadline early
    with pytest.raises(ValueError):
        LeakageProblem(((0.0, 2.0),), 0.0, UNBOUNDED, RATE1)


@pytest.mark.parametrize(
    "packets,deadline,message",
    [
        (((0.0, math.nan),), 4.0, "positive and finite, got nan"),
        (((0.0, math.inf),), 4.0, "positive and finite, got inf"),
        (((0.0, 1.0),), math.inf, "deadline must be finite"),
        (((0.0, 1.0), (math.inf, 1.0)), UNBOUNDED, "arrival times must be finite, got inf"),
    ],
)
def test_problem_refuses_non_finite_numbers(packets, deadline, message):
    with pytest.raises(ValueError, match=message):
        LeakageProblem(packets, 0.5, deadline, RATE1)


# --------------------------------------------------------------------------
# p_star


def test_p_star_zero_leak_is_zero():
    assert p_star(RATE1, 0.0) == 0.0


def test_p_star_unit_leak_closed_form():
    # r'(p)(p+1) = r(p) with the unit-noise law reduces to ln(1+p) = 1
    assert p_star(RATE1, 1.0) == pytest.approx(E - 1.0, abs=1e-9)


def test_p_star_monotone_in_leak_rate():
    values = [p_star(RATE1, eps) for eps in (0.0, 0.1, 0.5, 1.0, 2.0)]
    assert all(b >= a for a, b in zip(values, values[1:])), values
    assert values[0] == 0.0


@pytest.mark.parametrize(
    "epsilon, bits",
    [
        (0.1, "0x1.eaf0690800000p-2"),
        (0.5, "0x1.27d127b468000p+0"),
        (0.95, "0x1.aaf59e4ba0000p+0"),
        (1.5, "0x1.1729e58fe8000p+1"),
    ],
)
def test_p_star_bits_are_pinned(epsilon, bits):
    # taken from the bisection that evaluated the rate twice per step
    assert p_star(RATE1, epsilon).hex() == bits


def test_p_star_matches_grid_argmax():
    for eps in (0.25, 1.0, 2.0):
        exact = p_star(RATE1, eps)
        grid = grid_argmax_f(RATE1, eps, p_max=100.0, samples=4096)
        powers = np.geomspace(100.0 * 1e-9, 100.0, 4096)
        i = int(np.argmin(np.abs(powers - grid)))
        lo = powers[max(i - 1, 0)]
        hi = powers[min(i + 1, len(powers) - 1)]
        assert lo <= exact <= hi


def test_efficiency_peaks_at_p_star():
    for eps in (0.3, 1.0):
        p_opt = p_star(RATE1, eps)
        best = RATE1(p_opt) / (p_opt + eps)
        grid = np.linspace(1e-6, 100.0 * p_opt + 1.0, 1000)
        f = np.asarray(RATE1(grid)) / (grid + eps)
        assert np.all(f <= best + 1e-12)
        tail = f[grid > p_opt * 1.001]
        assert np.all(np.diff(tail) < 0.0)


# --------------------------------------------------------------------------
# single packet: the one-block case of solve_n_packet


def one_packet(energy, deadline, epsilon=1.0):
    return LeakageProblem(((0.0, energy),), epsilon, deadline, RATE1)


def test_single_packet_deadline_binds():
    sol = solve_n_packet(one_packet(16.0, 4.0))
    assert sol.schedule.segments == ((0.0, 4.0, 3.0),)
    assert sol.total_data == pytest.approx(4.0, abs=1e-9)
    assert sol.schedule.total_energy == pytest.approx(12.0, abs=1e-12)
    assert sol.leaked_energy == pytest.approx(4.0, abs=1e-12)


def test_single_packet_slack_deadline_uses_p_star():
    sol = solve_n_packet(one_packet(10.0, 4.0))
    assert sol.block_powers[0] == pytest.approx(E - 1.0, abs=1e-9)
    duration = sol.schedule.segments[0][1]
    assert duration == pytest.approx(10.0 / E, abs=1e-9)
    assert sol.total_data == pytest.approx(10.0 * RATE1(E - 1.0) / E, abs=1e-9)
    assert sol.schedule.segments[-1][2] == 0.0  # silent tail


def test_single_packet_unbounded():
    sol = solve_n_packet(one_packet(5.0, UNBOUNDED))
    duration = sol.schedule.end_time
    assert duration == pytest.approx(5.0 / E, abs=1e-9)
    assert sol.total_data == pytest.approx((5.0 / E) * 0.5 * math.log2(E), abs=1e-9)


def test_single_packet_validation():
    with pytest.raises(ValueError):
        one_packet(0.0, 4.0)
    with pytest.raises(ValueError):
        one_packet(5.0, -1.0)
    with pytest.raises(ValueError):
        one_packet(5.0, UNBOUNDED, epsilon=0.0)


# --------------------------------------------------------------------------
# sufficient condition


def test_sufficient_condition_single_packet():
    problem = LeakageProblem(((0.0, 4.0),), 0.5, 4.0, RATE1)
    assert sufficient_condition_holds(problem)


def test_sufficient_condition_late_big_packet_fails():
    problem = LeakageProblem(((0.0, 4.0), (3.0, 4.0)), 0.5, 4.0, RATE1)
    assert not sufficient_condition_holds(problem)


def test_sufficient_condition_early_packet_holds():
    problem = LeakageProblem(((0.0, 4.0), (1.0, 4.0)), 0.5, 4.0, RATE1)
    assert sufficient_condition_holds(problem)


def test_sufficient_condition_needs_deadline():
    problem = LeakageProblem(((0.0, 4.0),), 0.5, UNBOUNDED, RATE1)
    with pytest.raises(ValueError):
        sufficient_condition_holds(problem)


# --------------------------------------------------------------------------
# N-packet solver


def test_counterexample_blocks():
    problem = LeakageProblem(((0.0, 4.0), (3.0, 4.0)), 0.5, 4.0, RATE1)
    sol = solve_n_packet(problem)
    p_opt = p_star(RATE1, 0.5)
    assert sol.block_powers[0] == pytest.approx(p_opt, abs=1e-9)
    assert sol.block_powers[1] == pytest.approx(3.5, abs=1e-12)
    assert sol.block_boundaries == pytest.approx((0.0, 3.0, 4.0), abs=1e-12)
    # block 1 transmits until its packet is drained, then is silent
    t0, t1, p = sol.schedule.segments[0]
    assert (t0, p) == (0.0, sol.block_powers[0])
    assert t1 == pytest.approx(4.0 / (p_opt + 0.5), abs=1e-9)
    assert sol.schedule.segments[1][2] == 0.0
    assert sol.schedule.segments[2] == (3.0, 4.0, 3.5)
    assert sol.total_data == pytest.approx(2.423558166935361, abs=1e-12)
    assert sol.schedule.total_energy + sol.leaked_energy == pytest.approx(8.0, abs=1e-9)


@st.composite
def block_trains(draw):
    """Packet trains for the block decomposition, and whether their averages
    are exact.  Integer gaps and energies in halves make every sum exact and
    every average correctly rounded, so equal-density neighbours tie exactly;
    arbitrary floats cover the rest."""
    n = draw(st.integers(1, 12))
    exact = draw(st.booleans())
    if exact:
        gaps = [float(g) for g in draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))]
        energies = [0.5 * e for e in draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))]
    else:
        gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
        energies = draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n))
    times = [0.0]
    for gap in gaps[:-1]:
        times.append(times[-1] + gap)
    packets = tuple(zip(times, energies))
    return packets, times[-1] + gaps[-1], draw(st.floats(0.0, 1.5)), exact


def _packet_powers(blocks, n):
    powers = [0.0] * n
    for first, last, power, _, _ in blocks:
        powers[first : last + 1] = [power] * (last + 1 - first)
    return powers


@settings(max_examples=500, deadline=None, derandomize=True)
@given(block_trains())
def test_block_stack_matches_rescanning_reference(case):
    packets, deadline, epsilon, exact = case
    p_opt = p_star(RATE1, epsilon)
    for end in (deadline, None):
        blocks = _decompose_blocks(packets, end, epsilon, p_opt)
        reference = reference_decompose_blocks(packets, end, epsilon, p_opt)
        if exact:
            assert blocks == reference
        else:
            # Where two averages agree to within rounding, either method may
            # split or merge there (neither always agrees with exact
            # arithmetic), so every packet's power agrees to rounding.
            n = len(packets)
            for p, q in zip(_packet_powers(blocks, n), _packet_powers(reference, n)):
                assert abs(p - q) <= 1e-12 * (q + epsilon)


def test_equal_density_packets_form_one_block():
    # every packet carries 1.5 energy per unit of time until the next one
    packets = ((0.0, 1.5), (1.0, 3.0), (3.0, 1.5), (4.0, 4.5))
    sol = solve_n_packet(LeakageProblem(packets, 0.2, 7.0, RATE1))
    assert sol.block_boundaries == (0.0, 7.0)
    assert sol.block_powers == (1.3,) * 4


def test_block_stack_matches_reference_on_long_trains():
    rising = tuple((float(i), 1.0 + 0.01 * i) for i in range(600))
    rng = random.Random(4)
    t, noisy = 0.0, []
    for i in range(600):
        # energies drift up, as in the benchmark's leakage trains
        noisy.append((t, rng.uniform(0.3, 3.0) * (1.0 + 0.5 * i / 600)))
        t += rng.uniform(0.3, 2.0)
    for packets, epsilon in ((rising, 0.5), (tuple(noisy), 0.95)):
        deadline = packets[-1][0] + 1.0
        p_opt = p_star(RATE1, epsilon)
        blocks = _decompose_blocks(packets, deadline, epsilon, p_opt)
        assert blocks == reference_decompose_blocks(packets, deadline, epsilon, p_opt)
        assert len(blocks) > 5


def test_unbounded_all_blocks_at_p_star():
    for seed in range(10):
        problem = random_leakage_problem(seed, bounded=False)
        sol = solve_n_packet(problem)
        p_opt = p_star(problem.rate, problem.epsilon)
        assert all(p == p_opt for p in sol.block_powers)
        assert sol.schedule.total_energy + sol.leaked_energy == pytest.approx(
            problem.total_energy, rel=1e-12
        )


@st.composite
def walk_trains(draw):
    """Leakage problems for the block walk: gaps long enough for the battery
    to empty and go silent before the next arrival, packets at or below the
    walk's empty-battery tolerance, zero leakage, and no deadline."""
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.05, 6.0), min_size=n, max_size=n))
    energies = draw(
        st.lists(st.one_of(st.floats(0.01, 4.0), st.just(1e-13)), min_size=n, max_size=n)
    )
    epsilon = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    times = [0.0]
    for gap in gaps[:-1]:
        times.append(times[-1] + gap)
    unbounded = epsilon > 0.0 and draw(st.booleans())
    deadline = None if unbounded else times[-1] + gaps[-1]
    return LeakageProblem(tuple(zip(times, energies)), epsilon, deadline, RATE1)


def _walk_outputs(solution):
    return (
        solution.schedule.segments,
        solution.block_powers,
        solution.block_boundaries,
        solution.total_data,
        solution.schedule.total_energy,
        solution.leaked_energy,
    )


# an idle gap, a packet below the tolerance, no deadline, and zero leakage;
# a charge exactly at the tolerance (1e-12 of a total below 1), and a
# battery that empties at the next arrival with a charge rounded below 0
@example(LeakageProblem(((0.0, 0.2), (5.0, 3.0), (5.5, 1e-13)), 0.5, 6.0, RATE1))
@example(LeakageProblem(((0.0, 0.5), (3.0, 1e-12), (4.0, 0.4)), 0.5, 5.0, RATE1))
@example(
    LeakageProblem(((0.0, 0.5), (0.75, 0.5), (2.5, 0.5), (3.75, 1.125)), 0.0, 4.25, RATE1)
)
@example(LeakageProblem(((0.0, 2.0), (1.0, 0.1), (7.0, 1.0)), 0.9, UNBOUNDED, RATE1))
@example(LeakageProblem(((0.0, 1.0), (2.0, 3.0), (3.0, 0.5)), 0.0, 5.0, RATE1))
@settings(max_examples=500, deadline=None, derandomize=True)
@given(walk_trains())
def test_block_walk_matches_reference(problem):
    solution = solve_n_packet(problem)
    expected = reference_solve_n_packet(problem)
    # bit for bit, floats and their signs included
    assert repr(_walk_outputs(solution)) == repr(_walk_outputs(expected))


def test_block_walk_examples_cover_idle_gaps():
    # the examples above reach each branch of the walk
    idle, unbounded, no_leak = (
        LeakageProblem(((0.0, 0.2), (5.0, 3.0), (5.5, 1e-13)), 0.5, 6.0, RATE1),
        LeakageProblem(((0.0, 2.0), (1.0, 0.1), (7.0, 1.0)), 0.9, UNBOUNDED, RATE1),
        LeakageProblem(((0.0, 1.0), (2.0, 3.0), (3.0, 0.5)), 0.0, 5.0, RATE1),
    )
    powers = [p for _, _, p in solve_n_packet(idle).schedule.segments]
    assert powers[0] > 0.0 and powers[1] == 0.0 and powers[2] > 0.0
    segments = solve_n_packet(unbounded).schedule.segments
    # silent after the first two packets, then running until the battery empties
    assert [p == 0.0 for _, _, p in segments] == [False, True, False, True, False]
    assert segments[-1][1] > 7.0
    assert solve_n_packet(no_leak).leaked_energy == 0.0


def test_block_walk_matches_reference_on_long_trains():
    for problem in (leaky_train(1448), replace(leaky_train(724, seed=1), deadline=UNBOUNDED)):
        solution = solve_n_packet(problem)
        assert repr(_walk_outputs(solution)) == repr(
            _walk_outputs(reference_solve_n_packet(problem))
        )
        assert sum(p == 0.0 for _, _, p in solution.schedule.segments) > 10


def test_zero_leak_matches_taut_string():
    for seed in range(10):
        packets = random_packets(seed)
        deadline = packets[-1][0] + 1.0 + (seed % 3)
        problem = LeakageProblem(packets, 0.0, deadline, RATE1)
        leak_sol = solve_n_packet(problem)
        string_sol = taut_string(from_packet_arrivals(packets, deadline))
        assert leak_sol.total_data == pytest.approx(
            throughput(string_sol.schedule, RATE1), abs=1e-9
        )
        assert leak_sol.leaked_energy == 0.0


# --------------------------------------------------------------------------
# simulator


def test_simulate_pure_leak():
    problem = LeakageProblem(((0.0, 2.0),), 0.5, 8.0, RATE1)
    trace = simulate(PowerSchedule.constant(0.0, 8.0), problem)
    for t in (0.0, 1.0, 3.9, 4.0, 6.0, 8.0):
        assert trace.leaked.eval(t) == pytest.approx(min(0.5 * t, 2.0), abs=1e-12)
    assert battery_content(trace, 4.0, left=False) == pytest.approx(0.0, abs=1e-12)
    assert trace.infeasible_at is None


def test_simulate_unbounded_solution_conserves():
    problem = one_packet(5.0, UNBOUNDED)
    sol = solve_n_packet(problem)
    trace = simulate(sol.schedule, problem)
    horizon = sol.schedule.end_time
    assert horizon == pytest.approx(5.0 / E, abs=1e-9)
    assert battery_content(trace, horizon, left=False) == pytest.approx(0.0, abs=1e-9)
    assert trace.leaked.eval(horizon) == pytest.approx(5.0 / E, abs=1e-9)
    assert trace.infeasible_at is None


def test_simulate_flags_overdraw():
    # an (almost) empty battery cannot supply power from the very start
    problem = LeakageProblem(((0.0, 1e-12),), 1.0, 2.0, RATE1)
    trace = simulate(PowerSchedule.constant(1.0, 1.0), problem)
    assert trace.infeasible_at is not None
    assert trace.infeasible_at <= 1e-9


def test_simulate_usable_is_harvest_minus_leak():
    problem = random_leakage_problem(5)
    sol = solve_n_packet(problem)
    trace = simulate(sol.schedule, problem)
    horizon = trace.usable.horizon
    for i in range(41):
        t = horizon * i / 40
        harvested = sum(e for tn, e in problem.packets if tn <= t)
        assert trace.usable.eval(t) == pytest.approx(
            harvested - trace.leaked.eval(t), abs=1e-9
        )


@st.composite
def replays(draw):
    """An arbitrary schedule (it may overdraw, stop early or run past the
    deadline) against a random bounded or unbounded leakage problem."""
    n = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=n - 1, max_size=n - 1))
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    energies = draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n))
    epsilon = draw(st.floats(0.0, 1.5))
    unbounded = epsilon > 0.0 and draw(st.booleans())
    deadline = None if unbounded else times[-1] + draw(st.floats(0.1, 5.0))
    m = draw(st.integers(1, 8))
    widths = draw(st.lists(st.floats(0.05, 3.0), min_size=m, max_size=m))
    powers = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 4.0)), min_size=m, max_size=m)
    )
    edges = [0.0]
    for width in widths:
        edges.append(edges[-1] + width)
    schedule = PowerSchedule(tuple(zip(edges, edges[1:], powers)))
    problem = LeakageProblem(tuple(zip(times, energies)), epsilon, deadline, RATE1)
    return schedule, problem


@settings(max_examples=300, deadline=None, derandomize=True)
@given(replays())
def test_simulate_replay_invariants(case):
    schedule, problem = case
    expected = reference_simulate(schedule, problem)
    if expected.transmitted.horizon == math.inf:
        # the charge left cannot leak out in a finite float time
        with pytest.raises(ValueError, match="cannot leak out"):
            simulate(schedule, problem)
        return
    trace = simulate(schedule, problem)
    # bit for bit, floats and their signs included
    assert repr(trace) == repr(expected)
    assert trace.usable.breakpoints == reference_usable(problem, trace.leaked)
    horizon = trace.transmitted.horizon
    asked = schedule.energy_curve(horizon)
    total = problem.total_energy + asked.eval(horizon)
    slack = 1e-12 * max(1.0, total)

    # the transmitter never sends more than the schedule asks, on any piece
    sent = trace.transmitted
    times = merge_times(sent, asked)
    for a, b in zip(times, times[1:]):
        assert sent.eval(b) - sent.eval(a) <= asked.eval(b) - asked.eval(a) + slack
    # the battery never goes negative
    for t in merge_times(trace.usable, sent):
        assert battery_content(trace, t, left=True) >= -slack
        assert battery_content(trace, t, left=False) >= -slack
    # leakage runs at rate epsilon while charged, and not at all otherwise
    leaked = trace.leaked.breakpoints
    for (t0, _, v0), (t1, v1, _) in zip(leaked, leaked[1:]):
        assert -slack <= v1 - v0 <= problem.epsilon * (t1 - t0) + slack
    # a schedule the battery can follow is delivered in full, up to the
    # demand below the replay's 1e-9 power (or 1e-9 duration) threshold
    if trace.infeasible_at is None:
        max_power = max(p for _, _, p in schedule.segments)
        events = len(schedule.segments) + len(problem.packets) + 2
        threshold = 1e-9 * (horizon + max_power * events)
        assert sent.eval(horizon) >= asked.eval(horizon) - threshold - slack


def test_simulate_refuses_a_charge_that_cannot_leak_out():
    # a leak too small to empty the battery in floating point: the unbounded
    # replay would end at 1.0 + 1.0 / 5e-324 = inf
    problem = LeakageProblem(((0.0, 1.0),), 5e-324, UNBOUNDED, RATE1)
    idle = PowerSchedule(((0.0, 1.0, 0.0),))
    with pytest.raises(
        ValueError,
        match=r"the charge 1\.0 left at t=1\.0 cannot leak out at epsilon=5e-324",
    ):
        simulate(idle, problem)
    # the problem itself stands: the solver's schedule empties the battery
    # at a finite time, so its replay ends there
    solution = solve_n_packet(problem)
    trace = simulate(solution.schedule, problem)
    assert trace.infeasible_at is None
    assert trace.transmitted.horizon == solution.schedule.end_time < math.inf


def test_simulate_solver_outputs_clean():
    for seed in range(15):
        problem = random_leakage_problem(seed)
        sol = solve_n_packet(problem)
        trace = simulate(sol.schedule, problem)
        assert trace.infeasible_at is None, seed
        end = trace.transmitted.horizon
        total = problem.total_energy
        assert trace.transmitted.eval(end) + trace.leaked.eval(end) == pytest.approx(
            total, abs=1e-9 * max(1.0, total)
        )


def test_trace_curves_equal_their_validating_rebuild():
    problems = [random_leakage_problem(seed, bounded) for seed in range(60) for bounded in (True, False)]
    problems.append(
        LeakageProblem(tuple((1.5 * i, 1.0 + 0.005 * i) for i in range(300)), 0.9, 451.0, RATE1)
    )
    for problem in problems:
        sol = solve_n_packet(problem)
        assert_schedule_rebuilds(sol.schedule)
        horizon = sol.schedule.end_time
        rivals = (
            sol.schedule,
            # overdraws: the replay must go silent part of the way
            PowerSchedule.constant(2.0 * problem.total_energy / horizon, horizon),
        )
        for schedule in rivals:
            trace = simulate(schedule, problem)
            for curve in (trace.transmitted, trace.leaked, trace.usable):
                assert_rebuilds(curve)
            assert trace.usable.breakpoints == reference_usable(problem, trace.leaked)


# --------------------------------------------------------------------------
# S_T vs N_T


def test_comparison_counterexample_strict():
    problem = LeakageProblem(((0.0, 4.0), (3.0, 4.0)), 0.5, 4.0, RATE1)
    cmp = compare_ST_NT(problem)
    assert cmp.d_nt == pytest.approx(2.423558166935361, abs=1e-12)
    assert cmp.d_st == pytest.approx(2.643856189774725, abs=1e-12)
    assert cmp.d_st - cmp.d_nt == pytest.approx(0.22029802283936384, abs=1e-9)
    assert not sufficient_condition_holds(problem)


def test_comparison_equal_when_condition_holds():
    problem = LeakageProblem(((0.0, 4.0), (1.0, 4.0)), 0.5, 4.0, RATE1)
    assert sufficient_condition_holds(problem)
    cmp = compare_ST_NT(problem)
    assert cmp.d_nt == pytest.approx(cmp.d_st, abs=1e-9)


def test_comparison_single_packet_equal():
    problem = LeakageProblem(((0.0, 6.0),), 0.8, 3.0, RATE1)
    cmp = compare_ST_NT(problem)
    assert cmp.d_nt == cmp.d_st  # one packet at t=0 is already upfront


def test_comparison_needs_deadline():
    problem = LeakageProblem(((0.0, 6.0),), 0.8, UNBOUNDED, RATE1)
    with pytest.raises(ValueError):
        compare_ST_NT(problem)


@st.composite
def comparisons(draw):
    """1-6 packets from t=0, no leak or epsilon in [0.01, 2], and a deadline
    past the last arrival."""
    n = draw(st.integers(1, 6))
    times = [0.0]
    for gap in draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1)):
        times.append(times[-1] + gap)
    energies = draw(st.lists(st.floats(0.05, 6.0), min_size=n, max_size=n))
    epsilon = draw(st.just(0.0) | st.floats(0.01, 2.0))
    deadline = times[-1] + draw(st.floats(0.05, 3.0))
    return LeakageProblem(tuple(zip(times, energies)), epsilon, deadline, RATE1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(comparisons())
def test_upfront_energy_never_sends_less(problem):
    """``d_st >= d_nt``, with equality when every prefix of arrivals is at
    least as energy-dense as the whole instance (both to 1e-9 relative)."""
    cmp = compare_ST_NT(problem)
    assert cmp.d_st >= cmp.d_nt - 1e-9 * cmp.d_st
    if sufficient_condition_holds(problem):
        assert cmp.d_nt == pytest.approx(cmp.d_st, rel=1e-9)


def test_overflowing_block_power_is_refused():
    # 1e300 over 1e-10 overflows the block's average power, on every call:
    # a refusal is not cached
    problem = LeakageProblem(((0.0, 1e300),), 0.5, 1e-10, RATE1)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"block 0 .* power that is not finite: inf"):
            solve_n_packet(problem)


# --------------------------------------------------------------------------
# one solve per problem


def _count_solves(monkeypatch) -> list:
    """The problems the solve body runs on, from now on."""
    solved = []
    solve = leakage._solve_n_packet
    monkeypatch.setattr(leakage, "_solve_n_packet", lambda p: solved.append(p) or solve(p))
    return solved


def test_a_problem_is_solved_once(monkeypatch):
    solved = _count_solves(monkeypatch)
    problem = leaky_train(50)
    solution = solve_n_packet(problem)
    assert solve_n_packet(problem) is solution
    assert solved == [problem]
    # a replaced problem, even an equal one, is another object, solved
    # afresh to equal bits
    again = replace(problem)
    assert again == problem and solve_n_packet(again) is not solution
    assert solve_n_packet(again) == solution
    assert len(solved) == 2


def test_comparison_after_a_solve_solves_only_the_upfront_problem(monkeypatch):
    solved = _count_solves(monkeypatch)
    problem = leaky_train(50)
    solution = solve_n_packet(problem)
    cmp = compare_ST_NT(problem)
    assert cmp.d_nt == solution.total_data
    assert len(solved) == 2 and solved[0] is problem
    assert solved[1].packets == ((0.0, problem.total_energy),)
    # the upfront problem comes from replace, so each comparison solves it
    assert compare_ST_NT(problem) == cmp
    assert len(solved) == 3


@pytest.mark.parametrize(
    "packet, epsilon, message",
    [
        # the charge drains in less than the smallest time step
        ((0.0, 5e-324), 50.0, "a schedule needs at least one segment"),
        # a leak too small to empty the battery in floating point
        ((0.0, 1e308), 5e-324, "schedule must end at a finite time, got inf"),
    ],
)
def test_degenerate_unbounded_schedule_is_refused(packet, epsilon, message):
    problem = LeakageProblem((packet,), epsilon, UNBOUNDED, RATE1)
    with pytest.raises(ValueError, match=message):
        solve_n_packet(problem)


# --------------------------------------------------------------------------
# drain bound


def test_drain_bound_meets_the_solver_on_random_trains():
    rng = random.Random(11)
    for seed in range(300):
        problem = random_leakage_problem(seed, seed % 3 != 0, rng.uniform(0.01, 3.0))
        data = solve_n_packet(problem).total_data
        assert -1e-12 <= (drain_bound(problem) - data) / data <= 1e-12, seed


def test_drain_bound_reads_only_the_packets(monkeypatch):
    # an independent check: neither the block decomposition nor the solver
    problem = random_leakage_problem(4)
    expected = drain_bound(problem)

    def refuse(*args):
        raise AssertionError("drain_bound called the solver")

    monkeypatch.setattr(leakage, "_decompose_blocks", refuse)
    monkeypatch.setattr(leakage, "solve_n_packet", refuse)
    assert drain_bound(problem) == expected


@pytest.mark.parametrize("n", [1448, 10000])
def test_drain_bound_on_pruned_gates_equals_the_walk(monkeypatch, n):
    # the staircase of a long train takes the gates _binding_gates keeps;
    # the bound priced on the schedule of the unpruned funnel has the same bits
    problem = leaky_train(n)
    calls = []
    pruned = string_solver._binding_gates
    monkeypatch.setattr(
        string_solver, "_binding_gates", lambda *a: calls.append(a) or pruned(*a)
    )
    bound = drain_bound(problem)
    assert len(calls) == 1
    monkeypatch.setattr(string_solver, "PRUNE_MIN_BREAKPOINTS", math.inf)
    assert drain_bound(problem) == bound
    assert len(calls) == 1


def test_drain_bound_caps_slower_feasible_schedules():
    # one block run at a lower power keeps more charge at every instant, so
    # its replay never draws from an empty battery; its data stays below U
    checked = 0
    for seed in range(40):
        problem = random_leakage_problem(seed, bounded=seed % 3 != 0)
        bound = drain_bound(problem)
        solution = solve_n_packet(problem)
        for power in set(solution.block_powers):
            for scale in (0.3, 0.7, 0.95):
                slower = PowerSchedule(
                    tuple(
                        (t0, t1, p * scale if p == power else p)
                        for t0, t1, p in solution.schedule.segments
                    )
                )
                assert simulate(slower, problem).infeasible_at is None
                assert throughput(slower, RATE1) <= bound * (1.0 + 1e-12)
                checked += 1
    assert checked > 100


def test_drain_bound_without_leak_is_the_plain_dual_bound():
    # at eps = 0 the drain envelope is the rate itself, with no 0/0 at p_star
    for seed in range(20):
        problem = random_leakage_problem(seed, epsilon=0.0)
        harvested = from_packet_arrivals(problem.packets, problem.deadline)
        schedule = taut_string(harvested).schedule
        zero = zero_curve(problem.deadline)
        assert drain_bound(problem) == dual_bound(schedule, harvested, zero, RATE1)

