"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; each one re-derives its expected values from closed forms
or from the brute-force oracles in :mod:`ehsched.oracle`.
"""

from __future__ import annotations

import json
import math

import jsonschema
import numpy as np
import pytest
from conftest import (
    RATE1,
    battery_content,
    binding_leakage_problem,
    broadcast_inner_max,
    chord_slopes,
    grid_argmax_f,
    random_corridor,
    random_leakage_problem,
    random_packets,
    solar_harvested_energy,
    tangent_root,
)

from ehsched import (
    GridSpec,
    LeakageProblem,
    compare_ST_NT,
    composite_rate,
    dp_leakage_throughput,
    dp_throughput,
    from_packet_arrivals,
    integrate_rate,
    optimality_certificate,
    p_star,
    power_threshold,
    random_feasible_schedule,
    simulate,
    solar_harvest_rate,
    solve_broadcast,
    solve_n_packet,
    sufficient_condition_holds,
    taut_string,
    throughput,
    zero_curve,
)
from ehsched.broadcast import BroadcastProblem
from ehsched.cli import main

E = math.e


def _criterion(cid: str, failures: list[str], detail: str) -> None:
    """Print exactly one status line for the criterion, then assert."""
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    print(f"{cid} {status}  {detail}")
    assert not failures, f"{cid}: " + "; ".join(failures[:5])


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _departure(solution) -> float:
    return max(c.time for c in solution.contacts if c.kind == "upper")


def _p2p_gap(harvested, minimum, solution, grid=None) -> float:
    """Signed relative gap of the solver above the (lower-bound) DP value."""
    if grid is None:
        max_power = max(p for _, _, p in solution.schedule.segments)
        grid = GridSpec(400, 400, 4.0 * max(max_power, 0.25) + 1.0)
    oracle = dp_throughput(harvested, minimum, RATE1, grid)
    data = throughput(solution.schedule, RATE1)
    return (data - oracle) / max(data, 1e-12)


def test_criterion_01_constant_power():
    failures: list[str] = []
    harvested = from_packet_arrivals([(0.0, 4.0)], 4.0)
    solution = taut_string(harvested)
    data = throughput(solution.schedule, RATE1)
    exact = 4.0 * float(RATE1(1.0))
    _check(
        failures,
        solution.schedule.segments == ((0.0, 4.0, 1.0),),
        f"expected one unit-power segment, got {solution.schedule.segments}",
    )
    _check(
        failures,
        data == exact,
        f"throughput {data!r} != 4*r(1) = {exact!r}",
    )
    worst = -math.inf
    for seed in range(1000):
        rival = random_feasible_schedule(harvested, zero_curve(4.0), seed=seed)
        worst = max(worst, throughput(rival, RATE1))
    _check(
        failures,
        worst <= exact + 1e-9,
        f"a random feasible schedule reached {worst} > {exact}",
    )
    _criterion(
        "C01",
        failures,
        f"constant power: data {data:.9f}, "
        f"best of 1000 rivals {worst:.9f}",
    )


def test_criterion_02_certificate():
    failures: list[str] = []
    for seed in range(200):
        harvested, minimum = random_corridor(seed)
        solution = taut_string(harvested, minimum)
        report = optimality_certificate(solution, minimum, harvested)
        _check(
            failures,
            report.ok,
            f"seed {seed}: certificate failed: {report.failures[:2]}",
        )
    _criterion("C02", failures, "optimality certificate on 200 random corridors")


def test_criterion_03_dp_equivalence():
    failures: list[str] = []
    worst = 0.0
    for seed in range(200):
        harvested, minimum = random_corridor(seed)
        solution = taut_string(harvested, minimum)
        gap = _p2p_gap(harvested, minimum, solution)
        worst = max(worst, gap)
        _check(
            failures,
            -1e-9 <= gap <= 0.005,
            f"seed {seed}: relative DP gap {gap:.3%} outside [0, 0.5%]",
        )
    _criterion("C03", failures, f"worst solver-vs-DP gap {worst:.3%} over 200 runs")


def test_criterion_04_solar():
    failures: list[str] = []
    _check(
        failures,
        abs(solar_harvested_energy(18.0) - 40.0) <= 1e-6,
        f"analytic harvest total {solar_harvested_energy(18.0)} != 40",
    )
    root = tangent_root(18.0)
    harvested = integrate_rate(solar_harvest_rate, 18.0, 1024)
    coarse = taut_string(harvested)
    fine = taut_string(integrate_rate(solar_harvest_rate, 18.0, 8192))
    _check(
        failures,
        abs(_departure(coarse) - root) <= 0.05,
        f"departure {_departure(coarse)} at resolution 1024 vs root {root}",
    )
    _check(
        failures,
        abs(_departure(fine) - root) <= 0.005,
        f"departure {_departure(fine)} at resolution 8192 vs root {root}",
    )
    gap = _p2p_gap(
        harvested, zero_curve(18.0), coarse, grid=GridSpec(1100, 8192, 16.0)
    )
    _check(failures, -1e-9 <= gap <= 0.005, f"solar DP gap {gap:.3%}")
    _criterion(
        "C04",
        failures,
        f"departure {_departure(fine):.4f} (root {root:.4f}), DP gap {gap:.3%}",
    )


def test_criterion_05_broadcast():
    failures: list[str] = []
    rate = composite_rate(1.0, 2.0, 1.0, 3.0)
    worst = 0.0
    for power in np.geomspace(0.05, 20.0, 50):
        err = abs(float(rate(power)) - broadcast_inner_max(1.0, 2.0, 1.0, 3.0, power))
        worst = max(worst, err)
        _check(
            failures, err <= 1e-6, f"composite rate off by {err} at power {power}"
        )
    grid = np.geomspace(1e-3, 100.0, 400)
    slopes = chord_slopes(grid, np.asarray(rate(grid), dtype=float))
    bend = float(np.max(np.diff(slopes)))
    _check(failures, bend <= 1e-9, f"composite rate not concave: {bend}")

    threshold = power_threshold(1.0, 2.0, 1.0, 3.0)
    _check(
        failures,
        threshold == 1.0,
        f"expected threshold exactly 1, got {threshold}",
    )
    _check(
        failures,
        abs(float(rate(3.0)) - 1.08496) <= 1e-4,
        f"composite rate at power 3 is {float(rate(3.0))}",
    )

    harvested = from_packet_arrivals([(0.0, 3.0), (1.5, 2.0)], 4.0)
    minimum = zero_curve(4.0)
    reference = taut_string(harvested, minimum)
    for mu2, noises in ((0.8, (1.0, 3.0)), (3.5, (1.0, 3.0))):
        problem = BroadcastProblem(
            noise1=noises[0], noise2=noises[1], mu1=1.0, mu2=mu2,
            harvested=harvested, minimum=minimum,
        )
        degenerate = solve_broadcast(problem)
        _check(
            failures,
            degenerate.string.vertices == reference.vertices,
            f"mu2={mu2}: degenerate vertices differ from point-to-point",
        )
    _criterion(
        "C05",
        failures,
        f"inner-max error {worst:.2e}, threshold {threshold}, "
        f"rate(3) {float(rate(3.0)):.6f}",
    )


def test_criterion_06_p_star():
    failures: list[str] = []
    star = p_star(RATE1, 1.0)
    _check(failures, abs(star - (E - 1.0)) <= 1e-9, f"p_star(1) = {star} != e-1")
    approx = grid_argmax_f(RATE1, 1.0)
    powers = np.geomspace(100.0 * 1e-9, 100.0, 4096)
    i_approx = int(np.argmin(np.abs(powers - approx)))
    i_star = int(np.argmin(np.abs(powers - star)))
    _check(
        failures,
        abs(i_approx - i_star) <= 1,
        f"grid maximizer {approx} is {abs(i_approx - i_star)} steps from {star}",
    )
    stars = [p_star(RATE1, eps) for eps in (0.0, 0.1, 0.5, 1.0, 2.0)]
    _check(
        failures,
        all(a <= b + 1e-12 for a, b in zip(stars, stars[1:])),
        f"p_star not non-decreasing in the leak rate: {stars}",
    )
    _check(failures, stars[0] == 0.0, f"p_star(0) = {stars[0]} != 0")
    _criterion("C06", failures, f"p_star(1) = {star:.12f} (e-1 = {E - 1.0:.12f})")


def test_criterion_07_single_packet_closed_forms():
    failures: list[str] = []
    tight = solve_n_packet(LeakageProblem(((0.0, 16.0),), 1.0, 4.0, RATE1))
    _check(
        failures,
        tight.block_powers == (3.0,),
        f"deadline-limited power {tight.block_powers} != (3,)",
    )
    _check(
        failures,
        abs(tight.total_data - 4.0) <= 1e-9,
        f"deadline-limited data {tight.total_data} != 4",
    )
    slack = solve_n_packet(LeakageProblem(((0.0, 10.0),), 1.0, 4.0, RATE1))
    expected = 10.0 * float(RATE1(E - 1.0)) / E
    _check(
        failures,
        abs(slack.block_powers[0] - (E - 1.0)) <= 1e-9,
        f"slack power {slack.block_powers[0]} != e-1",
    )
    _check(
        failures,
        abs(slack.total_data - expected) <= 1e-9,
        f"slack data {slack.total_data} != {expected}",
    )
    gaps = []
    for energy, solution in ((16.0, tight), (10.0, slack)):
        problem = LeakageProblem(
            packets=((0.0, energy),), epsilon=1.0, deadline=4.0, rate=RATE1
        )
        oracle = dp_leakage_throughput(problem, GridSpec(400, 400, 16.0))
        gap = (solution.total_data - oracle) / solution.total_data
        gaps.append(gap)
        _check(
            failures,
            abs(gap) <= 0.01,
            f"energy {energy}: DP gap {gap:.3%} exceeds 1%",
        )
    _criterion(
        "C07",
        failures,
        f"data {tight.total_data:.9f} / {slack.total_data:.9f}, "
        f"DP gaps {gaps[0]:.3%} / {gaps[1]:.3%}",
    )


def test_criterion_08_n_packet():
    failures: list[str] = []
    for seed in range(20):
        problem = random_leakage_problem(seed, bounded=False)
        solution = solve_n_packet(problem)
        star = p_star(problem.rate, problem.epsilon)
        _check(
            failures,
            all(p == star for p in solution.block_powers),
            f"unbounded seed {seed}: block powers {solution.block_powers} != p*",
        )

    for seed in range(100):
        problem = random_leakage_problem(seed, epsilon=0.0)
        leakfree = solve_n_packet(problem).total_data
        harvested = from_packet_arrivals(problem.packets, problem.deadline)
        plain = throughput(taut_string(harvested).schedule, problem.rate)
        _check(
            failures,
            abs(leakfree - plain) <= 1e-9,
            f"zero-leak seed {seed}: {leakfree} vs taut string {plain}",
        )

    for seed in range(100):
        problem = random_leakage_problem(seed)
        cmp = compare_ST_NT(problem)
        _check(
            failures,
            cmp.d_st >= cmp.d_nt - 1e-9,
            f"seed {seed}: upfront optimum {cmp.d_st} < staggered {cmp.d_nt}",
        )
        if sufficient_condition_holds(problem):
            _check(
                failures,
                abs(cmp.d_st - cmp.d_nt) <= 1e-9,
                f"seed {seed}: condition holds but gap {cmp.d_st - cmp.d_nt}",
            )

    held = failed = 0
    for seed in range(100):
        problem = binding_leakage_problem(seed)
        cmp = compare_ST_NT(problem)
        if sufficient_condition_holds(problem):
            held += 1
            _check(
                failures,
                abs(cmp.d_st - cmp.d_nt) <= 1e-9,
                f"binding seed {seed}: condition holds but gap "
                f"{cmp.d_st - cmp.d_nt}",
            )
        else:
            failed += 1
            _check(
                failures,
                cmp.d_st - cmp.d_nt > 1e-6,
                f"binding seed {seed}: condition fails but gap only "
                f"{cmp.d_st - cmp.d_nt}",
            )
    _check(
        failures,
        held >= 10 and failed >= 10,
        f"binding suite unbalanced: {held} hold / {failed} fail",
    )

    counterexample = LeakageProblem(
        packets=((0.0, 4.0), (3.0, 4.0)), epsilon=0.5, deadline=4.0, rate=RATE1
    )
    cmp = compare_ST_NT(counterexample)
    upfront = LeakageProblem(
        packets=((0.0, 8.0),), epsilon=0.5, deadline=4.0, rate=RATE1
    )
    grid = GridSpec(400, 400, 16.0)
    dp_nt = dp_leakage_throughput(counterexample, grid)
    dp_st = dp_leakage_throughput(upfront, grid)
    _check(
        failures,
        abs(cmp.d_nt - dp_nt) / cmp.d_nt <= 0.01,
        f"counterexample staggered value {cmp.d_nt} vs DP {dp_nt}",
    )
    _check(
        failures,
        abs(cmp.d_st - dp_st) / cmp.d_st <= 0.01,
        f"counterexample upfront value {cmp.d_st} vs DP {dp_st}",
    )
    # regression freeze of the DP-confirmed pair
    _check(
        failures,
        abs(cmp.d_nt - 2.423558166935361) <= 1e-3,
        f"frozen staggered value drifted: {cmp.d_nt}",
    )
    _check(
        failures,
        abs(cmp.d_st - 2.643856189774725) <= 1e-3,
        f"frozen upfront value drifted: {cmp.d_st}",
    )
    _criterion(
        "C08",
        failures,
        f"iff split {held}/{failed}, counterexample "
        f"{cmp.d_st:.6f} > {cmp.d_nt:.6f}",
    )


def test_criterion_09_conservation():
    failures: list[str] = []
    problems = [
        LeakageProblem(
            packets=((0.0, 4.0), (3.0, 4.0)), epsilon=0.5, deadline=4.0, rate=RATE1
        ),
        LeakageProblem(packets=((0.0, 16.0),), epsilon=1.0, deadline=4.0, rate=RATE1),
        LeakageProblem(packets=((0.0, 10.0),), epsilon=1.0, deadline=4.0, rate=RATE1),
    ]
    problems += [random_leakage_problem(seed) for seed in range(50)]
    problems += [random_leakage_problem(seed, bounded=False) for seed in range(5)]
    for index, problem in enumerate(problems):
        solution = solve_n_packet(problem)
        trace = simulate(solution.schedule, problem)
        scale = max(1.0, problem.total_energy)
        _check(
            failures,
            trace.infeasible_at is None,
            f"instance {index}: schedule overdraws at t={trace.infeasible_at}",
        )
        horizon = trace.transmitted.horizon
        spent = trace.transmitted.eval(horizon) + trace.leaked.eval(horizon)
        _check(
            failures,
            abs(spent - problem.total_energy) <= 1e-9 * scale,
            f"instance {index}: transmitted+leaked {spent} != "
            f"total {problem.total_energy}",
        )
        for boundary in solution.block_boundaries:
            content = battery_content(trace, boundary, left=True)
            _check(
                failures,
                abs(content) <= 1e-9 * scale,
                f"instance {index}: battery holds {content} at block "
                f"boundary t={boundary}",
            )
    _criterion("C09", failures, f"energy books balance on {len(problems)} instances")


def test_criterion_10_cli_round_trip(tmp_path):
    failures: list[str] = []
    from ehsched.cli import REPORT_SCHEMA

    gaps = {}
    for name in ("solar", "dying-battery", "broadcast", "leakage-counterexample"):
        code = main(["verify", name, "--out", str(tmp_path)])
        _check(failures, code == 0, f"{name}: verify exited {code}")
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        try:
            jsonschema.validate(report, REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            _check(failures, False, f"{name}: report schema: {exc.message}")
            continue
        verification = report.get("verification")
        if verification is None:
            _check(failures, False, f"{name}: no verification block")
            continue
        gaps[name] = verification["relative_gap"]
        _check(failures, verification["ok"] is True, f"{name}: oracle check failed")
        _check(
            failures,
            abs(verification["relative_gap"]) <= verification["tolerance"],
            f"{name}: gap {verification['relative_gap']:.3%} over tolerance",
        )
    detail = ", ".join(f"{name} {gap:.3%}" for name, gap in gaps.items())
    _criterion("C10", failures, f"verify gaps: {detail}")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
