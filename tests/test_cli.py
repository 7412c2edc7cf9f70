"""End-to-end command-line checks: exit codes, files, schema, determinism."""

from __future__ import annotations

import errno
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    leaky_train,
    narrow_gate_train,
    random_leakage_problem,
    tangent_root,
)
from test_golden import SCENARIOS as GOLDEN_SCENARIOS, _train

from ehsched import (
    BatterySchedule,
    BroadcastProblem,
    Contact,
    GridSpec,
    PiecewiseCurve,
    PowerSchedule,
    awgn_rate,
    check_feasible,
    composite_rate,
    dp_throughput,
    dying_battery_scenario,
    from_packet_arrivals,
    min_energy_from_battery,
    simulate,
    solve_broadcast,
    taut_string,
    throughput,
    zero_curve,
)
from ehsched import cli
from ehsched.cli import (
    DEMO_SCENARIOS,
    REPORT_SCHEMA,
    _json_text,
    _solve_scenario,
    main,
)

DEMOS = sorted(DEMO_SCENARIOS)


def run(tmp_path, *args: str) -> int:
    return main([*args, "--out", str(tmp_path)])


def load_report(tmp_path, stem: str) -> dict:
    return json.loads((tmp_path / f"{stem}.report.json").read_text())


# --------------------------------------------------------------------------
# demos end to end


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_and_validates(tmp_path, name):
    assert run(tmp_path, "demo", name) == 0
    report = load_report(tmp_path, name)
    jsonschema.validate(report, REPORT_SCHEMA)
    for suffix in ("report.json", "schedule.csv", "plot.svg"):
        assert (tmp_path / f"{name}.{suffix}").exists()
    energy = report["energy"]
    balance = energy["harvested"] - energy["transmitted"] - energy["leaked"]
    assert balance == pytest.approx(energy["residual"], abs=1e-9)


def test_solar_demo_report_values(tmp_path):
    assert run(tmp_path, "demo", "solar") == 0
    report = load_report(tmp_path, "solar")
    assert report["energy"]["harvested"] == pytest.approx(40.0, abs=1e-6)
    assert report["departure_time"] == pytest.approx(tangent_root(18.0), abs=0.05)
    assert report["schedule"]["end_time"] == 18.0


def test_dying_battery_csv_rows(tmp_path):
    assert run(tmp_path, "demo", "dying-battery") == 0
    lines = (tmp_path / "dying-battery.schedule.csv").read_text().splitlines()
    assert lines[0] == "t_start,t_end,power"
    assert len(lines) == 3
    first = [float(x) for x in lines[1].split(",")]
    second = [float(x) for x in lines[2].split(",")]
    assert first == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)
    assert second == pytest.approx([1.0, 4.0, 2.0 / 3.0], abs=1e-9)


def test_broadcast_csv_has_user_columns(tmp_path):
    assert run(tmp_path, "demo", "broadcast") == 0
    lines = (tmp_path / "broadcast.schedule.csv").read_text().splitlines()
    assert lines[0] == "t_start,t_end,power,power_user1,power_user2"
    row = [float(x) for x in lines[1].split(",")]
    assert row == pytest.approx([0.0, 4.0, 2.0, 1.0, 1.0], abs=1e-9)


def test_leakage_demo_report(tmp_path):
    assert run(tmp_path, "demo", "leakage-counterexample") == 0
    report = load_report(tmp_path, "leakage-counterexample")
    assert report["total_data"] == pytest.approx(2.423558166935361, abs=1e-9)
    assert report["infeasible_at"] is None
    cmp = report["comparison"]
    assert cmp["d_st"] == pytest.approx(2.643856189774725, abs=1e-9)
    assert cmp["sufficient_condition"] is False
    assert set(report["curves"]) == {"harvested", "usable", "leaked", "spent"}


def test_solar_svg_structure(tmp_path):
    assert run(tmp_path, "demo", "solar") == 0
    svg = (tmp_path / "solar.plot.svg").read_text()
    assert svg.startswith("<svg ")
    assert 'class="curve-harvested"' in svg
    assert 'class="curve-spent"' in svg
    assert 'class="contact"' in svg
    assert 'class="departure"' in svg


def test_demo_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "demo", "leakage-counterexample") == 0
    assert run(b, "demo", "leakage-counterexample") == 0
    for suffix in ("report.json", "schedule.csv", "plot.svg"):
        name = f"leakage-counterexample.{suffix}"
        assert (a / name).read_bytes() == (b / name).read_bytes()


# --------------------------------------------------------------------------
# verify


def test_verify_demo_within_tolerance(tmp_path):
    assert run(tmp_path, "verify", "demo", "leakage-counterexample") == 0
    report = load_report(tmp_path, "leakage-counterexample")
    verification = report["verification"]
    assert verification["ok"] is True
    assert abs(verification["relative_gap"]) <= verification["tolerance"]


def test_verify_p2p_demo(tmp_path):
    assert run(tmp_path, "verify", "demo", "dying-battery") == 0
    verification = load_report(tmp_path, "dying-battery")["verification"]
    assert verification["ok"] is True
    assert verification["method"] == "dual_bound"
    assert "grid" not in verification
    assert verification["tolerance"] == 1e-9
    assert -1e-12 <= verification["relative_gap"] <= 1e-9


@pytest.mark.parametrize("resolution", [None, "8192"])
def test_verify_solar_without_a_grid(tmp_path, resolution):
    # the grid DP refused the 1024 solar pieces at its 400 time slots; the
    # dual bound needs no grid
    extra = [] if resolution is None else ["--resolution", resolution]
    assert run(tmp_path, "verify", "solar", *extra) == 0
    verification = load_report(tmp_path, "solar")["verification"]
    assert verification["ok"] is True
    assert -1e-12 <= verification["relative_gap"] <= 1e-9


TINY_LEAK = {
    "mode": "leakage",
    "deadline": "unbounded",
    "epsilon": 5e-324,
    "harvest": {"packets": [{"t": 0.0, "e": 1.0}]},
}


@pytest.mark.parametrize("source", ["golden-unbounded", "random-seed-2", "tiny-leak"])
def test_verify_leakage_scenarios(tmp_path, source):
    # verify refused unbounded deadlines, and its two-grid DP landed 4.4%
    # above the solver on random seed 2; the drain bound is exact on both
    if source == "golden-unbounded":
        scenario = GOLDEN_SCENARIOS["leakage-unbounded"]
    elif source == "tiny-leak":
        # an idle replay could not end (1 / 5e-324 overflows), but the
        # solver's schedule empties the battery at a finite time
        scenario = TINY_LEAK
    else:
        problem = random_leakage_problem(2)
        scenario = {
            "mode": "leakage",
            "deadline": problem.deadline,
            "harvest": {"packets": [{"t": t, "e": e} for t, e in problem.packets]},
            "epsilon": problem.epsilon,
        }
    assert run(tmp_path, "verify", write_scenario(tmp_path, scenario)) == 0
    verification = load_report(tmp_path, "scenario")["verification"]
    assert verification["ok"] is True
    assert verification["method"] == "dual_bound"
    assert "grid" not in verification
    assert -1e-12 <= verification["relative_gap"] <= 1e-9


@pytest.mark.parametrize(
    "scenario",
    [
        DEMO_SCENARIOS["leakage-counterexample"],
        GOLDEN_SCENARIOS["leakage-train"],
        GOLDEN_SCENARIOS["leakage-unbounded"],
        GOLDEN_SCENARIOS["leakage-idle"],
        TINY_LEAK,
    ],
    ids=["demo", "golden-train", "golden-unbounded", "golden-idle", "tiny-leak"],
)
def test_leakage_residual_is_zero_to_rounding(scenario):
    # the optimum spends the whole harvest, so the residual is zero only up
    # to rounding and may be negative: -6.7e-16 on the demo, -1.4e-13 on the
    # train, -5.2e-318 on the tiny leak
    report = _solve_scenario(scenario, 1024, False)
    energy = report["energy"]
    assert abs(energy["residual"]) <= 1e-12 * energy["harvested"]


@pytest.mark.parametrize("n", [1448, 10_000])
def test_verify_long_leaky_trains(tmp_path, n):
    # the carry DP's 401 levels fell 6% short of the solver at 1448 packets,
    # so verify exited 1 on a correct answer; the drain bound uses no levels
    problem = leaky_train(n)
    scenario = {
        "mode": "leakage",
        "deadline": problem.deadline,
        "harvest": {"packets": [{"t": t, "e": e} for t, e in problem.packets]},
        "epsilon": problem.epsilon,
    }
    path = write_scenario(tmp_path, scenario)
    assert run(tmp_path, "verify", path, "--format", "json") == 0
    verification = load_report(tmp_path, "scenario")["verification"]
    assert verification["ok"] is True
    assert verification["method"] == "dual_bound"
    assert -1e-12 <= verification["relative_gap"] <= 1e-9


def test_verify_leakage_needs_a_feasible_replay(monkeypatch):
    # a schedule that drew from an empty battery fails at any gap
    scenario = DEMO_SCENARIOS["leakage-counterexample"]
    report = _solve_scenario(scenario, 1024, True)
    assert report["verification"]["ok"] is True
    monkeypatch.setattr(
        cli,
        "simulate",
        lambda schedule, problem: replace(simulate(schedule, problem), infeasible_at=3.5),
    )
    report = _solve_scenario(scenario, 1024, True)
    verification = report["verification"]
    assert verification["relative_gap"] == 0.0
    assert verification["ok"] is False


def test_verify_capped_train_with_narrow_gates(tmp_path):
    # the grid DP spaced its levels over the whole stretch's energy and
    # found this corridor empty at t=3.13125, where it is 0.5 wide
    packets, deadline = narrow_gate_train(300)
    scenario = {
        "mode": "p2p",
        "deadline": deadline,
        "harvest": {"packets": [{"t": t, "e": e} for t, e in packets]},
        "battery": {"constant": 3.5},
    }
    assert run(tmp_path, "verify", write_scenario(tmp_path, scenario)) == 0
    verification = load_report(tmp_path, "scenario")["verification"]
    assert verification["ok"] is True
    assert -1e-12 <= verification["relative_gap"] <= 1e-9


# --------------------------------------------------------------------------
# scenario files and exit codes


def write_scenario(tmp_path, payload) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_scenario_file_round_trip(tmp_path):
    scenario = {
        "mode": "p2p",
        "deadline": 4.0,
        "harvest": {"packets": [{"t": 0.0, "e": 4.0}]},
        "battery": {"dying": {"b": [2.0, 2.0], "t": [1.0, 4.0]}},
    }
    assert run(tmp_path, "solve", write_scenario(tmp_path, scenario)) == 0
    report = load_report(tmp_path, "scenario")
    jsonschema.validate(report, REPORT_SCHEMA)
    segments = tuple(
        (s["t_start"], s["t_end"], s["power"])
        for s in report["schedule"]["segments"]
    )
    harvested, minimum = dying_battery_scenario([2.0, 2.0], [1.0, 4.0])
    assert check_feasible(PowerSchedule(segments), minimum, harvested).feasible


@st.composite
def corridor_scenarios(draw):
    """A small p2p or broadcast scenario (a packet train with no battery or
    a constant one, a dying bank, or a broadcast train) and the data the
    library gives it: ``throughput`` of the taut string under the rate, or
    ``solve_broadcast``'s weighted sum."""
    kind = draw(st.sampled_from(("train", "capped", "dying", "broadcast")))
    n = draw(st.integers(1, 6))
    t = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
    packets = []
    for _ in range(n):
        packets.append((t, draw(st.floats(0.1, 3.0))))
        t += draw(st.floats(0.1, 2.0))
    deadline = t
    harvested = from_packet_arrivals(packets, deadline)
    minimum = zero_curve(deadline)
    scenario = {
        "mode": "p2p",
        "deadline": deadline,
        "harvest": {"packets": [{"t": t, "e": e} for t, e in packets]},
    }
    if kind == "broadcast":
        n1 = draw(st.floats(0.1, 2.0))
        spec = {
            "n1": n1,
            "n2": n1 + draw(st.floats(0.1, 4.0)),
            "mu1": draw(st.floats(0.1, 3.0)),
            "mu2": draw(st.floats(0.1, 3.0)),
        }
        problem = BroadcastProblem(
            spec["n1"], spec["n2"], spec["mu1"], spec["mu2"], harvested, minimum
        )
        scenario.update(mode="broadcast", broadcast=spec)
        return scenario, solve_broadcast(problem).weighted_sum
    if kind == "capped":
        largest = max(e for _, e in packets)
        capacity = max(draw(st.floats(0.4, 0.9)) * harvested.breakpoints[-1][2], largest + 0.1)
        minimum = min_energy_from_battery(harvested, BatterySchedule.constant(capacity, deadline))
        scenario["battery"] = {"constant": capacity}
    elif kind == "dying":
        # the bank holds every packet at t=0 and loses each at its time
        shift = draw(st.floats(0.1, 1.0))
        deaths = [t + shift for t, _ in packets]
        amounts = [e for _, e in packets]
        deadline = deaths[-1] + draw(st.floats(0.0, 1.0))
        total = sum(amounts)
        harvested = from_packet_arrivals([(0.0, total)], deadline)
        minimum = from_packet_arrivals(list(zip(deaths, amounts)), deadline)
        scenario.update(
            deadline=deadline,
            harvest={"packets": [{"t": 0.0, "e": total}]},
            battery={"dying": {"b": amounts, "t": deaths}},
        )
    noise = draw(st.sampled_from((None, 0.5, 2.0)))
    if noise is not None:
        scenario["rate"] = {"type": "awgn", "noise": noise}
    rate = awgn_rate(1.0 if noise is None else noise)
    return scenario, throughput(taut_string(harvested, minimum).schedule, rate)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(corridor_scenarios())
def test_solve_reports_the_library_data(tmp_path_factory, case):
    # the report's total_data is the library's number, bit for bit
    scenario, expected = case
    out = tmp_path_factory.mktemp("solve")
    argv = ["solve", write_scenario(out, scenario), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert load_report(out, "scenario")["total_data"].hex() == expected.hex()


def test_unbounded_leakage_scenario(tmp_path):
    scenario = {
        "mode": "leakage",
        "deadline": "unbounded",
        "epsilon": 1.0,
        "harvest": {"packets": [{"t": 0.0, "e": 5.0}]},
    }
    assert run(tmp_path, "solve", write_scenario(tmp_path, scenario)) == 0
    report = load_report(tmp_path, "scenario")
    assert "comparison" not in report
    assert report["schedule"]["end_time"] == pytest.approx(5.0 / 2.718281828, rel=1e-6)


@pytest.mark.parametrize(
    "samples,deadline,expected",
    [
        ([1.0, 3.0], 2.0, [(0.0, 0.0), (2.0, 4.0)]),
        ([0.0, 1.0, 3.0, 2.0], 6.0, [(0.0, 0.0), (2.0, 1.0), (4.0, 5.0), (6.0, 10.0)]),
    ],
)
def test_samples_harvest_is_trapezoidal(tmp_path, samples, deadline, expected):
    scenario = {"mode": "p2p", "deadline": deadline, "harvest": {"samples": samples}}
    path = write_scenario(tmp_path, scenario)
    assert run(tmp_path, "solve", path) == 0
    curve = load_report(tmp_path, "scenario")["curves"]["harvested"]
    assert [(b["t"], b["v_right"]) for b in curve["breakpoints"]] == expected
    # --resolution grids only the named solar harvest, never given samples
    written = {p.name: p.read_bytes() for p in tmp_path.glob("scenario.*")}
    assert run(tmp_path, "solve", path, "--resolution", "64") == 0
    assert {p.name: p.read_bytes() for p in tmp_path.glob("scenario.*")} == written


def test_many_samples_are_one_trapezoid_per_cell():
    # thousands of samples: the curve is still the running trapezoid sum of
    # the given values, bit for bit
    samples = [abs(((k * 37) % 101) - 50) / 10.0 for k in range(3001)]
    deadline, cells = 17.3, len(samples) - 1
    curve = cli._build_harvest({"samples": samples}, deadline, 1024)
    expected, total = [(0.0, 0.0, 0.0)], 0.0
    for k in range(1, cells + 1):
        total += 0.5 * (samples[k - 1] + samples[k]) * (deadline / cells)
        t = deadline * k / cells if k < cells else deadline
        expected.append((t, total, total))
    assert curve.breakpoints == tuple(expected)


def test_broadcast_honours_resolution(tmp_path):
    scenario = {
        "mode": "broadcast",
        "deadline": 18.0,
        "harvest": {"named": "solar"},
        "broadcast": DEMO_SCENARIOS["broadcast"]["broadcast"],
    }
    path = write_scenario(tmp_path, scenario)
    assert run(tmp_path, "solve", path, "--resolution", "256") == 0
    curve = load_report(tmp_path, "scenario")["curves"]["harvested"]
    assert len(curve["breakpoints"]) == 257


def test_infeasible_scenario_exits_2(tmp_path):
    scenario = {
        "mode": "p2p",
        "deadline": 4.0,
        "harvest": {"packets": [{"t": 0.0, "e": 1.0}]},
        "battery": {"constant": 0.1},
    }
    assert run(tmp_path, "solve", write_scenario(tmp_path, scenario)) == 2


def test_validation_failures_exit_1(tmp_path, capsys):
    packet = {"packets": [{"t": 0.0, "e": 1.0}]}
    late_first = {"packets": [{"t": 2.0, "e": 1.0}, {"t": 1.0, "e": 1.0}]}
    p2p = {"mode": "p2p", "deadline": 4.0}

    def knots(*times):
        return [{"t": t, "capacity": 5.0} for t in times]

    # each payload, and a fragment of the message that names the bad field
    bad = [
        (p2p, '"harvest" must be'),  # no harvest
        ({"mode": "mystery", "deadline": 4.0, "harvest": {"packets": []}}, "mode"),
        ({**p2p, "deadline": "unbounded", "harvest": {"packets": []}}, "deadline"),
        ({**p2p, "harvest": packet, "rate": {"type": "exotic"}}, "rate"),
        ({"mode": "leakage", "deadline": 4.0, "harvest": packet}, "epsilon"),
        (
            {**p2p, "harvest": {"samples": [1.0, math.nan, 2.0]}},
            "harvest.samples[1]",
        ),
        (
            {**p2p, "harvest": {"packets": [{"t": 0.0, "e": math.inf}]}},
            "harvest.packets[0].e",
        ),
        (
            {**p2p, "harvest": packet, "rate": {"type": "awgn", "noise": math.nan}},
            "rate.noise",
        ),
        ({**p2p, "deadline": math.inf, "harvest": packet}, "deadline"),
        ({**p2p, "deadline": True, "harvest": packet}, "deadline"),
        (
            {"mode": "leakage", "deadline": 4.0, "harvest": packet, "epsilon": True},
            "epsilon",
        ),
        (
            {**p2p, "harvest": packet, "battery": {"dying": {"b": [], "t": []}}},
            "battery.dying.b",
        ),
        ({**p2p, "harvest": {"packets": [{"t": 0.0}]}}, "harvest.packets[0].e"),
        ({**p2p, "harvest": {"packets": {"t": 0.0, "e": 1.0}}}, "harvest.packets"),
        ({**p2p, "harvest": {"packets": [[0.0, 1.0]]}}, "harvest.packets[0]"),
        ({**p2p, "harvest": packet, "battery": {"dying": [2, 2]}}, "battery.dying"),
        (
            {**p2p, "harvest": packet, "battery": {"dying": {"b": [2.0]}}},
            "battery.dying.t",
        ),
        (
            {**p2p, "harvest": packet, "battery": {"dying": {"b": [-1], "t": [1]}}},
            "battery.dying.b[0]",
        ),
        (
            {
                **p2p,
                "harvest": packet,
                "battery": {"dying": {"b": [1, 1], "t": [2, 1]}},
            },
            "battery.dying.t",
        ),
        (
            {**p2p, "harvest": packet, "battery": {"dying": {"b": [1], "t": [-1]}}},
            "battery.dying.t[0]",
        ),
        (
            {
                "mode": "broadcast",
                "deadline": 4.0,
                "harvest": packet,
                "broadcast": {"n1": 1.0, "n2": 3.0, "mu1": 1.0},
            },
            "broadcast.mu2",
        ),
        # each sample is finite, but the trapezoid of the cell is not
        (
            {**p2p, "deadline": 10.0, "harvest": {"samples": [1e308, 1e308]}},
            "the harvest rate integrates to a non-finite inf",
        ),
        # timed lists strictly increase within [0, deadline], in every mode
        ({**p2p, "harvest": late_first}, "harvest.packets[1].t"),
        ({**p2p, "mode": "broadcast", "harvest": late_first}, "harvest.packets[1].t"),
        (
            {"mode": "leakage", "deadline": 4.0, "harvest": late_first, "epsilon": 0.5},
            "harvest.packets[1].t",
        ),
        (
            {
                "mode": "leakage",
                "deadline": "unbounded",
                "harvest": {"packets": [{"t": 0.0, "e": 1.0}, {"t": 0.0, "e": 1.0}]},
                "epsilon": 0.5,
            },
            "harvest.packets[1].t",
        ),
        ({**p2p, "harvest": {"packets": [{"t": 5.0, "e": 1.0}]}}, "harvest.packets[0].t"),
        (
            {**p2p, "harvest": packet, "battery": {"schedule": knots(0, 3, 2, 4)}},
            "battery.schedule[2].t",
        ),
        (
            {**p2p, "harvest": packet, "battery": {"schedule": knots(0, 5)}},
            "battery.schedule[1].t",
        ),
        (
            {**p2p, "harvest": packet, "battery": {"schedule": knots(0)}},
            '"battery.schedule" must end at the deadline',
        ),
        ({**p2p, "deadline": -4.0, "harvest": packet}, '"deadline" must be positive'),
        ({**p2p, "deadline": 0, "harvest": packet}, '"deadline" must be positive'),
        # the named solar day takes a deadline in [6, 24]
        ({**p2p, "deadline": 1e100, "harvest": {"named": "solar"}}, '"deadline"'),
        ({**p2p, "deadline": 3.0, "harvest": {"named": "solar"}}, '"deadline"'),
    ]
    for payload, field in bad:
        assert run(tmp_path, "solve", write_scenario(tmp_path, payload)) == 1, payload
        assert field in capsys.readouterr().err, payload
    # the named solar day's grid is --resolution, at least 64 pieces
    solar = write_scenario(tmp_path, {**p2p, "deadline": 18.0, "harvest": {"named": "solar"}})
    assert run(tmp_path, "solve", solar, "--resolution", "32") == 1
    assert "--resolution" in capsys.readouterr().err


_P2P = {"mode": "p2p", "deadline": 4.0, "harvest": {"packets": [{"t": 0.0, "e": 1.0}]}}
_LEAKY = {**_P2P, "mode": "leakage", "epsilon": 0.5}
_BROADCAST = {
    **_P2P,
    "mode": "broadcast",
    "broadcast": {"n1": 1.0, "n2": 3.0, "mu1": 1.0, "mu2": 2.0},
}


@pytest.mark.parametrize(
    "payload, field",
    [
        (
            {
                **_P2P,
                "battery": {"schedule": [{"t": 1, "capacity": 5}, {"t": 4, "capacity": 5}]},
            },
            '"battery.schedule[0].t" must be 0',
        ),
        ({**_P2P, "battery": {"a": 1}}, '"battery" has no known kind'),
        ({**_P2P, "harvest": {"a": 1}}, '"harvest" has no known kind'),
        (
            {
                "mode": "leakage",
                "deadline": 4.0,
                "epsilon": 0.5,
                "harvest": {"packets": [{"t": 1.0, "e": 1.0}]},
            },
            '"harvest.packets[0].t" must be 0 in leakage mode',
        ),
        (
            {"mode": "leakage", "deadline": 4.0, "epsilon": 0.5, "harvest": {"packets": []}},
            '"harvest.packets" must hold a packet in leakage mode',
        ),
        # signs and orders the library checks, named where the CLI reads them
        ({**_P2P, "harvest": {"packets": [{"t": 0, "e": 0}]}}, '"harvest.packets[0].e"'),
        ({**_LEAKY, "harvest": {"packets": [{"t": 0, "e": -1}]}}, '"harvest.packets[0].e"'),
        (
            {**_LEAKY, "harvest": {"packets": [{"t": 0, "e": 1}, {"t": 4.0, "e": 1}]}},
            '"deadline"',
        ),
        ({**_LEAKY, "epsilon": -0.5}, '"epsilon"'),
        ({**_LEAKY, "deadline": "unbounded", "epsilon": 0}, '"epsilon"'),
        ({**_P2P, "battery": {"constant": -1}}, '"battery.constant"'),
        (
            {
                **_P2P,
                "battery": {"schedule": [{"t": 0, "capacity": -1}, {"t": 4, "capacity": 1}]},
            },
            '"battery.schedule[0].capacity"',
        ),
        ({**_P2P, "rate": {"type": "awgn", "noise": 0}}, '"rate.noise"'),
        ({**_BROADCAST, "broadcast": {"n1": 3, "n2": 1, "mu1": 1, "mu2": 2}}, '"broadcast.n2"'),
        ({**_BROADCAST, "broadcast": {"n1": 1, "n2": 3, "mu1": -1, "mu2": 2}}, '"broadcast.mu1"'),
        # a noise so small that the rate divides a power by it to infinity;
        # the smallest normal float is no bound: 4 over 2.3e-308 is finite
        (
            {**_P2P, "harvest": {"packets": [{"t": 0, "e": 4}]}, "rate": {"type": "awgn", "noise": 5e-324}},
            '"rate.noise"',
        ),
        (
            {**_BROADCAST, "broadcast": {"n1": 5e-324, "n2": 3, "mu1": 1, "mu2": 2}},
            '"broadcast.n1"',
        ),
        # totals and powers that overflow
        ({**_P2P, "harvest": {"samples": [1e308, 1e308]}}, '"harvest.samples"'),
        (
            {**_P2P, "harvest": {"packets": [{"t": 0, "e": 1e308}, {"t": 1, "e": 1e308}]}},
            '"harvest.packets"',
        ),
        (
            {**_LEAKY, "deadline": 1e-300, "harvest": {"packets": [{"t": 0, "e": 1e300}]}},
            '"deadline"',
        ),
    ],
    ids=[
        "late-schedule",
        "unknown-battery",
        "unknown-harvest",
        "late-leakage-packet",
        "no-leakage-packet",
        "zero-energy-packet",
        "negative-leakage-packet",
        "leakage-packet-at-deadline",
        "negative-epsilon",
        "unbounded-without-leak",
        "negative-constant-battery",
        "negative-schedule-capacity",
        "zero-noise",
        "noise-order",
        "negative-weight",
        "subnormal-noise",
        "subnormal-broadcast-noise",
        "overflowing-samples",
        "overflowing-packets",
        "overflowing-block-power",
    ],
)
@pytest.mark.filterwarnings("error")
def test_refusals_name_their_field(tmp_path, capsys, payload, field):
    # each was refused by the library, or by the report writer, in a message
    # that named no field; none warns on the way
    assert run(tmp_path, "verify", write_scenario(tmp_path, payload)) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "items, message",
    [
        # every item must be an object before any number is read
        ([{"t": "x", "e": 1.0}, 5], '"p[1]" must be an object, got 5'),
        # then each item's t, then its value, item by item
        ([{"t": math.nan, "e": None}], '"p[0].t" must be a finite number, got nan'),
        (
            [{"t": 0.0, "e": None}, {"t": "x", "e": 1.0}],
            '"p[0].e" must be a finite number, got None',
        ),
        ([{"t": 0, "e": 2**1024}], '"p[0].e" must be a finite number, got ' + repr(2**1024)),
        # then the order of the times
        (
            [{"t": 2.0, "e": 1.0}, {"t": 1.0, "e": True}],
            '"p[1].e" must be a finite number, got True',
        ),
        (
            [{"t": 2.0, "e": 1.0}, {"t": 1.0, "e": 1.0}],
            '"p[1].t" must strictly increase within [0, 4.0], got 1.0',
        ),
    ],
    ids=["object-first", "t-first", "item-by-item", "big-int", "numbers-first", "order"],
)
def test_timed_refusals_keep_their_order(items, message):
    with pytest.raises(ValueError) as raised:
        cli._timed(items, "p", "e", 4.0)
    assert str(raised.value) == message


@pytest.mark.parametrize("k", [0, 3, 8191])
@pytest.mark.parametrize(
    "bad, shown",
    [(True, "True"), (math.nan, "nan"), (-math.inf, "-inf"), ("1.5", "'1.5'"), (None, "None")],
)
def test_numbers_name_the_bad_value(k, bad, shown):
    # the values of a list are read one by one only when it is not all
    # finite floats; that read names the first bad one
    values = [0.5 * (i % 7) for i in range(8192)]
    values[k] = bad
    for where in ("harvest.samples", "battery.dying.b"):
        with pytest.raises(ValueError) as raised:
            cli._numbers(values, where)
        assert str(raised.value) == f'"{where}[{k}]" must be a finite number, got {shown}'


def test_numbers_take_ints_and_floats():
    assert cli._numbers([0, 1.5, 2, 10**20], "harvest.samples") == [0.0, 1.5, 2.0, 1e20]
    values = [0.0, -0.0, 2.5]
    numbers = cli._numbers(values, "harvest.samples")
    assert numbers == values and numbers is not values
    assert repr(numbers) == "[0.0, -0.0, 2.5]"
    # finite floats whose sum overflows are still finite numbers
    assert cli._numbers([1e308, 1e308], "harvest.samples") == [1e308, 1e308]
    with pytest.raises(ValueError, match=r'"harvest.samples\[1\]" must be a finite number'):
        cli._numbers([1.0, 10**400], "harvest.samples")


def test_overflowing_leakage_block_exits_1(tmp_path, capsys):
    scenario = {
        "mode": "leakage",
        "deadline": 1e-10,
        "epsilon": 0.5,
        "harvest": {"packets": [{"t": 0.0, "e": 1e300}]},
    }
    assert run(tmp_path, "solve", write_scenario(tmp_path, scenario)) == 1
    assert "block 0 (packets 0 to 0) has a power that is not finite" in (
        capsys.readouterr().err
    )


def test_bad_arguments_exit_1(tmp_path):
    assert run(tmp_path, "solve", str(tmp_path / "missing.json")) == 1
    assert run(tmp_path, "solve", "no-such-demo") == 1
    assert main(["solve", "demo"]) == 1  # demo without a name
    assert run(tmp_path, "demo", "solar", "--format", "json,pdf") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        [],
        ["demo", "no-such-demo"],
        ["demo"],
        # no command takes a seed: verify draws no random schedules
        ["solve", "dying-battery", "--seed", "1"],
        ["demo", "dying-battery", "--seed", "1"],
        ["verify", "dying-battery", "--seed", "1"],
        # nor a grid: the leakage DP's carry levels are fixed
        ["verify", "leakage-counterexample", "--grid", "400x400"],
    ],
)
def test_argparse_errors_exit_1(argv):
    # argparse-level failures surface as SystemExit(1), not SystemExit(2):
    # status 2 is reserved for infeasible instances
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


def test_main_runs_repeatedly_in_one_process(tmp_path):
    # main parses with one parser built on first use; no call may leak an
    # option value or a failure into the next
    cli._parser.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "dying-battery", "--no-such-flag"])
        assert excinfo.value.code == 1
    pieces = []
    for out, extra in (("coarse", ["--resolution", "64"]), ("default", [])):
        argv = ["demo", "solar", "--format", "json", *extra]
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
        report = load_report(tmp_path / out, "solar")
        pieces.append(len(report["curves"]["harvested"]["breakpoints"]) - 1)
    assert pieces == [64, 1024]


@pytest.mark.parametrize("grid", ["200x200", "400x400", "800x800"])
@pytest.mark.parametrize("mode", ["p2p", "broadcast"])
def test_verify_pinched_corridor(tmp_path, mode, grid):
    # the 5-unit battery overflows exactly when the second packet lands, so
    # floor and ceiling both equal 3 at t=2, and 3 is on no level of a grid
    # over [0, 8] with 199, 399 or 799 level steps: verify's bound needs no
    # level there, and the grid DP starts a new stretch at the pinch
    scenario = {
        "mode": mode,
        "deadline": 4.0,
        "harvest": {"packets": [{"t": 0, "e": 3}, {"t": 2, "e": 5}]},
        "battery": {"constant": 5},
    }
    if mode == "broadcast":
        scenario["broadcast"] = {"n1": 1.0, "n2": 3.0, "mu1": 1.0, "mu2": 2.0}
    path = write_scenario(tmp_path, scenario)
    assert run(tmp_path, "verify", path) == 0
    verification = load_report(tmp_path, "scenario")["verification"]
    assert verification["ok"] is True
    assert -1e-12 <= verification["relative_gap"] <= 1e-9
    curves = _solve_scenario(scenario, 1024, False)["curves"]
    harvested, minimum = curves["harvested"], curves["minimum"]
    if mode == "broadcast":
        spec = scenario["broadcast"]
        rate = composite_rate(spec["mu1"], spec["mu2"], spec["n1"], spec["n2"])
    else:
        rate = awgn_rate(1.0)  # the scenario names no rate
    time_slots, levels = map(int, grid.split("x"))
    dp = dp_throughput(harvested, minimum, rate, GridSpec(time_slots, levels, 16.0))
    data = verification["solver_data"]
    assert -1e-9 <= (data - dp) / data <= 0.005


def test_verify_demo_pair_parses(tmp_path):
    # "verify demo <name>" and "verify <name>" are both accepted
    assert run(tmp_path, "verify", "dying-battery") == 0


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_keeps_files_and_status(tmp_path, unbuffered):
    # stdout is a pipe whose reading end is already closed, as in "| head"
    # after head has exited; the summary's print then fails at its write
    # (unbuffered) or at its flush (buffered)
    src = str(Path(cli.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        "PYTHONUNBUFFERED": unbuffered,
    }
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ehsched.cli", "demo", "solar", "--out", str(tmp_path)],
            stdout=writer,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(writer)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 0
    for suffix in ("report.json", "schedule.csv", "plot.svg"):
        assert (tmp_path / f"solar.{suffix}").exists()


def test_format_selection(tmp_path):
    assert run(tmp_path, "demo", "broadcast", "--format", "csv") == 0
    assert (tmp_path / "broadcast.schedule.csv").exists()
    assert not (tmp_path / "broadcast.report.json").exists()


def test_repeated_format_is_written_once(tmp_path, capsys, monkeypatch):
    written = []
    write_file = cli._write_file
    monkeypatch.setattr(
        cli, "_write_file", lambda path, text: (written.append(path), write_file(path, text))
    )
    assert run(tmp_path, "demo", "dying-battery", "--format", "json, csv,json,csv") == 0
    report, csv = (tmp_path / f"dying-battery.{s}" for s in ("report.json", "schedule.csv"))
    assert written == [report, csv]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("wrote")] == [f"wrote {report}", f"wrote {csv}"]


# --------------------------------------------------------------------------
# writing over old outputs in place


OUTPUTS = ("report.json", "schedule.csv", "plot.svg")


def test_shorter_output_over_longer_matches_a_fresh_run(tmp_path):
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert run(rerun, "demo", "solar", "--resolution", "8192") == 0
    longer = {s: (rerun / f"solar.{s}").stat().st_size for s in OUTPUTS}
    assert run(rerun, "demo", "solar") == 0
    assert run(fresh, "demo", "solar") == 0
    for suffix in OUTPUTS:
        new = (rerun / f"solar.{suffix}").read_bytes()
        assert len(new) < longer[suffix]
        assert new == (fresh / f"solar.{suffix}").read_bytes()


def test_output_symlink_is_written_through(tmp_path):
    out, target = tmp_path / "out", tmp_path / "kept.json"
    out.mkdir()
    target.write_text("x" * 100_000)
    link = out / "dying-battery.report.json"
    link.symlink_to(target)
    assert run(out, "demo", "dying-battery", "--format", "json") == 0
    assert link.is_symlink()
    assert target.read_text() == _json_text(load_report(out, "dying-battery")) + "\n"
    # a device holds nothing past the new bytes and is not cut
    link.unlink()
    link.symlink_to(os.devnull)
    assert run(out, "demo", "dying-battery", "--format", "json") == 0


def test_new_output_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        assert run(tmp_path, "demo", "broadcast", "--format", "csv") == 0
        with open(tmp_path / "reference", "w"):
            pass
    finally:
        os.umask(old)
    mode = (tmp_path / "reference").stat().st_mode
    assert mode & 0o777 == 0o640
    assert (tmp_path / "broadcast.schedule.csv").stat().st_mode == mode


def test_output_path_that_is_a_directory_exits_1(tmp_path, capsys):
    (tmp_path / "broadcast.schedule.csv").mkdir()
    assert run(tmp_path, "demo", "broadcast", "--format", "csv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.EISDIR}] Is a directory: ")
    assert "broadcast.schedule.csv" in err


def test_failed_write_leaves_no_old_tail(tmp_path, capsys, monkeypatch):
    target = tmp_path / "broadcast.schedule.csv"
    target.write_text("old\n" * 100_000)
    write = os.write
    calls = []

    def half_then_full_disk(fd, data):
        if fd <= 2:
            return write(fd, data)
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(fd, data[: len(data) // 2])

    monkeypatch.setattr(cli.os, "write", half_then_full_disk)
    assert run(tmp_path, "demo", "broadcast", "--format", "csv") == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    report = _solve_scenario(DEMO_SCENARIOS["broadcast"], 1024, False)
    expected = cli._csv_text(report).encode()
    assert target.read_bytes() == expected[: len(expected) // 2]


@pytest.mark.parametrize("formats", ["", ","])
def test_empty_format_list_exits_1(tmp_path, capsys, formats):
    out = tmp_path / "d"
    assert main(["demo", "dying-battery", "--format", formats, "--out", str(out)]) == 1
    assert "names no format" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# the report writer: exactly json.dumps(indent=2, sort_keys=True), faster


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


#: floats that reports are full of, beside arbitrary finite ones: both zeros,
#: integral values, the extremes of the range and repeated values
FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)
#: keys and strings that need escaping, or are not ASCII
TEXT = st.sampled_from(
    ["", "t", "v_left", '"', "\\", "\n", "%s", "%", "é", "\u2028", "\U0001f600", "\x00"]
) | st.text(max_size=6)
SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | FLOATS | TEXT


@st.composite
def record_lists(draw):
    """A list of dicts with one key set and float values (the writer's row
    template), sometimes broken by one odd value, key set or container."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    row_of = st.fixed_dictionaries({k: FLOATS for k in keys})
    rows = draw(st.lists(row_of, min_size=1, max_size=6))
    row, key = draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
    twist = draw(st.sampled_from(["none", "value", "missing", "extra", "tuple", "nested"]))
    if twist == "value":
        row[key] = draw(st.sampled_from([0, 1, True, False, None, "1.0", [1.0], {}]))
    elif twist == "missing":
        del row[key]
    elif twist == "extra":
        row[draw(TEXT)] = draw(FLOATS)
    elif twist == "tuple":
        return tuple(rows)
    elif twist == "nested":
        return [rows, {key: rows}]
    return rows


TREES = st.recursive(
    SCALARS | record_lists(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES)
@example([{"t": -0.0, "v": 0.0}, {"t": 0.0, "v": -0.0}, {"t": -0.0, "v": -0.0}])
@example([1, 1.0, True, {"a": 1}, {"a": 1.0}, {"a": True}])
@example([{"a": 1.0}, {"a": 1}])
@example({"": [], "e": {}, "l": [[], {}], "t": ()})
@example({"%s\u00e9\n": [{"%s": 0.5, "\u2028": 2.5}, {"%s": 0.5, "\u2028": -0.0}]})
@example([{"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0}])
def test_json_text_is_json_dumps(obj):
    assert _json_text(obj) == reference_json(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda v: v,
        lambda v: [1.0, v],
        lambda v: {"a": {"b": v}},
        lambda v: [{"t": 1.0, "v": 2.0}, {"t": v, "v": 1.0}],
        lambda v: [{"t": 1.0, "v": v}, {"t": math.nan, "v": 1.0}],
    ],
)
def test_json_text_refuses_non_finite(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(ValueError) as expected:
        reference_json(obj)
    with pytest.raises(ValueError) as raised:
        _json_text(obj)
    assert str(raised.value) == str(expected.value)
    assert "not JSON compliant" in str(raised.value)


def test_json_text_refuses_unknown_types():
    for obj in ({"a": object()}, [{"t": 1.0}, {"t": {1.0}}], {(1, 2): 1.0}):
        with pytest.raises(TypeError):
            reference_json(obj)
        with pytest.raises(TypeError):
            _json_text(obj)
    # json.dumps writes non-str keys as strings; reports never have them
    with pytest.raises(TypeError):
        _json_text({1: 1.0})


def expand(o):
    """The objects REPORT_SCHEMA names for a report's library objects."""
    if isinstance(o, PowerSchedule):
        return {
            "segments": [
                {"t_start": t0, "t_end": t1, "power": p} for t0, t1, p in o.segments
            ],
            "end_time": o.end_time,
            "total_energy": o.total_energy,
        }
    if isinstance(o, PiecewiseCurve):
        return {
            "horizon": o.horizon,
            "breakpoints": [
                {"t": t, "v_left": vl, "v_right": vr} for t, vl, vr in o.breakpoints
            ],
        }
    if isinstance(o, Contact):
        return {"time": o.time, "value": o.value, "kind": o.kind}
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def reference_report_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False, default=expand)


_LONG, _LONG_DEADLINE = _train(1448)
_LONG_LEAKY, _LONG_LEAKY_DEADLINE = _train(1448, trend=0.5)
#: reports far larger than the golden ones: 1448-packet trains, 8192 pieces
LARGE_SCENARIOS = {
    "capped-1448": {
        "mode": "p2p",
        "deadline": _LONG_DEADLINE,
        "harvest": {"packets": _LONG},
        "battery": {"constant": 3.5},
    },
    "leakage-1448": {
        "mode": "leakage",
        "deadline": _LONG_LEAKY_DEADLINE,
        "harvest": {"packets": _LONG_LEAKY},
        "epsilon": 0.95,
    },
    "solar-8192": DEMO_SCENARIOS["solar"],
}


@pytest.mark.parametrize(
    "name",
    [
        *DEMOS,
        "capped-train",
        "leakage-train",
        "leakage-unbounded",
        "leakage-idle",
        *LARGE_SCENARIOS,
    ],
)
def test_json_text_on_reports(name):
    scenario = (
        DEMO_SCENARIOS.get(name) or GOLDEN_SCENARIOS.get(name) or LARGE_SCENARIOS[name]
    )
    resolution = 8192 if name == "solar-8192" else 1024
    for verify in (False, True):
        report = _solve_scenario(scenario, resolution, verify)
        assert _json_text(report) == reference_report_json(report)


#: a report's library objects, with floats the writer must render as json
#: does (small enough that no total energy overflows), and now and then an
#: int where the library keeps floats
NUMBERS = (
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 1e-7, 5e-324])
    | st.floats(-1e9, 1e9)
    | st.integers(-5, 5)
)
LIBRARY_OBJECTS = (
    st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS), min_size=1, max_size=5).map(
        lambda segments: PowerSchedule._trusted(tuple(segments))
    )
    | st.builds(
        PiecewiseCurve._trusted,
        st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS), min_size=1, max_size=5).map(
            tuple
        ),
        NUMBERS,
    )
    | st.builds(Contact, NUMBERS, NUMBERS, TEXT)
)
#: the contacts of a report come as one tuple
CONTACTS = st.lists(st.builds(Contact, NUMBERS, NUMBERS, TEXT), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.recursive(
        SCALARS
        | LIBRARY_OBJECTS
        | CONTACTS.map(tuple)
        | st.lists(LIBRARY_OBJECTS, max_size=4).map(tuple),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(TEXT, children, max_size=4),
        max_leaves=12,
    )
)
def test_json_text_writes_library_objects_as_the_schema(obj):
    assert _json_text(obj) == reference_report_json(obj)


def reference_csv(schedules) -> str:
    """The CSV text, one f-string per value."""
    header = ("t_start", "t_end", "power", "power_user1", "power_user2")
    lines = [",".join(header[: 2 + len(schedules)])]
    for row in zip(*schedules):
        values = (row[0]["t_start"], row[0]["t_end"], *(s["power"] for s in row))
        lines.append(",".join(f"{v:.12g}" for v in values))
    return "\n".join(lines) + "\n"


SEGMENTS = st.lists(
    st.fixed_dictionaries({"t_start": FLOATS, "t_end": FLOATS, "power": FLOATS}),
    max_size=6,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(SEGMENTS, min_size=1, max_size=3))
def test_csv_template_matches_per_value_format(schedules):
    keys = ("schedule", "user1_schedule", "user2_schedule")
    report = {
        key: PowerSchedule._trusted(
            tuple((d["t_start"], d["t_end"], d["power"]) for d in s)
        )
        for key, s in zip(keys, schedules)
    }
    assert cli._csv_text(report) == reference_csv(schedules)
