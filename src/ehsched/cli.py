"""Command-line interface: scenario files in, reports out.

A scenario is a JSON object::

    {
      "mode": "p2p" | "broadcast" | "leakage",
      "rate": {"type": "awgn", "noise": 1.0},          # optional, this default
      "deadline": 18.0 | "unbounded",                   # "unbounded": leakage only
      "harvest": {"packets": [{"t": 0.0, "e": 4.0}, ...]}
               | {"samples": [v0, v1, ...]}             # rate at uniform times
               | {"named": "solar"},                    # deadline in [6, 24]
      "battery": "none"                                 # optional, default none
               | {"constant": 5.0}
               | {"schedule": [{"t": 0.0, "capacity": 5.0}, ...]}
               | {"dying": {"b": [2.0, 2.0], "t": [1.0, 4.0]}},
      "epsilon": 0.5,                                   # leakage mode only
      "broadcast": {"n1": 1.0, "n2": 3.0, "mu1": 1.0, "mu2": 2.0}
    }

Every number must be a finite JSON number: booleans, NaN and Infinity are
refused, and the deadline is positive.  The times of ``packets``, ``schedule``
and ``dying`` strictly increase within [0, deadline], and a ``schedule`` ends
at the deadline.  The ``samples`` and ``dying`` lists must not be empty.
Packet energies, ``dying`` amounts, ``noise`` and ``n1`` are positive, ``n2``
exceeds ``n1``, and capacities, ``epsilon`` and the weights are non-negative;
the weights are not both zero, ``epsilon`` is positive under an unbounded
deadline, and a bounded leakage deadline comes after the last packet.
``samples`` are harvest-rate values at uniform times from 0 to the deadline,
linearly interpolated in between.  The harvest and the ``dying`` amounts add
up to a finite energy, a bounded leakage deadline leaves every block a finite
power, and the data priced at ``noise`` or ``n1`` is finite: a subnormal
noise can divide a power to infinity.  ``epsilon`` leaves the best transmit
power ``p_star`` at or below 1e30, the bracket of its search.

``solve`` writes a JSON report (plus CSV schedule and SVG plot); ``verify``
also checks that the schedule is feasible and its data within a one-sided
relative gap of a dual bound above it.  Each takes one scenario: a JSON file,
else a demo's name.  Exit status: 0 success, 1 invalid input/arguments or a
failed verification, 2 infeasible instance.  A closed standard output drops
the summary lines but changes neither the files written nor the status.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .broadcast import BroadcastProblem, solve_broadcast
from .curves import (
    BatterySchedule,
    CumulativeCurve,
    InfeasibleError,
    PiecewiseCurve,
    PowerSchedule,
    check_feasible,
    from_packet_arrivals,
    integrate_rate,
    min_energy_from_battery,
    solar_harvest_rate,
    zero_curve,
)
from .leakage import (
    LeakageProblem,
    compare_ST_NT,
    drain_bound,
    simulate,
    solve_n_packet,
)
from .rate import RateFunction, awgn_rate, throughput
from .string_solver import Contact, dual_bound, taut_string

__all__ = ["main", "DEMO_SCENARIOS", "REPORT_SCHEMA"]

#: Largest relative gap ``(U - data) / data`` to the dual bound ``U`` that
#: ``verify`` accepts.  A gap below ``GAP_FLOOR`` means the bound itself was
#: computed wrongly.
DUAL_GAP_TOLERANCE = 1e-9
GAP_FLOOR = -1e-12
# read by the benchmark's grid-DP and rival checks; verify uses none of them
LEAKAGE_GAP_TOLERANCE = 1e-4
P2P_GAP_TOLERANCE = 0.005
DOMINANCE_SWEEPS = 64

DEMO_SCENARIOS: dict[str, dict] = {
    "solar": {
        "mode": "p2p",
        "rate": {"type": "awgn", "noise": 1.0},
        "deadline": 18.0,
        "harvest": {"named": "solar"},
        "battery": "none",
    },
    "dying-battery": {
        "mode": "p2p",
        "rate": {"type": "awgn", "noise": 1.0},
        "deadline": 4.0,
        "harvest": {"packets": [{"t": 0.0, "e": 4.0}]},
        "battery": {"dying": {"b": [2.0, 2.0], "t": [1.0, 4.0]}},
    },
    "broadcast": {
        "mode": "broadcast",
        "deadline": 4.0,
        "harvest": {"packets": [{"t": 0.0, "e": 8.0}]},
        "battery": "none",
        "broadcast": {"n1": 1.0, "n2": 3.0, "mu1": 1.0, "mu2": 2.0},
    },
    "leakage-counterexample": {
        "mode": "leakage",
        "rate": {"type": "awgn", "noise": 1.0},
        "deadline": 4.0,
        "harvest": {"packets": [{"t": 0.0, "e": 4.0}, {"t": 3.0, "e": 4.0}]},
        "epsilon": 0.5,
    },
}

_NUMBER = {"type": "number"}
_SEGMENT = {
    "type": "object",
    "required": ["t_start", "t_end", "power"],
    "properties": {"t_start": _NUMBER, "t_end": _NUMBER, "power": _NUMBER},
}
_SCHEDULE = {
    "type": "object",
    "required": ["segments", "end_time", "total_energy"],
    "properties": {
        "segments": {"type": "array", "items": _SEGMENT, "minItems": 1},
        "end_time": _NUMBER,
        "total_energy": _NUMBER,
    },
}
_CURVE = {
    "type": "object",
    "required": ["horizon", "breakpoints"],
    "properties": {
        "horizon": _NUMBER,
        "breakpoints": {
            "type": "array",
            "minItems": 2,
            "items": {
                "type": "object",
                "required": ["t", "v_left", "v_right"],
                "properties": {"t": _NUMBER, "v_left": _NUMBER, "v_right": _NUMBER},
            },
        },
    },
}

#: Structure of the JSON report written by ``solve`` and ``verify``.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["mode", "scenario", "schedule", "total_data", "energy", "curves"],
    "properties": {
        "mode": {"enum": ["p2p", "broadcast", "leakage"]},
        "scenario": {"type": "object"},
        "schedule": _SCHEDULE,
        "user1_schedule": _SCHEDULE,
        "user2_schedule": _SCHEDULE,
        "total_data": _NUMBER,
        "user1_data": _NUMBER,
        "user2_data": _NUMBER,
        "weighted_sum": _NUMBER,
        "block_powers": {"type": "array", "items": _NUMBER},
        "block_boundaries": {"type": "array", "items": _NUMBER},
        "energy": {
            "type": "object",
            "required": ["harvested", "transmitted", "leaked", "residual"],
            "properties": {
                "harvested": _NUMBER,
                "transmitted": _NUMBER,
                "leaked": _NUMBER,
                "residual": _NUMBER,
            },
        },
        "contacts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["time", "value", "kind"],
                "properties": {
                    "time": _NUMBER,
                    "value": _NUMBER,
                    "kind": {"enum": ["start", "upper", "lower", "end"]},
                },
            },
        },
        "departure_time": {"type": ["number", "null"]},
        "curves": {"type": "object", "additionalProperties": _CURVE},
        "comparison": {
            "type": "object",
            "required": ["d_nt", "d_st"],
            "properties": {
                "d_nt": _NUMBER,
                "d_st": _NUMBER,
                "sufficient_condition": {"type": "boolean"},
            },
        },
        "infeasible_at": {"type": ["number", "null"]},
        "verification": {
            "type": "object",
            "required": [
                "method", "solver_data", "oracle_data", "relative_gap", "tolerance",
                "ok",
            ],
            "properties": {
                "method": {"const": "dual_bound"},
                "oracle_data": _NUMBER,
                "solver_data": _NUMBER,
                "relative_gap": _NUMBER,
                "tolerance": _NUMBER,
                "ok": {"type": "boolean"},
            },
        },
    },
}


# --------------------------------------------------------------------------
# scenario -> problem objects


def _number(value, where: str) -> float:
    """A scenario field that must be a finite JSON number (not a boolean)."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            number = float(value)
            if math.isfinite(number):
                return number
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f'"{where}" must be a finite number, got {value!r}')


def _numbers(values, where: str) -> list[float]:
    """A scenario field that must be a non-empty list of finite numbers."""
    if not isinstance(values, list) or not values:
        raise ValueError(f'"{where}" must be a non-empty list of numbers')
    if _finite_floats(values):
        return values[:]
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _finite_floats(values: list) -> bool:
    """Whether every value is a float and none is infinite or NaN: a list
    that passes needs no value read one by one."""
    # a non-finite value makes the sum non-finite
    return not {*map(type, values)} - {float} and math.isfinite(sum(values))


def _increasing(times: list[float], name: str, deadline: float | None) -> None:
    """Refuse times that do not strictly increase, or leave [0, deadline]
    when it is bounded; ``name.format(i)`` names the field of ``times[i]``."""
    span = "" if deadline is None else f" within [0, {deadline}]"
    for i, t in enumerate(times):
        inside = deadline is None or 0.0 <= t <= deadline
        if not (inside and (i == 0 or t > times[i - 1])):
            raise ValueError(f'"{name.format(i)}" must strictly increase{span}, got {t}')


def _positive(values, name: str, or_zero: bool = False) -> None:
    """Refuse a value that is not positive, or that is negative when
    ``or_zero``; ``name.format(i)`` names the field of the ``i``-th value."""
    for i, v in enumerate(values):
        if not (v > 0.0 or or_zero and v == 0.0):
            rule = "non-negative" if or_zero else "positive"
            raise ValueError(f'"{name.format(i)}" must be {rule}, got {v!r}')


def _timed(items, where: str, key: str, deadline: float | None) -> list[tuple]:
    """A list of objects whose ``t`` and ``key`` fields are finite numbers, as
    ``(t, key)`` pairs whose times pass :func:`_increasing`."""
    if not isinstance(items, list):
        raise ValueError(f'"{where}" must be a list of objects')
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f'"{where}[{i}]" must be an object, got {item!r}')
    pairs = [(item.get("t"), item.get(key)) for item in items]
    # only a list that is not all finite floats is read, and its fields
    # named, one by one
    if not _finite_floats([*chain.from_iterable(pairs)]):
        pairs = [
            (_number(t, f"{where}[{i}].t"), _number(v, f"{where}[{i}].{key}"))
            for i, (t, v) in enumerate(pairs)
        ]
    _increasing([t for t, _ in pairs], where + "[{}].t", deadline)
    return pairs


def _finite_total(energies, where: str) -> None:
    """Refuse energies whose running total overflows, summed left to right
    as :func:`from_packet_arrivals` sums them."""
    total = 0.0
    for e in energies:
        total += e
    if not math.isfinite(total):
        raise ValueError(f'"{where}" add up to a non-finite energy {total}')


def _priced(data: float, field: str) -> float:
    """``data`` when it is finite; a noise so small that the rate divides a
    power by it to infinity is refused by the name of its ``field``."""
    if not math.isfinite(data):
        raise ValueError(f'"{field}" is too small: the data it prices is {data}')
    return data


def _deadline(scenario: dict) -> float | None:
    """The scenario's deadline, or ``None`` for "unbounded" (leakage only)."""
    deadline = scenario.get("deadline")
    if deadline != "unbounded":
        deadline = _number(deadline, "deadline")
        if not deadline > 0.0:
            raise ValueError(f'"deadline" must be positive, got {deadline!r}')
        return deadline
    if scenario["mode"] != "leakage":
        raise ValueError('"unbounded" deadlines are only valid in leakage mode')
    return None


def _build_rate(spec: dict | None) -> RateFunction:
    if spec is None:
        return awgn_rate(1.0)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError('"rate" must be an object with a "type" field')
    if spec["type"] != "awgn":
        raise ValueError(f'"rate.type" must be "awgn", got {spec["type"]!r}')
    noise = _number(spec.get("noise", 1.0), "rate.noise")
    _positive([noise], "rate.noise")
    return awgn_rate(noise)


def _build_harvest(
    spec: dict, deadline: float, resolution: int
) -> CumulativeCurve:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(
            '"harvest" must be exactly one of {"packets": ...}, '
            '{"samples": ...}, {"named": ...}'
        )
    if "packets" in spec:
        packets = _timed(spec["packets"], "harvest.packets", "e", deadline)
        _positive(map(itemgetter(1), packets), "harvest.packets[{}].e")
        _finite_total(map(itemgetter(1), packets), "harvest.packets")
        return from_packet_arrivals(packets, deadline)
    if "samples" in spec:
        samples = _numbers(spec["samples"], "harvest.samples")
        if len(samples) < 2:
            raise ValueError('"samples" needs at least two rate values')
        if any(v < 0.0 for v in samples):
            raise ValueError('"samples" rate values must be non-negative')
        # one trapezoid per cell between two given values
        cells = len(samples) - 1
        width, total, bps = deadline / cells, 0.0, [(0.0, 0.0, 0.0)]
        for k in range(1, len(samples)):
            total += 0.5 * (samples[k - 1] + samples[k]) * width
            bps.append((deadline * k / cells, total, total))
        if not math.isfinite(total):
            raise ValueError(
                f'"harvest.samples": the harvest rate integrates to a non-finite {total}'
            )
        bps[-1] = (deadline, total, total)
        return CumulativeCurve(tuple(bps), deadline)
    if "named" in spec:
        if spec["named"] != "solar":
            raise ValueError(f'"harvest.named" must be "solar", got {spec["named"]!r}')
        # a deadline from sunrise to midnight, on 64 or more pieces
        if not 6.0 <= deadline <= 24.0:
            raise ValueError(f'solar needs a "deadline" in [6, 24], got {deadline}')
        if resolution < 64:
            raise ValueError(f"solar needs --resolution 64 or more, got {resolution}")
        return integrate_rate(solar_harvest_rate, deadline, resolution)
    raise ValueError(f'"harvest" has no known kind, got {sorted(spec)!r}')


def _build_minimum(
    spec, harvested: CumulativeCurve, deadline: float
) -> CumulativeCurve:
    if spec in (None, "none"):
        return zero_curve(deadline)
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(
            '"battery" must be "none" or exactly one of {"constant": ...}, '
            '{"schedule": ...}, {"dying": ...}'
        )
    if "constant" in spec:
        cap = _number(spec["constant"], "battery.constant")
        _positive([cap], "battery.constant", or_zero=True)
        return min_energy_from_battery(
            harvested, BatterySchedule.constant(cap, deadline)
        )
    if "schedule" in spec:
        knots = _timed(spec["schedule"], "battery.schedule", "capacity", deadline)
        if not knots or knots[-1][0] != deadline:
            raise ValueError(f'"battery.schedule" must end at the deadline {deadline}')
        if knots[0][0] != 0.0:
            raise ValueError(f'"battery.schedule[0].t" must be 0, got {knots[0][0]}')
        _positive(map(itemgetter(1), knots), "battery.schedule[{}].capacity", or_zero=True)
        return min_energy_from_battery(harvested, BatterySchedule(tuple(knots)))
    if "dying" in spec:
        dying = spec["dying"]
        if not isinstance(dying, dict):
            raise ValueError('"battery.dying" must be an object {"b": ..., "t": ...}')
        amounts = _numbers(dying.get("b"), "battery.dying.b")
        times = _numbers(dying.get("t"), "battery.dying.t")
        if len(amounts) != len(times):
            raise ValueError('"dying" needs equal-length "b" and "t" lists')
        _positive(amounts, "battery.dying.b[{}]")
        _increasing(times, "battery.dying.t[{}]", deadline)
        _finite_total(amounts, "battery.dying.b")
        return from_packet_arrivals(list(zip(times, amounts)), deadline)
    raise ValueError(f'"battery" has no known kind, got {sorted(spec)!r}')


# --------------------------------------------------------------------------
# solving

def _report(
    scenario: dict,
    schedule: PowerSchedule,
    total_data: float,
    curves: dict[str, PiecewiseCurve],
    harvested: float,
    transmitted: float,
    leaked: float = 0.0,
    **fields,
) -> dict:
    """The report: the fields every mode shares, plus ``fields``; schedules,
    ``curves`` (in drawing order) and contacts stay library objects."""
    return {
        "mode": scenario["mode"],
        "scenario": scenario,
        "schedule": schedule,
        "total_data": total_data,
        "energy": {
            "harvested": harvested,
            "transmitted": transmitted,
            "leaked": leaked,
            "residual": harvested - transmitted - leaked,
        },
        "curves": curves,
        **fields,
    }


def _verification(solver_data: float, bound: float, feasible: bool) -> dict:
    """``verify``'s verdict on a schedule's data against a dual bound."""
    # weak duality puts every feasible schedule at or below the bound, so a
    # feasible schedule that meets it is optimal
    gap = (bound - solver_data) / max(abs(solver_data), 1e-12)
    return {
        "method": "dual_bound",
        "solver_data": solver_data,
        "oracle_data": bound,
        "relative_gap": gap,
        "tolerance": DUAL_GAP_TOLERANCE,
        "ok": feasible and GAP_FLOOR <= gap <= DUAL_GAP_TOLERANCE,
    }


def _solve_corridor(scenario: dict, resolution: int, verify: bool) -> dict:
    """Point-to-point and broadcast: the taut string in the harvest/floor
    corridor, under the composite rate for broadcast.  ``verify`` adds the
    verdict of the string's dual bound and a feasibility check."""
    deadline = _deadline(scenario)
    harvested = _build_harvest(scenario.get("harvest"), deadline, resolution)
    minimum = _build_minimum(scenario.get("battery"), harvested, deadline)
    if scenario["mode"] == "broadcast":
        spec = scenario.get("broadcast")
        if not isinstance(spec, dict):
            raise ValueError('broadcast mode needs a "broadcast" object')
        keys = ("n1", "n2", "mu1", "mu2")
        n1, n2, mu1, mu2 = [_number(spec.get(k), f"broadcast.{k}") for k in keys]
        _positive([n1], "broadcast.n1")
        if not n2 > n1:
            raise ValueError(f'"broadcast.n2" must exceed "broadcast.n1" {n1}, got {n2}')
        _positive([mu1], "broadcast.mu1", or_zero=True)
        # the weights must not both be zero
        _positive([mu2], "broadcast.mu2", or_zero=mu1 > 0.0)
        solution = solve_broadcast(
            BroadcastProblem(n1, n2, mu1, mu2, harvested=harvested, minimum=minimum)
        )
        string, rate = solution.string, solution.rate
        total_data = _priced(solution.weighted_sum, "broadcast.n1")
        fields = {
            "user1_schedule": solution.user1_schedule,
            "user2_schedule": solution.user2_schedule,
            "user1_data": solution.user1_data,
            "user2_data": solution.user2_data,
            "weighted_sum": solution.weighted_sum,
        }
    else:
        rate = _build_rate(scenario.get("rate"))
        string = taut_string(harvested, minimum)
        # an overflow of the rate is refused by name, not warned of
        with np.errstate(over="ignore"):
            total_data = _priced(throughput(string.schedule, rate), "rate.noise")
        fields = {}
    uppers = [c.time for c in string.contacts if c.kind == "upper"]
    departure = max(uppers) if uppers else None
    schedule = string.schedule
    report = _report(
        scenario,
        schedule,
        total_data,
        {
            "harvested": harvested,
            "minimum": minimum,
            "spent": schedule.energy_curve(deadline),
        },
        harvested.eval(deadline),
        schedule.total_energy,
        contacts=string.contacts,
        departure_time=departure,
        **fields,
    )
    if verify:
        report["verification"] = _verification(
            total_data,
            dual_bound(schedule, harvested, minimum, rate),
            check_feasible(schedule, minimum, harvested).feasible,
        )
    return report


def _solve_leakage(scenario: dict, verify: bool) -> dict:
    """The leaky battery: block decomposition, replayed by ``simulate``.
    ``verify`` adds the verdict of the drain bound and the replay."""
    harvest = scenario.get("harvest")
    if not (isinstance(harvest, dict) and "packets" in harvest):
        raise ValueError('leakage mode needs {"harvest": {"packets": ...}}')
    if scenario.get("battery") not in (None, "none"):
        raise ValueError('"battery" must be "none" in leakage mode')
    if "epsilon" not in scenario:
        raise ValueError('leakage mode needs an "epsilon" field')
    deadline = _deadline(scenario)
    packets = _timed(harvest["packets"], "harvest.packets", "e", deadline)
    _positive(map(itemgetter(1), packets), "harvest.packets[{}].e")
    _finite_total(map(itemgetter(1), packets), "harvest.packets")
    if not packets:
        raise ValueError('"harvest.packets" must hold a packet in leakage mode')
    if packets[0][0] != 0.0:
        raise ValueError(
            f'"harvest.packets[0].t" must be 0 in leakage mode, got {packets[0][0]}'
        )
    if deadline is not None and not deadline > packets[-1][0]:
        raise ValueError(f'"deadline" must come after the last packet, got {deadline}')
    epsilon = _number(scenario["epsilon"], "epsilon")
    # with no deadline and no leak, slower is always better
    _positive([epsilon], "epsilon", or_zero=deadline is not None)
    problem = LeakageProblem(
        packets=packets,
        epsilon=epsilon,
        deadline=deadline,
        rate=_build_rate(scenario.get("rate")),
    )
    try:
        # an overflow of the rate is refused by name, not warned of
        with np.errstate(over="ignore"):
            solution = solve_n_packet(problem)
            # after the solve, only the upfront problem is new
            comparison = compare_ST_NT(problem) if deadline is not None else None
    except ValueError as exc:
        # the block powers never fall from one block to the next, so one
        # that is not finite is the last block's, which ends at the deadline
        if "has a power that is not finite" in str(exc):
            raise ValueError(f'"deadline" {deadline!r} is too soon: {exc}') from None
        # the AWGN rate is strictly concave, so p_star's search fails only
        # where the leak drives the best power past its bracket
        if "no efficiency maximum below 1e30" in str(exc):
            raise ValueError(
                f'"epsilon" {epsilon!r} is too large for the rate: its best '
                "transmit power p_star lies above 1e30, where the search for it stops"
            ) from None
        raise
    _priced(solution.total_data, "rate.noise")
    trace = simulate(solution.schedule, problem)
    fields = {
        "block_powers": solution.block_powers,
        "block_boundaries": solution.block_boundaries,
        "infeasible_at": trace.infeasible_at,
    }
    if comparison is not None:
        fields["comparison"] = {
            "d_nt": comparison.d_nt,
            "d_st": _priced(comparison.d_st, "rate.noise"),
            # the sufficient condition is the case of one block
            "sufficient_condition": len(solution.block_boundaries) == 2,
        }
    report = _report(
        scenario,
        solution.schedule,
        solution.total_data,
        {
            "harvested": from_packet_arrivals(problem.packets, trace.usable.horizon),
            "usable": trace.usable,
            "spent": trace.transmitted,
            "leaked": trace.leaked,
        },
        problem.total_energy,
        solution.schedule.total_energy,
        solution.leaked_energy,
        **fields,
    )
    if verify:
        report["verification"] = _verification(
            solution.total_data, drain_bound(problem), trace.infeasible_at is None
        )
    return report


def _solve_scenario(scenario: dict, resolution: int, verify: bool) -> dict:
    if not isinstance(scenario, dict):
        raise ValueError("a scenario must be a JSON object")
    mode = scenario.get("mode")
    if mode in ("p2p", "broadcast"):
        return _solve_corridor(scenario, resolution, verify)
    if mode == "leakage":
        return _solve_leakage(scenario, verify)
    raise ValueError(f'"mode" must be "p2p", "broadcast" or "leakage", got {mode!r}')


# --------------------------------------------------------------------------
# emission


class _FloatTexts(dict):
    """float (or float subclass) -> its JSON text, filled on first use.
    Zeros are never stored: ``-0.0 == 0.0``, so the two would share one."""

    def __missing__(self, value: float) -> str:
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        text = float.__repr__(value)
        if value:
            self[value] = text
        return text


class _Table(tuple):
    """``(keys, values)``: a JSON list of objects with the sorted str
    ``keys``, whose scalar ``values`` come row by row, in key order."""


def _schema_object(o) -> dict:
    """A report's library object as the object ``REPORT_SCHEMA`` names, its
    rows read straight from the object's columns."""
    if isinstance(o, PowerSchedule):
        segments = chain.from_iterable(zip(o.powers, o.ends, o.starts))
        rows = _Table((("power", "t_end", "t_start"), segments))
        return {"segments": rows, "end_time": o.end_time, "total_energy": o.total_energy}
    if isinstance(o, PiecewiseCurve):
        values = chain.from_iterable(zip(o.times, o.left, o.right))
        rows = _Table((("t", "v_left", "v_right"), values))
        return {"horizon": o.horizon, "breakpoints": rows}
    return {"time": o.time, "value": o.value, "kind": o.kind}


def _record_rows(items) -> _Table | None:
    """The rows of a list of contacts, or of dicts that share one set of str
    keys and hold only floats (a scenario's packets); ``None`` for any other
    list."""
    types = {*map(type, items)}
    if types == {Contact}:
        keys = ("kind", "time", "value")
        return _Table((keys, chain.from_iterable(map(attrgetter(*keys), items))))
    first = items[0]
    if types != {dict} or not first or {*map(type, first)} != {str}:
        return None
    if not all(map(first.keys().__eq__, map(dict.keys, items))):
        return None
    keys = sorted(first)
    rows = map(itemgetter(*keys), items)
    values = tuple(rows if len(keys) == 1 else chain.from_iterable(rows))
    if {*map(type, values)} != {float}:
        return None
    return _Table((keys, values))


def _json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``
    for an acyclic ``obj`` whose keys are all str (any other key raises
    ``TypeError``), with a ``default=`` that expands a schedule, a curve or
    a contact into the object :func:`_schema_object` gives.  Made fast for
    reports: each distinct float is rendered once (curves share their
    breakpoint times, and continuous ones have ``v_left == v_right``), and
    each list of rows (``_Table`` or :func:`_record_rows`) is filled into
    one row template."""
    floats = _FloatTexts()

    def table(keys, values, indent: str) -> str:
        values = tuple(values)
        if {*map(type, values)} == {float}:
            texts = map(floats.__getitem__, values)
        else:
            texts = [text(v, "") for v in values]
        inner, cell = indent + "  ", indent + "    "
        members = ",\n".join(
            cell + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys
        )
        row = "{\n" + members + "\n" + inner + "}"
        rows = (",\n" + inner).join([row] * (len(values) // len(keys)))
        return f"[\n{inner}{rows % tuple(texts)}\n{indent}]" if values else "[]"

    def text(o, indent: str) -> str:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return floats[o]
        if type(o) is _Table:
            return table(*o, indent)
        inner = indent + "  "
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            if rows := _record_rows(o):
                return table(*rows, indent)
            body = (",\n" + inner).join([text(item, inner) for item in o])
            return f"[\n{inner}{body}\n{indent}]"
        if isinstance(o, (PowerSchedule, PiecewiseCurve, Contact)):
            o = _schema_object(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = sorted(o.items())
            body = (",\n" + inner).join(
                [f"{encode_basestring_ascii(k)}: {text(v, inner)}" for k, v in items]
            )
            return f"{{\n{inner}{body}\n{indent}}}"
        raise TypeError(
            f"Object of type {o.__class__.__name__} is not JSON serializable"
        )

    return text(obj, "")


def _csv_text(report: dict) -> str:
    schedules = [
        report[key] for key in ("schedule", "user1_schedule", "user2_schedule") if key in report
    ]
    header = ("t_start", "t_end", "power", "power_user1", "power_user2")
    lines = [",".join(header[: 2 + len(schedules)])]
    # "%.12g" formats a float as f"{v:.12g}" does; other schedules add powers
    template = ",".join(["%.12g"] * (2 + len(schedules)))
    first = schedules[0]
    rows = zip(first.starts, first.ends, *(s.powers for s in schedules))
    lines += map(template.__mod__, rows)
    return "\n".join(lines) + "\n"


#: SVG canvas width, height and margin, in pixels
_SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = 720, 440, 50


def _svg_path(curve: PiecewiseCurve, horizon: float, vmax: float) -> str:
    """The pixel points of ``curve``, by the expressions of ``to_xy`` in
    :func:`_svg_text`, filled into one template."""
    left, bottom = _SVG_MARGIN, _SVG_HEIGHT - _SVG_MARGIN
    xspan, yspan = _SVG_WIDTH - 2 * _SVG_MARGIN, _SVG_HEIGHT - 2 * _SVG_MARGIN
    coords = []
    for t, vl, vr in zip(curve.times, curve.left, curve.right):
        x = left + (t / horizon) * xspan
        coords += (x, bottom - (vl / vmax) * yspan)
        if vr != vl:
            coords += (x, bottom - (vr / vmax) * yspan)
    return " ".join(["%.2f,%.2f"] * (len(coords) // 2)) % tuple(coords)


def _svg_text(report: dict) -> str:
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN
    curves = report["curves"]
    horizon = max(c.horizon for c in curves.values())
    vmax = max(1e-9, *(max(col) for c in curves.values() for col in (c.left, c.right)))

    def to_xy(t: float, v: float) -> tuple[float, float]:
        x = margin + (t / horizon) * (width - 2 * margin)
        y = height - margin - (v / vmax) * (height - 2 * margin)
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<style>"
        "polyline{fill:none;stroke-width:1.5}"
        ".curve-harvested{stroke:#1f77b4}"
        ".curve-minimum{stroke:#d62728}"
        ".curve-spent{stroke:#2ca02c;stroke-width:2}"
        ".curve-usable{stroke:#9467bd}"
        ".curve-leaked{stroke:#8c564b}"
        ".contact{fill:#ff7f0e}"
        ".departure{fill:none;stroke:#000;stroke-width:1.5}"
        ".axis{stroke:#333;stroke-width:1}"
        "text{font:12px sans-serif;fill:#333}"
        "</style>",
        f'<line class="axis" x1="{margin}" y1="{height - margin}" '
        f'x2="{width - margin}" y2="{height - margin}"/>',
        f'<line class="axis" x1="{margin}" y1="{margin}" '
        f'x2="{margin}" y2="{height - margin}"/>',
        f'<text x="{width - margin}" y="{height - margin + 30}" '
        f'text-anchor="end">t = {horizon:g}</text>',
        f'<text x="{margin - 40}" y="{margin}">{vmax:.4g}</text>',
    ]
    for name, curve in curves.items():
        parts.append(
            f'<polyline class="curve-{name}" '
            f'points="{_svg_path(curve, horizon, vmax)}"/>'
        )
    for c in report.get("contacts", ()):
        if c.kind in ("upper", "lower"):
            x, y = to_xy(c.time, c.value)
            parts.append(f'<circle class="contact" cx="{x:.2f}" cy="{y:.2f}" r="2"/>')
    departure = report.get("departure_time")
    if departure is not None:
        x, y = to_xy(departure, curves["harvested"].eval_left(departure))
        parts.append(f'<circle class="departure" cx="{x:.2f}" cy="{y:.2f}" r="6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


#: format -> (file suffix, text builder)
_EMITTERS = {
    "json": ("report.json", lambda report: _json_text(report) + "\n"),
    "csv": ("schedule.csv", _csv_text),
    "svg": ("plot.svg", _svg_text),
}


def _write_file(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, as ``path.write_text(text)`` does, over
    the old bytes in place, then cut the file at the new length.

    ``open(path, "w")`` truncates an existing file before it writes it: on
    ext4 mounted with ``discard`` (2-vCPU VM) a re-run then pays 0.08-0.17 ms
    for a file of a few kB and 1.1-1.6 ms for 1.2 MB, where writing in place
    and cutting after costs 4-7 us and 0.2 ms.  A new file gets mode ``0o666``
    less the umask and a symlink is followed, as with ``open``.  The cut runs
    when a write raises too, so no tail of the old content is left after the
    bytes written.  A process killed mid-write makes no cut: the file keeps
    its old length, a prefix of the new text followed by the old tail.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    done = 0
    try:
        while done < len(data):
            done += os.write(fd, data[done:])
    finally:
        try:
            # a new file, a pipe or a device holds nothing past the new
            # bytes, and a device may refuse the cut
            if os.fstat(fd).st_size > done:
                os.ftruncate(fd, done)
        finally:
            os.close(fd)


def _emit(report: dict, stem: str, out_dir: Path, formats: list[str]) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        suffix, text = _EMITTERS[fmt]
        target = out_dir / f"{stem}.{suffix}"
        _write_file(target, text(report))
        written.append(target)
    return written


# --------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; we reserve 2 for
    infeasible instances, so downgrade argument errors to status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_scenario(token: str) -> tuple[dict, str]:
    """Resolve the scenario argument: a JSON file path, else a demo name."""
    path = Path(token)
    if path.is_file():
        return json.loads(path.read_text()), path.stem
    if token in DEMO_SCENARIOS:
        return DEMO_SCENARIOS[token], token
    raise ValueError(
        f"{token!r} is neither a scenario file nor a demo name "
        f"(demos: {', '.join(sorted(DEMO_SCENARIOS))})"
    )


@cache
def _parser() -> _Parser:
    """The argument parser, built once: building it costs ten times a parse."""
    parser = _Parser(
        prog="ehsched",
        description="Throughput-optimal energy-harvesting transmit schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demos = ", ".join(sorted(DEMO_SCENARIOS))
    for command, summary in (
        ("solve", "solve a scenario"),
        ("verify", "solve and check the answer against a dual bound"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("scenario", help=f"a JSON scenario file, or a demo: {demos}")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument(
            "--format",
            default=",".join(_EMITTERS),
            help=f"comma-separated outputs: {','.join(_EMITTERS)} (default: all)",
        )
        p.add_argument(
            "--resolution",
            type=int,
            default=1024,
            help="grid cells for the named solar harvest, at least 64 (default: 1024)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario, stem = _load_scenario(args.scenario)
        # a repeated format is written and reported once
        formats = [f for f in dict.fromkeys(map(str.strip, args.format.split(","))) if f]
        choices = f"(choose from {', '.join(_EMITTERS)})"
        if not formats:
            raise ValueError(f"--format names no format {choices}")
        for fmt in formats:
            if fmt not in _EMITTERS:
                raise ValueError(f"unknown format {fmt!r} {choices}")
        report = _solve_scenario(scenario, args.resolution, args.command == "verify")
        written = _emit(report, stem, Path(args.out), formats)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    energy = report["energy"]
    verification = report.get("verification")
    lines = [
        f"mode: {report['mode']}",
        f"total data: {report['total_data']:.9g} bits",
        "energy: harvested {harvested:.9g}, transmitted {transmitted:.9g}, "
        "leaked {leaked:.9g}, residual {residual:.9g}".format(**energy),
    ]
    if verification is not None:
        lines.append(
            "bound: {oracle_data:.9g} bits, relative gap {relative_gap:.3g} "
            "(tolerance {tolerance:.3g}) -> {status}".format(
                status="ok" if verification["ok"] else "FAILED", **verification
            )
        )
    lines += [f"wrote {target}" for target in written]
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader closed stdout (say, ``| head``) after the files were
        # written: what is still buffered goes to devnull, so that the flush
        # at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if verification is None or verification["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
