"""Independent brute-force verifiers for the solvers.

The dynamic programs here know nothing about taut strings or block
decompositions: they quantize energy, enumerate spending paths, and return
the best achievable data.  What their values prove differs:

- :func:`dp_throughput` keeps every path inside the corridor, so its value is
  the data of a feasible schedule: a lower bound on the optimum that
  converges as ``energy_levels`` refines (while ``power_cap`` covers the
  optimal powers).  A solver that undercuts it, or cannot come within grid
  error of it, is wrong.
- :func:`dp_leakage_throughput` quantizes the leak as well as the charge, so
  its paths are not exact replays: its value can land above the optimum, and
  its gap need not shrink as the grid refines.  It is an estimate to compare
  within a tolerance on both sides.
"""

from __future__ import annotations

import math
import random
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .curves import (
    DEFAULT_TOL,
    CumulativeCurve,
    PiecewiseCurve,
    PowerSchedule,
    corridor_gates,
    zero_curve,
)
from .leakage import LeakageProblem
from .rate import RateFunction

__all__ = [
    "GridSpec",
    "GridInfeasibleError",
    "dp_throughput",
    "dp_leakage_throughput",
    "random_feasible_schedule",
]


class GridInfeasibleError(Exception):
    """The quantized problem has no feasible path (grid artifact, not proof
    that the continuous instance is infeasible)."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization used by the DP oracles.

    ``time_slots`` bounds how many slots the oracle may use; ``energy_levels``
    quantizes cumulative energy (or battery charge); ``power_cap`` bounds the
    per-slot power the DP enumerates — it must be at least the highest power
    an optimal schedule uses, or the oracle undershoots.
    """

    time_slots: int = 400
    energy_levels: int = 400
    power_cap: float = 64.0

    def __post_init__(self) -> None:
        if self.time_slots < 2:
            raise ValueError("time_slots must be at least 2")
        if self.energy_levels < 2:
            raise ValueError("energy_levels must be at least 2")
        if not self.power_cap > 0:
            raise ValueError("power_cap must be positive")


def dp_throughput(
    harvested: CumulativeCurve,
    minimum: CumulativeCurve,
    rate: RateFunction,
    grid: GridSpec,
) -> float:
    """Best data of any quantized spending path inside the corridor.

    Slot boundaries are the corridor's gates (the merged breakpoints of both
    envelopes): inside each piece the corridor is linear, so averaging a
    feasible spending curve over the piece keeps it feasible and (by
    concavity of the rate) never loses data — per-piece constant power is
    without loss of optimality, and finer time slicing would only add
    quantization noise.  ``time_slots`` therefore acts as a capacity guard
    for the number of corridor pieces.

    Every path passes through each gate where the floor meets the ceiling
    (the endpoint is one), so the DP runs on each stretch between such
    pinches with its own ``energy_levels`` grid, whose top level is the
    pinch value, and sums the stretches' data.
    """
    gates, _ = corridor_gates(harvested, minimum)
    if len(gates) > grid.time_slots:
        raise GridInfeasibleError(
            f"instance has {len(gates)} corridor pieces, more than the "
            f"{grid.time_slots} allowed time slots"
        )
    total, start, stretch = 0.0, (0.0, 0.0), []
    for gate in gates:
        stretch.append(gate)
        t, lo, hi = gate
        if hi - lo <= DEFAULT_TOL:
            total += _dp_stretch(start, stretch, rate, grid)
            start, stretch = (t, hi), []
    return total


def _dp_stretch(
    start: tuple[float, float],
    gates: list[tuple[float, float, float]],
    rate: RateFunction,
    grid: GridSpec,
) -> float:
    """Best data of a quantized path from ``start`` through ``gates`` to the
    last gate's ceiling, on levels spaced evenly from start to end value."""
    t0, base = start
    top = gates[-1][2] - base
    if top <= DEFAULT_TOL:
        return 0.0
    levels = grid.energy_levels
    de = top / (levels - 1)
    value = np.full(levels, -np.inf)
    value[0] = 0.0

    for t1, lo, hi in gates:
        dt = t1 - t0
        if t1 == gates[-1][0]:
            lo_l = hi_l = levels - 1
        else:
            hi_l = min(int(math.floor((hi - base) / de + 1e-9)), levels - 1)
            lo_l = max(int(math.ceil((lo - base) / de - 1e-9)), 0)
            if lo_l > hi_l:
                raise GridInfeasibleError(
                    f"quantized corridor is empty at t={t1:g} "
                    f"(floor {lo:g}, ceiling {hi:g}, level size {de:g})"
                )
        dmax = min(hi_l, int(math.floor(grid.power_cap * dt / de + 1e-9)))
        gains = dt * np.asarray(
            rate(np.arange(dmax + 1) * (de / dt)), dtype=float
        )
        padded = np.concatenate([np.full(dmax, -np.inf), value[: hi_l + 1]])
        windows = np.lib.stride_tricks.sliding_window_view(padded, dmax + 1)
        new = np.full(levels, -np.inf)
        new[: hi_l + 1] = np.max(windows + gains[::-1], axis=1)
        new[:lo_l] = -np.inf
        value = new
        t0 = t1

    best = value[levels - 1]
    if not np.isfinite(best):
        raise GridInfeasibleError(
            "no quantized path reaches the endpoint (power cap too small or "
            "corridor too tight for the grid)"
        )
    return float(best)


def dp_leakage_throughput(problem: LeakageProblem, grid: GridSpec) -> float:
    """Best data of any quantized schedule under battery leakage.

    State is the battery charge in units of ``total energy / (levels - 1)``.
    Slots are the packet arrivals plus a uniform fill.  Within a slot the
    battery is credited with arrivals, a spend is chosen, and then the leak
    for the slot is subtracted (clamped at empty) — the leak-after-spend
    convention; leak quantization is spread by a global fractional
    accumulator so the drift stays within one unit per busy period.
    """
    if problem.deadline is None:
        raise ValueError("the leakage DP needs a bounded deadline")
    horizon = problem.deadline
    total = sum(e for _, e in problem.packets)
    levels = grid.energy_levels
    db = total / (levels - 1)

    arrival_units: dict[float, int] = {}
    for t, e in problem.packets:
        units = int(math.floor(e / db + 1e-9))
        if units == 0:
            raise GridInfeasibleError(
                f"grid too coarse: packet of {e:g} at t={t:g} is below one "
                f"energy level ({db:g})"
            )
        arrival_units[t] = units

    fill = max(32, min(grid.time_slots, levels) // 4)
    boundaries = sorted(
        {horizon * i / fill for i in range(fill + 1)}
        | set(arrival_units)
        | {horizon}
    )
    if len(boundaries) - 1 > grid.time_slots:
        raise GridInfeasibleError(
            f"{len(boundaries) - 1} slots exceed the {grid.time_slots} allowed"
        )

    value = np.full(levels, -np.inf)
    value[0] = 0.0
    leak_acc = 0.0
    for t0, t1 in zip(boundaries, boundaries[1:]):
        dt = t1 - t0
        credit = arrival_units.get(t0, 0)
        if credit:
            shifted = np.full(levels, -np.inf)
            shifted[credit:] = value[: levels - credit]
            value = shifted
        new_acc = leak_acc + problem.epsilon * dt / db
        leak = int(math.floor(new_acc + 1e-12)) - int(math.floor(leak_acc + 1e-12))
        leak_acc = new_acc
        dmax = int(math.floor(grid.power_cap * dt / db + 1e-9))
        powers = np.arange(dmax + 1) * (db / dt)
        gains = dt * np.asarray(problem.rate(powers), dtype=float)
        new = np.full(levels, -np.inf)
        for d in range(dmax + 1):
            src = d + leak
            if src < levels:
                np.maximum(
                    new[: levels - src], value[src:] + gains[d], out=new[: levels - src]
                )
            # sources that can afford the spend but not the full leak end empty
            bucket = value[d : min(src, levels)]
            if bucket.size:
                new[0] = max(new[0], bucket.max() + gains[d])
        value = new

    return float(value.max())


# The corridor of the last random_feasible_schedule call, since a dominance
# sweep draws many rivals from one corridor: (harvested ref, minimum ref or
# None, knots, H(T^-)).  The curves are held by weak reference and the entry
# goes when either of them dies, so no curve or knot list outlives its caller.
# Each call reads the entry once and returns the corridor of its own curves,
# so threads that race here at worst build one corridor twice.
_last_corridor: tuple | None = None


def _refers(ref: weakref.ref | None, curve: CumulativeCurve | None) -> bool:
    return ref is None if curve is None else ref is not None and ref() is curve


def _forget(ref: weakref.ref) -> None:
    global _last_corridor
    last = _last_corridor
    if last is not None and (last[0] is ref or last[1] is ref):
        _last_corridor = None


def _corridor_knots(
    harvested: CumulativeCurve, minimum: CumulativeCurve | None
) -> tuple[tuple[tuple[float, float, float], ...], float]:
    """The gates of :func:`corridor_gates` strictly inside the horizon, as
    ``(t, min(M(t), H(t^-), H(T^-)), min(H(t^-), H(T^-)))``, and ``H(T^-)``.

    Remembers the last corridor by the identity of its curves; a corridor
    :func:`corridor_gates` refuses is never remembered, so it raises
    :class:`InfeasibleError` on every call.
    """
    global _last_corridor
    last = _last_corridor
    if last is not None and _refers(last[0], harvested) and _refers(last[1], minimum):
        return last[2], last[3]
    floor = zero_curve(harvested.horizon) if minimum is None else minimum
    gates, end_value = corridor_gates(harvested, floor)
    knots = tuple((t, lo, min(hi, end_value)) for t, lo, hi in gates[:-1])
    _last_corridor = (
        weakref.ref(harvested, _forget),
        None if minimum is None else weakref.ref(minimum, _forget),
        knots,
        end_value,
    )
    return knots, end_value


def _inside(curve: PiecewiseCurve, t: float) -> float:
    """``curve.eval(t)`` at a time strictly inside one of its pieces, by the
    same interpolation."""
    i = bisect_right(curve.times, t) - 1
    t0, _, v0 = curve.breakpoints[i]
    t1, v1, _ = curve.breakpoints[i + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def random_feasible_schedule(
    harvested: CumulativeCurve,
    minimum: CumulativeCurve | None = None,
    seed: int = 0,
) -> PowerSchedule:
    """Seeded random feasible schedule spending everything by the horizon.

    Used for dominance sweeps: any feasible schedule's throughput must be
    bounded by the taut-string optimum.  The path runs through the merged
    breakpoints and three random knots, each drawn uniformly between the
    floor (or the previous knot's value) and the ceiling.
    """
    # raises InfeasibleError if the corridor is unusable
    corridor, end_value = _corridor_knots(harvested, minimum)
    rng = random.Random(seed)
    horizon = harvested.horizon
    knots = list(corridor)
    for t in {rng.uniform(0.0, horizon) for _ in range(3)}:
        # the path is pinned at both ends
        if not 0.0 < t < horizon:
            continue
        i = bisect_left(knots, (t,))
        if i < len(knots) and knots[i][0] == t:
            continue
        # t is no breakpoint of either curve, so both are linear there
        floor = 0.0 if minimum is None else _inside(minimum, t)
        ceiling = _inside(harvested, t)
        knots.insert(i, (t, min(floor, end_value), min(ceiling, end_value)))
    points = [(0.0, 0.0)]
    prev = 0.0
    uniform = rng.uniform
    for t, floor, ceiling in knots:
        lo = max(floor, prev)
        hi = max(ceiling, lo)
        prev = uniform(lo, hi)
        points.append((t, prev))
    points.append((horizon, end_value))
    segments = tuple(
        (t0, t1, (v1 - v0) / (t1 - t0))
        for (t0, v0), (t1, v1) in zip(points, points[1:])
    )
    return PowerSchedule(segments)
