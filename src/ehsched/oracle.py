"""Independent brute-force verifiers for the solvers.

The dynamic programs here know nothing about taut strings or block
decompositions: they quantize energy, enumerate spending paths, and return
the best achievable data.  Every path they keep is an exact replay inside the
constraints, so each value is the data of a feasible schedule: a lower bound
on the optimum that converges as ``energy_levels`` refines.  A solver that
undercuts it, or cannot come within grid error of it, is wrong.

- :func:`dp_throughput` quantizes the cumulative spent energy in the
  harvest/floor corridor (while ``power_cap`` covers the optimal powers).
- :func:`dp_leakage_throughput` quantizes only the charge a leaky battery
  carries from one packet arrival to the next, never the leak.
"""

from __future__ import annotations

import math
import random
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
from .leakage import LeakageProblem, p_star
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

    ``energy_levels`` quantizes cumulative energy (or, for the leakage DP, the
    carried battery charge).  ``time_slots`` and ``power_cap`` are read only
    by :func:`dp_throughput`: ``time_slots`` bounds how many corridor pieces
    it takes, and ``power_cap`` bounds the per-slot power it enumerates, which
    must be at least the highest power an optimal schedule uses, or the
    oracle undershoots.
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
    """Best data of the leakage schedules whose battery carries charge from
    each packet arrival to the next only on ``grid.energy_levels`` even levels
    over ``[0, total energy]`` (``time_slots`` and ``power_cap`` are unread).

    An interval of length ``L`` that starts with energy ``E`` either keeps a
    carry ``c > 0``, never emptying, so it leaks ``epsilon L`` and (by
    concavity) sends most at the constant power ``(E - c - epsilon L) / L``;
    or it empties at ``p = max(p_star, E/L - epsilon)``, sending
    ``E r(p) / (p + epsilon)``.  The last interval only empties, at ``p_star``
    if there is no deadline.  Every plan replays exactly, so the value is the
    data of a feasible schedule.
    """
    rate, eps = problem.rate, problem.epsilon
    p_opt = p_star(rate, eps)
    levels = grid.energy_levels
    carries = np.linspace(0.0, problem.total_energy, levels)
    # carry differences c_in - c_out, in steps from -(levels - 1) to levels - 1
    drops = np.arange(1 - levels, levels) * carries[1]

    def emptied(energy: np.ndarray, length: float | None) -> np.ndarray:
        power = p_opt if length is None else np.maximum(p_opt, energy / length - eps)
        return energy * rate(power) / (power + eps)

    value = np.full(levels, -np.inf)
    value[0] = 0.0
    packets = problem.packets
    for (t0, e), (t1, _) in zip(packets, packets[1:]):
        length = t1 - t0
        powers = (drops + (e - eps * length)) / length
        gains = np.full(powers.size, -np.inf)
        sendable = powers >= 0.0
        gains[sendable] = length * rate(powers[sendable])
        # row k holds the gains from every carry j to carry k, in the order of j
        rows = np.lib.stride_tricks.sliding_window_view(gains, levels)[::-1]
        new = np.empty(levels)
        new[0] = np.max(value + emptied(carries + e, length))
        # 64 rows at a time, so that no levels x levels array is ever built
        for k in range(1, levels, 64):
            new[k : k + 64] = np.max(rows[k : k + 64] + value, axis=1)
        value = new

    t, e = packets[-1]
    length = None if problem.deadline is None else problem.deadline - t
    return float(np.max(value + emptied(carries + e, length)))


def _inside(curve: PiecewiseCurve, t: float) -> float:
    """``curve.eval(t)`` at a time strictly inside one of its pieces, by the
    same interpolation, without ``eval``'s domain check and clamp: with
    ``eval`` here, certify-sweep ``op_ref_p50`` was about 8% slower."""
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
    horizon = harvested.horizon
    # raises InfeasibleError if the corridor is unusable
    gates, end_value = corridor_gates(
        harvested, zero_curve(horizon) if minimum is None else minimum
    )
    knots = [(t, lo, min(hi, end_value)) for t, lo, hi in gates[:-1]]
    rng = random.Random(seed)
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
    # the gate times and the distinct random times that are none of them
    # strictly increase from 0 to the horizon: only the powers need checking
    segments = tuple(
        (t0, t1, (v1 - v0) / (t1 - t0))
        for (t0, v0), (t1, v1) in zip(points, points[1:])
    )
    return PowerSchedule._derived(segments)
