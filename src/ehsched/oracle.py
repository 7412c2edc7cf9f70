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

Both evaluate each step in blocks of rows over the reachable levels only:
a level no path can reach holds ``-inf`` and adds nothing to a maximum, so
the values are those of the full level-by-level matrix, to the bit, at a
fraction of the cells and in blocks of at most 256 kB.
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


#: cells in the largest temporary a DP builds (256 kB of floats): each step
#: evaluates its rows in blocks of about this many cells
_BLOCK_CELLS = 32768


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
    oracle undershoots.  Neither DP builds an ``energy_levels``-square
    array: both evaluate in row blocks over the reachable levels.
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
    last gate's ceiling, on levels spaced evenly from start to end value.

    ``value[levels + k]`` is the best data of a path that has spent ``k``
    levels; the ``levels`` entries below stand for negative levels and stay
    ``-inf``.  Only the levels ``reach_lo..reach_hi`` can be finite, so each
    gate's max-plus step ``max_d value[k - d] + gains[d]`` is evaluated only
    for the rows ``k`` inside both the gate's band and the reach of the last
    one, and only over the steps ``d`` that can land in the reach.  Every
    term it leaves out is ``-inf``, so each maximum is the full matrix's.
    """
    t0, base = start
    top = gates[-1][2] - base
    if top <= DEFAULT_TOL:
        return 0.0
    levels = grid.energy_levels
    de = top / (levels - 1)
    value = np.full(2 * levels, -np.inf)
    value[levels] = 0.0
    reach_lo = reach_hi = 0
    size = value.itemsize

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
        k_lo, k_hi = max(lo_l, reach_lo), min(hi_l, reach_hi + dmax)
        new = np.full(2 * levels, -np.inf)
        if k_lo > k_hi:
            # no level is reachable from here on
            k_lo = levels
        else:
            d_lo, d_hi = max(k_lo - reach_hi, 0), min(k_hi - reach_lo, dmax)
            gains = dt * np.asarray(
                rate(np.arange(d_lo, d_hi + 1) * (de / dt)), dtype=float
            )
            rows = max(_BLOCK_CELLS // (d_hi - d_lo + 1), 1)
            for k0 in range(k_lo, k_hi + 1, rows):
                k1 = min(k0 + rows, k_hi + 1)
                a, b = max(k0 - reach_hi, d_lo), min(k1 - 1 - reach_lo, d_hi)
                # a view of ``value`` that NumPy checks against its bounds:
                # window[i, r] is level k0 + r less the step b - i
                window = np.ndarray(
                    (b - a + 1, k1 - k0), float, value,
                    (levels + k0 - b) * size, (size, size),
                )
                steps = gains[a - d_lo : b - d_lo + 1][::-1, None]
                new[levels + k0 : levels + k1] = np.max(window + steps, axis=0)
        value, reach_lo, reach_hi = new, k_lo, k_hi
        t0 = t1

    best = value[2 * levels - 1]
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
    data of a feasible schedule.  A carry above the energy harvested so far
    is unreachable, so each interval reads only the reachable carries in and
    writes only the carries out that one of them can feed.
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

    # value[j] is the best data of the plans that carry j levels into the
    # current arrival; no carry above ``top`` is reachable, so none is kept
    value, top = np.zeros(1), 0
    size = value.itemsize
    packets = problem.packets
    for (t0, e), (t1, _) in zip(packets, packets[1:]):
        length = t1 - t0
        # carry j in and carry k out use the drop j - k, at index
        # levels - 1 - k + j; the rows k >= 1 read the indices below this
        powers = (drops[: levels - 1 + top] + (e - eps * length)) / length
        sendable = powers >= 0.0
        first = int(np.argmax(sendable))
        # a row k above k_hi reads only indices below ``first``: all -inf
        k_hi = min(levels - 1 + top - first, levels - 1) if sendable[first] else 0
        new = np.empty(k_hi + 1)
        new[0] = np.max(value + emptied(carries[: top + 1] + e, length))
        if k_hi:
            # gains[i] is the gain at index levels - 1 - k_hi + i
            gains = np.full(top + k_hi, -np.inf)
            usable = sendable[levels - 1 - k_hi :]
            gains[usable] = length * rate(powers[levels - 1 - k_hi :][usable])
            rows = max(_BLOCK_CELLS // (top + 1), 1)
            for k0 in range(1, k_hi + 1, rows):
                k1 = min(k0 + rows, k_hi + 1)
                # a view of ``gains`` that NumPy checks against its bounds:
                # window[r, j] is the gain from carry j to carry k0 + r
                window = np.ndarray(
                    (k1 - k0, top + 1), float, gains,
                    (k_hi - k0) * size, (-size, size),
                )
                new[k0:k1] = np.max(window + value, axis=1)
        value, top = new, k_hi

    t, e = packets[-1]
    length = None if problem.deadline is None else problem.deadline - t
    return float(np.max(value + emptied(carries[: top + 1] + e, length)))


def _inside(curve: PiecewiseCurve, t: float) -> float:
    """``curve.eval(t)`` at a time strictly inside one of its pieces, by the
    same interpolation, without ``eval``'s domain check and clamp: with
    ``eval`` here, certify-sweep ``op_ref_p50`` was about 8% slower."""
    times = curve.times
    i = bisect_right(times, t) - 1
    t0, v0 = times[i], curve.right[i]
    return v0 + (curve.left[i + 1] - v0) * (t - t0) / (times[i + 1] - t0)


def random_feasible_schedule(
    harvested: CumulativeCurve,
    minimum: CumulativeCurve,
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
    knots, end_value = corridor_gates(harvested, minimum)
    # the path is pinned at both ends, so the endpoint gate is no knot
    knots.pop()
    rng = random.Random(seed)
    draw = rng.random
    # horizon * draw() is uniform(0, horizon) to the bit
    for t in {horizon * draw() for _ in range(3)}:
        if not 0.0 < t < horizon:
            continue
        i = bisect_left(knots, (t,))
        if i < len(knots) and knots[i][0] == t:
            continue
        # t is no breakpoint of either curve, so both are linear there
        floor = _inside(minimum, t)
        floor = end_value if end_value < floor else floor
        knots.insert(i, (t, floor, _inside(harvested, t)))
    # each comparison picks the value min or max would, ties included
    times, powers = [0.0], []
    t0 = v0 = 0.0
    for t1, floor, ceiling in knots:
        if end_value < ceiling:
            ceiling = end_value
        lo = v0 if v0 > floor else floor
        hi = lo if lo > ceiling else ceiling
        # uniform(lo, hi) to the bit
        v1 = lo + (hi - lo) * draw()
        times.append(t1)
        powers.append((v1 - v0) / (t1 - t0))
        t0, v0 = t1, v1
    # the gate times and the distinct random times that are none of them
    # strictly increase from 0 to the horizon: only the powers need checking
    times.append(horizon)
    powers.append((end_value - v0) / (horizon - t0))
    return PowerSchedule._derived(tuple(times[:-1]), tuple(times[1:]), tuple(powers))
