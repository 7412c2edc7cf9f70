"""Throughput-optimal transmission with a leaky battery.

While the battery holds any charge it loses energy at a constant rate
``epsilon`` on top of what the transmitter draws, so holding energy is
costly.  Idle stretches with an empty battery leak nothing.  The central
quantity is the energy efficiency ``f(p) = r(p) / (p + epsilon)`` — data per
unit of battery drain — whose unique maximizer ``p_star`` is the preferred
transmit power whenever the deadline is slack.

For several energy packets and a deadline, the optimum is a block
decomposition: repeatedly take the longest prefix of remaining packets whose
running energy-per-time average is minimal, transmit throughout that block at
the constant power that just empties it by its end (or at ``p_star`` if that
is higher, going silent once the battery empties), and recurse.  The battery
is empty at every block boundary.  A single packet ``E`` with deadline ``D``
is the one-block case: power ``max(p_star, E/D - epsilon)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .curves import (
    CumulativeCurve,
    PiecewiseCurve,
    PowerSchedule,
    from_packet_arrivals,
    zero_curve,
)
from .rate import RateFunction, throughput
from .string_solver import dual_bound, taut_string

__all__ = [
    "UNBOUNDED",
    "LeakageProblem",
    "LeakageSolution",
    "LeakageTrace",
    "ThroughputComparison",
    "p_star",
    "sufficient_condition_holds",
    "solve_n_packet",
    "simulate",
    "compare_ST_NT",
    "drain_bound",
]

UNBOUNDED = None
"""Sentinel deadline meaning "no deadline": transmission may take forever."""


@dataclass(frozen=True)
class LeakageProblem:
    """Energy packets, a leak rate, a deadline (or UNBOUNDED), and a rate.

    Frozen, so its total energy and its :func:`solve_n_packet` solution are
    each computed once, on first use."""

    packets: tuple[tuple[float, float], ...]
    epsilon: float
    deadline: float | None
    rate: RateFunction

    def __post_init__(self) -> None:
        packets = tuple(
            (float(t), float(e)) for t, e in self.packets
        )
        object.__setattr__(self, "packets", packets)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not packets:
            raise ValueError("at least one energy packet is required")
        if packets[0][0] != 0.0:
            raise ValueError(
                f"the first packet must arrive at t=0, got t={packets[0][0]!r}"
            )
        for (t0, _), (t1, _) in zip(packets, packets[1:]):
            if not t1 > t0:
                raise ValueError("packet arrival times must be strictly increasing")
        if not math.isfinite(packets[-1][0]):
            raise ValueError(f"packet arrival times must be finite, got {packets[-1][0]!r}")
        for t, e in packets:
            if not 0.0 < e < math.inf:
                raise ValueError(
                    f"packet energies must be positive and finite, got {e!r} at t={t!r}"
                )
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon!r}")
        if self.deadline is not None:
            deadline = float(self.deadline)
            object.__setattr__(self, "deadline", deadline)
            if not math.isfinite(deadline):
                raise ValueError(
                    f"deadline must be finite (UNBOUNDED is None), got {deadline!r}"
                )
            if not deadline > packets[-1][0]:
                raise ValueError(
                    f"deadline {deadline!r} must exceed the last arrival time "
                    f"{packets[-1][0]!r}"
                )
        elif self.epsilon == 0.0:
            raise ValueError(
                "an unbounded deadline with zero leakage has no optimal "
                "schedule (slower is always better); use a bounded deadline"
            )

    @cached_property
    def total_energy(self) -> float:
        return sum(e for _, e in self.packets)

    @cached_property
    def _solution(self) -> LeakageSolution:
        # a refusal raises out of the property and is not cached
        return _solve_n_packet(self)


@dataclass(frozen=True)
class LeakageSolution:
    """Optimal schedule plus its block structure and energy accounting.

    ``block_powers[n]`` is the transmit power used while packet ``n``'s
    interarrival interval is active (packets in the same block share it);
    ``block_boundaries`` are the block start times followed by the final end
    time, and the battery is empty at each of them.  ``leaked_energy`` and
    the schedule's ``total_energy`` sum to the total harvested energy.
    """

    schedule: PowerSchedule
    block_powers: tuple[float, ...]
    block_boundaries: tuple[float, ...]
    total_data: float
    leaked_energy: float


@dataclass(frozen=True)
class LeakageTrace:
    """Exact piecewise-linear battery bookkeeping for a schedule.

    ``usable`` is harvested minus leaked energy; the battery content at time
    ``t`` is ``usable(t) - transmitted(t)``.  ``infeasible_at`` is the first
    time the schedule demanded power from an empty battery (None if never);
    from that point on the excess demand is ignored so the trace stays
    well-defined.
    """

    transmitted: CumulativeCurve
    leaked: CumulativeCurve
    usable: PiecewiseCurve
    infeasible_at: float | None


@dataclass(frozen=True)
class ThroughputComparison:
    """Best data with packets arriving over time (``d_nt``) versus all energy
    available upfront (``d_st``); the upfront value is never smaller."""

    d_nt: float
    d_st: float


def p_star(rate: RateFunction, epsilon: float) -> float:
    """Unique maximizer of the energy efficiency ``r(p) / (p + epsilon)``.

    For ``epsilon = 0`` the efficiency is highest in the limit of vanishing
    power, so 0.0 is returned exactly.  Otherwise the stationarity residual
    ``r'(p)(p + epsilon) - r(p)`` is positive at 0, strictly decreasing, and
    crosses zero once; bisection on a doubling bracket finds the crossing.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    if epsilon == 0.0:
        return 0.0

    def residual(p: float) -> float:
        return rate.deriv(p) * (p + epsilon) - rate(p)

    lo, hi = 0.0, 1.0
    while residual(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e30:
            raise ValueError(
                "no efficiency maximum below 1e30; the rate function does "
                "not look strictly concave"
            )
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        # residual(mid), with the rate it reads kept for the tolerance
        rate_mid = rate(mid)
        r_mid = rate.deriv(mid) * (mid + epsilon) - rate_mid
        if abs(r_mid) <= 1e-12 * (1.0 + abs(rate_mid)):
            return mid
        if r_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sufficient_condition_holds(problem: LeakageProblem) -> bool:
    """True when every prefix of packets is at least as energy-dense (energy
    per unit time, measured to the next arrival or the deadline) as the whole
    instance — the regime where packet timing costs nothing — that is, when the
    block decomposition, whose merges ignore the leak, has one block."""
    if problem.deadline is None:
        raise ValueError("the sufficient condition is defined for bounded deadlines")
    return len(_decompose_blocks(problem.packets, problem.deadline, 0.0, 0.0)) == 1


def _decompose_blocks(
    packets: tuple[tuple[float, float], ...],
    deadline: float | None,
    epsilon: float,
    p_opt: float,
) -> list[tuple[int, int, float, float, float | None]]:
    """Split packets into blocks of (first, last, power, start, end).

    Bounded: the next block is the longest remaining prefix whose running
    energy-per-time average is minimal (ties to the longer prefix), at power
    ``max(p_opt, average - epsilon)``.  Unbounded: one block of everything at
    ``p_opt`` with open end.

    The bounded blocks are the pieces of the lower convex hull of the
    cumulative energy over the arrival times, so one left-to-right pass
    finds them: each packet's interval joins a stack of blocks and merges
    into the block below while that does not raise the block's average.
    The top block is kept in locals and the blocks below it in three
    columns (first packet, start, energy), read in place and popped only on
    a merge, so a packet costs no tuple; each block's power is then taken
    from its energy re-summed packet by packet, left to right, as the
    rescanning definition sums it.
    """
    n = len(packets)
    if deadline is None:
        return [(0, n - 1, p_opt, packets[0][0], None)]
    firsts: list[int] = []
    starts: list[float] = []
    sums: list[float] = []
    f0 = 0
    s0, e0 = packets[0]
    for i in range(1, n):
        start, e = packets[i]
        end = packets[i + 1][0] if i + 1 < n else deadline
        if (e0 + e) / (end - s0) <= e0 / (start - s0):
            first, start, e = f0, s0, e0 + e
            while sums:
                s1 = starts[-1]
                e1 = sums[-1]
                if (e1 + e) / (end - s1) <= e1 / (start - s1):
                    first = firsts.pop()
                    del starts[-1], sums[-1]
                    start, e = s1, e1 + e
                else:
                    break
            f0, s0, e0 = first, start, e
        else:
            firsts.append(f0)
            starts.append(s0)
            sums.append(e0)
            f0, s0, e0 = i, start, e
    firsts.append(f0)
    starts.append(s0)
    blocks: list[tuple[int, int, float, float, float | None]] = []
    for first, nxt, start in zip(firsts, firsts[1:] + [n], starts):
        end = packets[nxt][0] if nxt < n else deadline
        cum_e = 0.0
        for _, e in packets[first:nxt]:
            cum_e += e
        blocks.append((first, nxt - 1, max(p_opt, cum_e / (end - start) - epsilon), start, end))
    return blocks


def solve_n_packet(problem: LeakageProblem) -> LeakageSolution:
    """Optimal schedule for staggered packets via block decomposition.

    Within each block the transmitter runs at the block power from every
    moment the battery is non-empty (earliest-transmission convention: silent
    gaps appear only where the battery has emptied before the next arrival),
    and the battery is empty at each block boundary.  Raises ``ValueError``
    when a block's power is not finite (its energy over its length
    overflows), on every call.

    A problem is solved once: later calls on the same problem object return
    the same solution object.
    """
    return problem._solution


def _solve_n_packet(problem: LeakageProblem) -> LeakageSolution:
    """The solve behind :func:`solve_n_packet`, run once per problem."""
    p_opt = p_star(problem.rate, problem.epsilon)
    eps = problem.epsilon
    packets = problem.packets
    blocks = _decompose_blocks(packets, problem.deadline, eps, p_opt)
    tol = 1e-12 * max(1.0, problem.total_energy)

    # the schedule in columns: the start and power of each segment, one
    # more each time the power changes; a segment ends where the next starts
    starts: list[float] = []
    powers: list[float] = []
    sp = None  # the power of the last segment
    block_powers: list[float] = []
    boundaries = [0.0]
    for first, last, power, cur, end_t in blocks:
        block_powers += [power] * (last + 1 - first)
        drain = power + eps
        # from the block's first arrival the battery runs at the block power
        # until it empties at t_off, then stays silent until the next arrival
        charge = packets[first][1]
        steps = packets[first + 1 : last + 1]
        if end_t is not None:
            steps += ((end_t, 0.0),)
        for until, energy in steps:
            if charge <= tol:
                t_off = cur
                charge = 0.0
            else:
                t_off = cur + charge / drain
                if t_off < until:
                    charge = 0.0
                else:
                    t_off = until
                    charge -= (until - cur) * drain
                    if charge < 0.0:
                        charge = 0.0
            if t_off > cur and sp != power:
                starts.append(cur)
                powers.append(power)
                sp = power
            if until > t_off and sp != 0.0:
                starts.append(t_off)
                powers.append(0.0)
                sp = 0.0
            cur = until
            charge += energy
        if end_t is None:
            # no deadline: the battery runs until it empties
            end_t = cur + charge / drain
            if end_t > cur and sp != power:
                starts.append(cur)
                powers.append(power)
            cur = end_t
        boundaries.append(end_t)
    segments = tuple(zip(starts, starts[1:] + [cur], powers))

    for k, (first, last, power, _, _) in enumerate(blocks):
        # a block power is at least p_star >= 0; an average that overflows
        # leaves it infinite
        if not power < math.inf:
            raise ValueError(
                f"leakage block {k} (packets {first} to {last}) has a power "
                f"that is not finite: {power!r}"
            )
    if segments and math.isfinite(cur):
        # contiguous from the first arrival at t=0, each piece non-empty, at
        # the finite block powers or idle
        schedule = PowerSchedule._trusted(segments)
    else:
        # the constructor refuses an empty or endless schedule
        schedule = PowerSchedule(segments)
    transmit_duration = sum(t1 - t0 for t0, t1, p in schedule.segments if p > 0.0)
    return LeakageSolution(
        schedule=schedule,
        block_powers=tuple(block_powers),
        block_boundaries=tuple(boundaries),
        total_data=throughput(schedule, problem.rate),
        leaked_energy=problem.epsilon * transmit_duration,
    )


def simulate(schedule: PowerSchedule, problem: LeakageProblem) -> LeakageTrace:
    """Replay a schedule against the leakage dynamics, exactly.

    Event-driven: the events are the schedule's segment ends (and the
    horizon, where a silent stretch follows the schedule) and, inside each
    segment, the packet arrivals before its end, walked in order with one
    pointer each.  Between consecutive events the power is constant, so the
    battery drains linearly, crosses empty at most once (solved in closed
    form) and then idles.
    Arrivals are credited before the empty-battery check at the same instant,
    and leakage runs exactly while the battery holds charge.  Demand from an
    empty battery is recorded (first time only) and ignored rather than
    raised, so every schedule yields a complete trace.  The points are kept
    in columns, one list per quantity, that are zipped into the three
    curves.  With no deadline the trace ends when the charge left has
    leaked out; a ``ValueError`` is raised when that time overflows the
    float range (a leak such as ``epsilon=5e-324`` under an idle schedule).
    """
    eps = problem.epsilon
    packets = problem.packets
    total = problem.total_energy
    tol = 1e-15 * max(1.0, total)

    segments = schedule.segments
    end = schedule.end_time
    if problem.deadline is not None:
        horizon = max(problem.deadline, end)
    else:
        # cover every arrival; extended below if charge remains after that
        horizon = max(end, packets[-1][0])
    if horizon > end:
        # silent after the schedule ends
        segments += ((end, horizon, 0.0),)
    # the next arrival after t=0, from the packets and a sentinel after them
    arrivals = packets + ((math.inf, 0.0),)
    i = 1
    t_arrival, energy = arrivals[i]

    cur = 0.0
    charge = harvested = packets[0][1]
    # the points in columns: t, transmitted, leaked, and harvested after an
    # arrival at t
    ts, txs, lks, hs = [0.0], [0.0], [0.0], [harvested]
    tx = 0.0
    lk = 0.0
    infeasible_at: float | None = None

    # the events are the segment ends and, inside each segment, the arrivals
    # before its end; every arrival comes by the horizon, the last end
    for _, seg_end, power in segments:
        rate_out = power + eps
        while True:
            nxt = t_arrival if t_arrival < seg_end else seg_end
            if charge > tol:
                t_empty = cur + charge / rate_out if rate_out > 0.0 else math.inf
                stop = nxt if nxt < t_empty else t_empty
                dt = stop - cur
                tx += power * dt
                lk += eps * dt
                charge = 0.0 if stop == t_empty else charge - rate_out * dt
                if cur < stop < nxt:
                    # the battery empties between two events
                    ts.append(stop)
                    txs.append(tx)
                    lks.append(lk)
                    hs.append(harvested)
                cur = stop
            if cur < nxt:
                if power > 1e-9 and nxt - cur > 1e-9 and infeasible_at is None:
                    infeasible_at = cur
                charge = 0.0
                cur = nxt
            if nxt == t_arrival:
                charge += energy
                harvested += energy
                i += 1
                t_arrival, energy = arrivals[i]
            ts.append(nxt)
            txs.append(tx)
            lks.append(lk)
            hs.append(harvested)
            if nxt == seg_end:
                break
    if problem.deadline is None and charge > tol and eps > 0.0:
        # no deadline: the charge left after the last event leaks away
        horizon = cur + charge / eps
        if horizon == math.inf:
            raise ValueError(
                f"the charge {charge!r} left at t={cur!r} cannot leak out at "
                f"epsilon={eps!r} in a finite float time"
            )
        lk += charge
        if horizon > cur:
            ts.append(horizon)
            txs.append(tx)
            lks.append(lk)
            hs.append(harvested)

    # the event loop only adds non-negative amounts and records strictly
    # increasing times from 0 to the horizon, so these curves need no checks
    transmitted = CumulativeCurve._trusted(tuple(zip(ts, txs, txs)), horizon)
    leaked = CumulativeCurve._trusted(tuple(zip(ts, lks, lks)), horizon)
    # the harvest before an arrival is the one after the point before it
    h_before = [0.0] + hs[:-1]
    usable = PiecewiseCurve._trusted(
        tuple(
            zip(
                ts,
                [h - v for h, v in zip(h_before, lks)],
                [h - v for h, v in zip(hs, lks)],
            )
        ),
        horizon,
    )
    return LeakageTrace(
        transmitted=transmitted,
        leaked=leaked,
        usable=usable,
        infeasible_at=infeasible_at,
    )


def compare_ST_NT(problem: LeakageProblem) -> ThroughputComparison:
    """Data achievable with the given arrival times versus with the same
    total energy all available at t=0 (which is never worse).  ``d_nt`` is
    the problem's own solution, so after :func:`solve_n_packet` only the
    one-packet upfront problem is solved."""
    if problem.deadline is None:
        raise ValueError("the comparison is defined for bounded deadlines")
    d_nt = solve_n_packet(problem).total_data
    upfront = replace(problem, packets=((0.0, problem.total_energy),))
    return ThroughputComparison(d_nt=d_nt, d_st=solve_n_packet(upfront).total_data)


def drain_bound(problem: LeakageProblem) -> float:
    """Upper bound on the data of any schedule that replays feasibly, read
    from the packets alone: the dual bound of the taut string under their
    staircase at the drain rate ``g(q) = r(q - epsilon)``, time-shared as
    ``q * f`` below ``p_star + epsilon``, ``f = r(p_star) / (p_star + epsilon)``.
    The string's pieces are the solver's blocks, so the optimum meets it.
    With no deadline it is ``E * f``.
    """
    r, eps = problem.rate, problem.epsilon
    p_opt = p_star(r, eps)
    if problem.deadline is None:
        return problem.total_energy * r(p_opt) / (p_opt + eps)
    knee = p_opt + eps
    f = r(p_opt) / knee if eps > 0.0 else 0.0  # at eps = 0, knee = 0 and g = r
    g = RateFunction(
        lambda q: np.where(q < knee, q * f, r(np.maximum(q - eps, p_opt))),
        lambda q: np.where(q < knee, f, r.deriv(np.maximum(q - eps, p_opt))),
    )
    harvested = from_packet_arrivals(problem.packets, problem.deadline)
    schedule = taut_string(harvested).schedule
    return dual_bound(schedule, harvested, zero_curve(problem.deadline), g)
