"""Piecewise-linear cumulative energy curves and power schedules.

Everything in this package is stated in terms of cumulative energy: a
*harvested* curve gives the total energy that has arrived by each instant, a
*spending* curve gives the total energy already transmitted, and a *minimum*
curve encodes how much must have been spent by each instant (a finite battery
overflows, a dying battery loses its charge).  A spending curve is feasible
when it stays between the minimum floor and the harvested ceiling.

Curves are piecewise linear with explicit left/right values at breakpoints so
that packet arrivals are represented as exact jumps rather than steep ramps.
Curves are right-continuous: ``eval(t)`` returns the post-jump value and
``eval_left(t)`` the pre-jump limit.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "InfeasibleError",
    "PiecewiseCurve",
    "CumulativeCurve",
    "BatterySchedule",
    "PowerSchedule",
    "FeasibilityReport",
    "from_packet_arrivals",
    "integrate_rate",
    "zero_curve",
    "min_energy_from_battery",
    "dying_battery_scenario",
    "merge_times",
    "check_feasible",
    "solar_harvest_rate",
]

#: Absolute tolerance (energy units) for feasibility / contact comparisons.
DEFAULT_TOL = 1e-9


class InfeasibleError(ValueError):
    """No feasible spending curve exists for the given constraints."""


class _Rows:
    """The rows of an object's three float columns, as a tuple of 3-tuples,
    built on first read and kept in the object's ``__dict__``, where later
    reads find them first.  ``functools.cached_property`` does the same
    under a lock, which took 0.7 of the 1.1 µs of a first read of a
    two-breakpoint curve (Python 3.11)."""

    def __init__(self, *columns: str) -> None:
        self.columns = columns

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        fields = obj.__dict__
        a, b, c = self.columns
        # through a list, which tuple() copies at once: from the iterator
        # it grows the tuple in steps, about a fifth slower
        rows = fields[self.name] = tuple([*zip(fields[a], fields[b], fields[c])])
        return rows


@dataclass(frozen=True, init=False)
class PiecewiseCurve:
    """A piecewise-linear function on [0, horizon] with upward/downward jumps.

    The curve is kept as three float columns of one length: ``times``, which
    strictly increase from 0 to the horizon, and the values ``left`` (the
    left limit ``v(t^-)``) and ``right`` (``v(t)``) at each of them.  Between
    breakpoints the curve interpolates linearly from one breakpoint's right
    value to the next one's left value.  The constructor takes the rows
    ``breakpoints``, an ordered sequence of ``(t, v_left, v_right)``, and
    checks them; the ``breakpoints`` attribute gives those rows back as
    float tuples, built from the columns on first read and kept.
    """

    times: tuple[float, ...]
    left: tuple[float, ...]
    right: tuple[float, ...]
    horizon: float

    #: the rows ``(t, v_left, v_right)``
    breakpoints = _Rows("times", "left", "right")

    def __init__(self, breakpoints, horizon: float) -> None:
        bps = tuple((float(t), float(vl), float(vr)) for t, vl, vr in breakpoints)
        horizon = float(horizon)
        times, left, right = zip(*bps) if bps else ((), (), ())
        # frozen: the fields go into the instance dict, past __setattr__
        self.__dict__.update(times=times, left=left, right=right, horizon=horizon)
        self._check()

    def _check(self) -> None:
        """The constructor's checks, on the columns."""
        times = self.times
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if len(times) < 2:
            raise ValueError("a curve needs breakpoints at 0 and at the horizon")
        if times[0] != 0.0:
            raise ValueError(f"first breakpoint must be at t=0, got t={times[0]}")
        if times[-1] != self.horizon:
            raise ValueError(
                f"last breakpoint must be at the horizon {self.horizon}, "
                f"got t={times[-1]}"
            )
        for t0, t1 in zip(times, times[1:]):
            if not t1 > t0:
                raise ValueError(f"breakpoint times must strictly increase at t={t1}")

    @classmethod
    def _trusted(cls, times, left, right, horizon: float):
        """A curve from float columns the library derived from curves or
        schedules it has already validated, set without checking them again."""
        curve = object.__new__(cls)
        curve.__dict__.update(times=times, left=left, right=right, horizon=horizon)
        return curve

    @classmethod
    def _checked(cls, times, left, right, horizon: float):
        """A curve from float columns, with the constructor's checks and
        messages."""
        curve = cls._trusted(times, left, right, horizon)
        curve._check()
        return curve

    def eval(self, t: float) -> float:
        """Value at ``t`` (the right limit at a jump)."""
        return self._value(t, left=False)

    def eval_left(self, t: float) -> float:
        """Left limit at ``t`` (equals ``eval`` away from jumps)."""
        return self._value(t, left=True)

    def _value(self, t: float, left: bool) -> float:
        tol = DEFAULT_TOL * max(1.0, abs(self.horizon))
        if not -tol <= t <= self.horizon + tol:
            raise ValueError(f"t={t} outside the curve domain [0, {self.horizon}]")
        t = min(max(t, 0.0), self.horizon)
        times = self.times
        i = bisect_right(times, t) - 1
        t0 = times[i]
        if t == t0:
            return self.left[i] if left else self.right[i]
        v0 = self.right[i]
        return v0 + (self.left[i + 1] - v0) * (t - t0) / (times[i + 1] - t0)


def _merged_limits(a: PiecewiseCurve, b: PiecewiseCurve):
    """Yield ``(t, a(t^-), a(t), b(t^-), b(t))`` at each time of
    :func:`merge_times` of two curves on one horizon, in one walk over both.

    Between its own breakpoints a curve is read by the interpolation of
    :meth:`PiecewiseCurve.eval`, so the values are bit-identical to
    ``eval_left`` and ``eval``, without their domain check, clamp and
    bisection.  At a time both curves share, ``t`` is ``a``'s (the one
    ``merge_times`` keeps of 0.0 and -0.0).  The loop runs over ``a``'s
    columns and reads ``b``'s by index as it passes them, with a sentinel
    after the horizon: cheaper to set up than a second ``zip`` on the short
    corridors most checks see, and as fast on long ones.
    """
    bts, bls, brs = b.times + (math.inf,), b.left + (0.0,), b.right + (0.0,)
    j = 0
    tb, bl, br = bts[0], bls[0], brs[0]
    # both curves start at t=0, so the first step sets the pieces' starts
    ta0 = tb0 = va0 = vb0 = 0.0
    for ta, al, ar in zip(a.times, a.left, a.right):
        while tb < ta:
            v = va0 + (al - va0) * (tb - ta0) / (ta - ta0)
            yield tb, v, v, bl, br
            tb0, vb0 = tb, br
            j += 1
            tb, bl, br = bts[j], bls[j], brs[j]
        if ta < tb:
            v = vb0 + (bl - vb0) * (ta - tb0) / (tb - tb0)
            yield ta, al, ar, v, v
        else:
            yield ta, al, ar, bl, br
            tb0, vb0 = tb, br
            j += 1
            tb, bl, br = bts[j], bls[j], brs[j]
        ta0, va0 = ta, ar


class CumulativeCurve(PiecewiseCurve):
    """A non-decreasing, non-negative :class:`PiecewiseCurve` with upward jumps
    and finite values."""

    def _check(self) -> None:
        super()._check()
        times, left, right = self.times, self.left, self.right
        end = right[-1]
        if not math.isfinite(end):
            raise ValueError(f"cumulative curve ends at a non-finite value {end}")
        slack = DEFAULT_TOL * max(1.0, abs(end))
        for t, vl, vr in zip(times, left, right):
            # negated, so that NaN fails it; with a finite end value,
            # non-negative and non-decreasing values are all finite
            if not (vl >= -slack and vr >= -slack):
                raise ValueError(f"cumulative curve is negative or NaN at t={t}")
            if vl > vr + slack:
                raise ValueError(f"downward jump at t={t} ({vl} -> {vr})")
        for t0, t1, v0, v1 in zip(times, times[1:], right, left[1:]):
            if v1 < v0 - slack:
                raise ValueError(f"cumulative curve decreases on [{t0}, {t1}]")


class BatterySchedule(PiecewiseCurve):
    """Continuous battery capacity profile on [0, horizon], given by its
    ``(t, capacity)`` knots and linear between them."""

    def __init__(self, knots: Sequence[tuple[float, float]]) -> None:
        knots = tuple(knots)
        if not knots:
            raise ValueError("a battery profile needs knots at 0 and at the horizon")
        super().__init__(tuple((t, c, c) for t, c in knots), knots[-1][0])
        for t, c in zip(self.times, self.left):
            if not 0.0 <= c < math.inf:
                raise ValueError(
                    f"battery capacity must be finite and non-negative at t={t}, got {c}"
                )

    @classmethod
    def constant(cls, capacity: float, horizon: float) -> "BatterySchedule":
        return cls(((0.0, capacity), (float(horizon), capacity)))


@dataclass(frozen=True, init=False)
class PowerSchedule:
    """Piecewise-constant transmit power, kept as three float columns of one
    length: the segments' ``starts``, ``ends`` and ``powers``.  The segments
    are contiguous, from t=0 to a finite end.  The constructor takes the
    rows ``segments``, a sequence of ``(t_start, t_end, power)``, and checks
    them; the ``segments`` attribute gives those rows back as float tuples,
    built from the columns on first read and kept."""

    starts: tuple[float, ...]
    ends: tuple[float, ...]
    powers: tuple[float, ...]

    #: the rows ``(t_start, t_end, power)``
    segments = _Rows("starts", "ends", "powers")

    def __init__(self, segments) -> None:
        segs = []
        for t0, t1, p in segments:
            t0, t1, p = float(t0), float(t1), float(p)
            if not -DEFAULT_TOL <= p < math.inf:
                raise ValueError(
                    f"power must be finite and non-negative, got {p} on [{t0}, {t1}]"
                )
            segs.append((t0, t1, max(p, 0.0)))
        if not segs:
            raise ValueError("a schedule needs at least one segment")
        if segs[0][0] != 0.0:
            raise ValueError("schedule must start at t=0")
        # the times strictly increase from 0 (checked below), so a finite end
        # makes every time finite
        if not math.isfinite(segs[-1][1]):
            raise ValueError(f"schedule must end at a finite time, got {segs[-1][1]}")
        for (_, e0, _), (s1, _, _) in zip(segs, segs[1:]):
            if e0 != s1:
                raise ValueError(f"segments must be contiguous: gap at t={e0}")
        for t0, t1, _ in segs:
            if not t1 > t0:
                raise ValueError(f"empty segment at t={t0}")
        starts, ends, powers = zip(*segs)
        self.__dict__.update(starts=starts, ends=ends, powers=powers)

    @classmethod
    def _trusted(cls, starts, ends, powers):
        """A schedule from float columns the library derived itself:
        contiguous segments from t=0 to a finite end at finite non-negative
        powers, set without checking them again."""
        schedule = object.__new__(cls)
        schedule.__dict__.update(starts=starts, ends=ends, powers=powers)
        return schedule

    @classmethod
    def _derived(cls, starts, ends, powers):
        """A schedule from float columns the library derived itself,
        contiguous from t=0 to a finite end, with only the powers checked,
        in one pass: where one is negative, infinite or NaN, the validating
        constructor clamps it or raises."""
        # a NaN or an infinite power makes the sum fail the test
        if min(powers) >= 0.0 and sum(powers) < math.inf:
            return cls._trusted(starts, ends, powers)
        return cls(zip(starts, ends, powers))

    @classmethod
    def constant(cls, power: float, duration: float) -> "PowerSchedule":
        return cls(((0.0, float(duration), float(power)),))

    @property
    def end_time(self) -> float:
        return self.ends[-1]

    @property
    def total_energy(self) -> float:
        return sum((t1 - t0) * p for t0, t1, p in zip(self.starts, self.ends, self.powers))

    def energy_curve(self, horizon: float | None = None) -> CumulativeCurve:
        """The continuous cumulative-energy curve induced by the schedule."""
        end = self.ends[-1]
        horizon = end if horizon is None else float(horizon)
        if not horizon >= end:
            raise ValueError(
                f"horizon {horizon} shorter than the schedule, which ends at {end}"
            )
        if horizon == math.inf:
            raise ValueError(f"horizon must be finite, got {horizon}")
        values = [0.0]
        total = 0.0
        for t0, t1, p in zip(self.starts, self.ends, self.powers):
            total += (t1 - t0) * p
            values.append(total)
        if not math.isfinite(total):
            raise ValueError(f"the schedule spends a non-finite energy {total}")
        times = (0.0,) + self.ends
        if horizon > end:
            times += (horizon,)
            values.append(total)
        values = tuple(values)
        return CumulativeCurve._trusted(times, values, values, horizon)


# --------------------------------------------------------------------------
# builders


def from_packet_arrivals(
    packets: Iterable[tuple[float, float]], horizon: float
) -> CumulativeCurve:
    """Staircase curve for discrete energy packets ``(arrival time, energy)``.

    The packets are checked here, so the curve skips the constructor's
    checks of its breakpoints; a horizon that is not positive and a total
    that overflows still raise the constructor's errors.
    """
    horizon = float(horizon)
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    packets = tuple(packets)
    # the staircase in columns: each packet's time, and the running total
    # before and after it
    times: list[float] = []
    left: list[float] = []
    right: list[float] = []
    total = 0.0
    inf = math.inf
    last = -inf
    for t, e in packets:
        t, e = float(t), float(e)
        if not (last < t <= horizon and 0.0 <= t and 0.0 < e < inf):
            _refuse_packets(packets, horizon)
        times.append(t)
        left.append(total)
        total += e
        right.append(total)
        last = t
    if not times or times[0] > 0.0:
        times.insert(0, 0.0)
        left.insert(0, 0.0)
        right.insert(0, 0.0)
    if times[-1] < horizon:
        times.append(horizon)
        left.append(total)
        right.append(total)
    times, left, right = tuple(times), tuple(left), tuple(right)
    if not (horizon > 0.0 and math.isfinite(total)):
        # the two checks the packets above do not cover, with the
        # constructor's messages
        return CumulativeCurve._checked(times, left, right, horizon)
    # float times strictly increasing from 0 to the horizon, and a running
    # sum of positive energies that ends finite
    return CumulativeCurve._trusted(times, left, right, horizon)


def _refuse_packets(packets: tuple, horizon: float) -> None:
    """Raise the refusal of packets one of which fails the test of
    :func:`from_packet_arrivals`, a test that fails exactly where one of the
    checks here does: every number is converted first, then the times are
    checked for order, then each packet's energy and time."""
    pts = [(float(t), float(e)) for t, e in packets]
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if not t1 > t0:
            raise ValueError(f"packet arrival times must strictly increase at t={t1}")
    for t, e in pts:
        if not 0.0 < e < math.inf:
            raise ValueError(f"packet energy must be positive and finite, got {e} at t={t}")
        if not 0.0 <= t <= horizon:
            raise ValueError(f"packet at t={t} outside [0, {horizon}]")


def zero_curve(horizon: float) -> CumulativeCurve:
    horizon = float(horizon)
    zeros = (0.0, 0.0)
    return CumulativeCurve._checked((0.0, horizon), zeros, zeros, horizon)


def integrate_rate(
    rate_fn: Callable[[float], float],
    horizon: float,
    resolution: int = 1024,
) -> CumulativeCurve:
    """Cumulative integral of a non-negative rate function on a uniform grid.

    Each of the ``resolution`` cells is integrated by a composite trapezoid
    rule over 32 sub-intervals, so grid-point values are accurate to
    O((horizon/(32*resolution))^2).  The built-in :func:`solar_harvest_rate`
    itself (not a wrapper around it) is integrated exactly instead, on the
    same grid.
    """
    horizon = float(horizon)
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    if rate_fn is solar_harvest_rate:
        return _solar_harvest_curve(horizon, resolution)
    subsamples = 32
    n = resolution * subsamples
    width = horizon / n
    times, values = [0.0], [0.0]
    total = cell = prev_v = 0.0
    for k in range(n + 1):
        t = horizon * k / n if k else 0.0
        v = float(rate_fn(t))
        if not v >= -1e-12:
            raise ValueError(f"harvest rate is negative or NaN at t={t}: {v}")
        if v < 0.0:
            v = 0.0
        if k:
            cell += 0.5 * (prev_v + v) * width
            if k % subsamples == 0:
                total += cell
                cell = 0.0
                times.append(horizon * (k // subsamples) / resolution)
                values.append(total)
        prev_v = v
    if not math.isfinite(total):
        raise ValueError(f"the harvest rate integrates to a non-finite {total}")
    # horizon * resolution / resolution can round away from the horizon
    times[-1], values[-1] = horizon, total
    values = tuple(values)
    return CumulativeCurve._checked(tuple(times), values, values, horizon)


def min_energy_from_battery(
    harvested: CumulativeCurve, battery: BatterySchedule
) -> CumulativeCurve:
    """Minimum-spend curve for a finite battery: energy that would otherwise
    overflow must already have been transmitted.

    Returns the running maximum over ``s <= t`` of ``max(H(s) - b(s), 0)``,
    which is the tightest non-decreasing floor implied by the pointwise
    overflow constraint.  Both curves are read in one merged walk of their
    breakpoints.
    """
    if battery.horizon != harvested.horizon:
        raise ValueError(
            f"battery horizon {battery.horizon} != curve horizon {harvested.horizon}"
        )

    walk = _merged_limits(harvested, battery)
    a, h_left, h_right, _, capacity = next(walk)
    # the running maximum starts at >= 0, so comparing it with the unclamped
    # deficit is the same as comparing it with the clamped one
    left = max(h_left - capacity, 0.0)
    ua = h_right - capacity
    cur = max(left, ua)
    # the floor in columns: time, left and right value
    ts, ls, rs = [0.0], [left], [cur]
    for c, h_left, h_right, _, capacity in walk:
        uc = h_left - capacity
        if uc > cur:
            if ua < cur:
                # the deficit overtakes the running max inside the piece
                tc = a + (c - a) * (cur - ua) / (uc - ua)
                if a < tc < c:
                    ts.append(tc)
                    ls.append(cur)
                    rs.append(cur)
            left = uc
        else:
            left = cur
        a, ua = c, h_right - capacity
        # max(left, ua), in one comparison
        cur = ua if ua > left else left
        ts.append(c)
        ls.append(left)
        rs.append(cur)
    # a running maximum of differences of two validated curves: non-negative,
    # non-decreasing and finite
    return CumulativeCurve._trusted(tuple(ts), tuple(ls), tuple(rs), harvested.horizon)


def dying_battery_scenario(
    amounts: Sequence[float], times: Sequence[float]
) -> tuple[CumulativeCurve, CumulativeCurve]:
    """Corridor for a bank of batteries whose charge dies at known times.

    All energy is present from t=0 (``H`` constant at the total), and each
    death time forces the cumulative spend up by the dying amount (``M`` is a
    staircase).  The horizon is the last death time.
    """
    if len(amounts) == 0:
        raise ValueError("at least one battery is required")
    if len(amounts) != len(times):
        raise ValueError("amounts and times must have equal length")
    for a in amounts:
        if a <= 0:
            raise ValueError(f"battery charge must be positive, got {a}")
    for (t0, t1) in zip(times, times[1:]):
        if not t1 > t0:
            raise ValueError("death times must strictly increase")
    if times[0] <= 0:
        raise ValueError("death times must be positive")
    horizon = float(times[-1])
    total = float(sum(amounts))
    harvested = from_packet_arrivals([(0.0, total)], horizon)
    minimum = from_packet_arrivals(list(zip(times, amounts)), horizon)
    return harvested, minimum


def merge_times(*curves: PiecewiseCurve) -> tuple[float, ...]:
    """Sorted union of breakpoint times of several curves."""
    merged: set[float] = set()
    for c in curves:
        merged.update(c.times)
    return tuple(sorted(merged))


def corridor_gates(
    harvested: CumulativeCurve, minimum: CumulativeCurve
) -> tuple[list[tuple[float, float, float]], float]:
    """The corridor a continuous spending curve must pass through, as
    ``(t, floor, ceiling)`` gates at the merged breakpoints, and ``H(T^-)``.

    At a jump time ``t`` the effective ceiling is ``H(t^-)`` (a continuous
    curve cannot use energy the instant it arrives) and the effective floor
    is ``M(t)`` (forced spending must be complete when the jump occurs);
    between breakpoints both envelopes are linear, so the gates bound the
    whole corridor.  Raises :class:`InfeasibleError` when the corridor
    pinches shut.  The list excludes t=0 (a path is pinned at the origin)
    and ends with the pinned endpoint gate ``(T, H(T^-), H(T^-))``.  Both
    curves are read in one merged walk of their breakpoints.

    The gates of an open corridor are kept in ``harvested``'s ``__dict__``
    beside the floor object they were built for, as :class:`_Rows` keeps
    rows; a later call with that same floor returns a new list of them, so
    the caller may change it.  A call with another floor builds and keeps
    its own.  A dominance sweep prices dozens of random rivals and a grid
    DP against one corridor, and the rebuild was about a sixth of the cost
    of each small-corridor rival.
    """
    kept = harvested.__dict__.get("_gates")
    if kept is not None and kept[0] is minimum:
        return list(kept[1]), kept[2]
    walk, end_value = _corridor_walk(harvested, minimum)
    T = harvested.horizon
    tol = DEFAULT_TOL
    gates: list[tuple[float, float, float]] = []
    for t, hi, h_post, m_pre, lo in walk:
        if m_pre > hi + tol or lo > h_post + tol or lo > hi + tol:
            _refuse_pinch(t, hi, h_post, m_pre, lo)
        if t == T:
            continue
        # min(lo, hi, end_value), in two comparisons
        if hi < lo:
            lo = hi
        if end_value < lo:
            lo = end_value
        gates.append((t, lo, hi))
    gates.append((T, end_value, end_value))
    harvested.__dict__["_gates"] = (minimum, tuple(gates), end_value)
    return gates, end_value


def _horizon(harvested: CumulativeCurve, minimum: CumulativeCurve) -> float:
    """The horizon the two curves of a corridor share; ``ValueError`` if not."""
    if minimum.horizon != harvested.horizon:
        raise ValueError(f"horizon mismatch: {minimum.horizon} != {harvested.horizon}")
    return harvested.horizon


def _corridor_walk(harvested: CumulativeCurve, minimum: CumulativeCurve):
    """The :func:`_merged_limits` walk of a corridor's two curves past t=0,
    where a path is pinned, and ``H(T^-)``.  Raises ``ValueError`` when the
    horizons differ and :class:`InfeasibleError` when the floor forces
    energy out at t=0."""
    _horizon(harvested, minimum)
    walk = _merged_limits(harvested, minimum)
    floor0 = next(walk)[4]
    if floor0 > DEFAULT_TOL:
        raise InfeasibleError(
            f"the floor forces {floor0:g} energy to be spent "
            "instantaneously at t=0"
        )
    return walk, harvested.left[-1]


def _refuse_pinch(t: float, hi: float, h_post: float, m_pre: float, lo: float) -> None:
    """Raise the :class:`InfeasibleError` of a gate of :func:`_merged_limits`
    (``t``, ``H(t^-)``, ``H(t)``, ``M(t^-)``, ``M(t)``) where the floor
    exceeds the ceiling by more than ``DEFAULT_TOL``, naming the first of
    the three tests it fails: ``M(t^-) > H(t^-)``, ``M(t) > H(t)`` and
    ``M(t) > H(t^-)``."""
    if m_pre > hi + DEFAULT_TOL:
        raise InfeasibleError(f"floor exceeds ceiling just before t={t}")
    if lo > h_post + DEFAULT_TOL:
        raise InfeasibleError(f"floor exceeds ceiling at t={t}")
    raise InfeasibleError(
        f"floor {lo:g} at t={t} exceeds the energy {hi:g} available "
        "before the jump there"
    )


# --------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class FeasibilityReport:
    """Worst constraint violations of a schedule against a corridor."""

    feasible: bool
    max_overdraw: float  #: max of spent - harvested (> 0 spends unseen energy)
    overdraw_time: float | None
    max_shortfall: float  #: max of minimum - spent (> 0 misses forced spending)
    shortfall_time: float | None


def _largest_excess(a: PiecewiseCurve, b: PiecewiseCurve) -> tuple[float, float | None]:
    """The largest excess of ``b`` over ``a`` at the left and right limits of
    :func:`_merged_limits`, and the first time it is reached (the left limit
    first, and ``a``'s time where both curves share one); ``(0.0, None)``
    when ``b`` never exceeds ``a``.

    The walk is :func:`_merged_limits`' own, written out so that a time
    costs no tuple: where one curve has no breakpoint, its value is the
    same interpolation, and its two limits are that one value.
    """
    bts, bls, brs = b.times + (math.inf,), b.left + (0.0,), b.right + (0.0,)
    j = 0
    tb, bl, br = bts[0], bls[0], brs[0]
    ta0 = tb0 = va0 = vb0 = 0.0
    most, at = 0.0, None
    for ta, al, ar in zip(a.times, a.left, a.right):
        while tb < ta:
            v = va0 + (al - va0) * (tb - ta0) / (ta - ta0)
            if bl - v > most:
                most, at = bl - v, tb
            if br - v > most:
                most, at = br - v, tb
            tb0, vb0 = tb, br
            j += 1
            tb, bl, br = bts[j], bls[j], brs[j]
        if ta < tb:
            v = vb0 + (bl - vb0) * (ta - tb0) / (tb - tb0)
            if v - al > most:
                most, at = v - al, ta
            if v - ar > most:
                most, at = v - ar, ta
        else:
            if bl - al > most:
                most, at = bl - al, ta
            if br - ar > most:
                most, at = br - ar, ta
            tb0, vb0 = tb, br
            j += 1
            tb, bl, br = bts[j], bls[j], brs[j]
        ta0, va0 = ta, ar
    return most, at


def check_feasible(
    schedule: PowerSchedule,
    minimum: CumulativeCurve,
    harvested: CumulativeCurve,
) -> FeasibilityReport:
    """Check ``minimum <= spent <= harvested`` over the whole horizon.

    Each difference, ``spent - harvested`` and ``minimum - spent``, is linear
    between the breakpoints of its own two curves, so comparing left and
    right limits at those breakpoints is exact; each pair is read in one
    merged walk.  The floor and the harvest must share one horizon.
    """
    spent = schedule.energy_curve(_horizon(harvested, minimum))
    over, over_t = _largest_excess(harvested, spent)
    short, short_t = _largest_excess(spent, minimum)
    return FeasibilityReport(
        feasible=(over <= DEFAULT_TOL and short <= DEFAULT_TOL),
        max_overdraw=over,
        overdraw_time=over_t,
        max_shortfall=short,
        shortfall_time=short_t,
    )


# --------------------------------------------------------------------------
# the solar harvest model


def solar_harvest_rate(t: float) -> float:
    """Bell-shaped daytime harvest rate: 5 - (5/36)(t-12)^2 on [6, 18], else 0."""
    if t < 6.0 or t > 18.0:
        return 0.0
    return 5.0 - (5.0 / 36.0) * (t - 12.0) ** 2


@np.errstate(over="ignore")  # past the float range t and s give inf, as in Python floats
def _solar_harvest_curve(horizon: float, resolution: int) -> CumulativeCurve:
    """The exact integral of :func:`solar_harvest_rate` at the grid times of
    :func:`integrate_rate`.

    ``s = t - 6`` hours after sunrise the day has harvested
    ``(5/108) s^2 (18 - s)``: the same cubic as
    ``5s - (5/108)((s - 6)^3 + 216)``, factored so that no two large terms
    cancel near sunrise.  It rises from 0 to 40 at sunset (``s = 12``).

    The times ``horizon * k / resolution`` (the last is the horizon) and the
    cubic are NumPy arrays of the scalar operations in their order, so the
    bits are a scalar loop's.  They stay on the curve, read-only, as its
    ``_arrays`` (times, left, right).

    The values need no check: each is 0, 40 or the cubic at ``0 < s < 12``,
    a product of positive factors, so they are finite and non-negative, and
    the cubic rises on the whole day, so where rounding lowers one value
    below the one before it, that is by a few ulps of 40, far inside the
    curve's tolerance.  Only the two checks these inputs can fail are made,
    with the constructor's messages: a horizon that is not positive, and grid
    times that do not strictly increase (a horizon too small for the grid).
    A resolution that is not an integer is refused as ``range`` refuses it.
    """
    n = operator.index(resolution)
    t = horizon * np.arange(n + 1) / n
    # horizon * resolution / resolution can round away from the horizon
    t[-1] = horizon
    s = t - 6.0
    e = (5.0 / 108.0) * s * s * (18.0 - s)
    e[t <= 6.0] = 0.0
    e[t >= 18.0] = 40.0
    times, values = tuple(t.tolist()), tuple(e.tolist())
    if not (horizon > 0.0 and (t[1:] > t[:-1]).all()):
        return CumulativeCurve._checked(times, values, values, horizon)
    curve = CumulativeCurve._trusted(times, values, values, horizon)
    t.flags.writeable = e.flags.writeable = False
    curve.__dict__["_arrays"] = (t, e, e)
    return curve
