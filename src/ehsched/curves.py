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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence

__all__ = [
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
    "corridor_gates",
    "check_feasible",
    "solar_harvest_rate",
]

#: Absolute tolerance (energy units) for feasibility / contact comparisons.
DEFAULT_TOL = 1e-9


class InfeasibleError(ValueError):
    """No feasible spending curve exists for the given constraints."""


@dataclass(frozen=True)
class PiecewiseCurve:
    """A piecewise-linear function on [0, horizon] with upward/downward jumps.

    ``breakpoints`` is an ordered tuple of ``(t, v_left, v_right)``.  Between
    breakpoints the curve interpolates linearly from one breakpoint's
    ``v_right`` to the next one's ``v_left``.
    """

    breakpoints: tuple[tuple[float, float, float], ...]
    horizon: float

    def __post_init__(self) -> None:
        bps = tuple(
            (float(t), float(vl), float(vr)) for t, vl, vr in self.breakpoints
        )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "horizon", float(self.horizon))
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if len(bps) < 2:
            raise ValueError("a curve needs breakpoints at 0 and at the horizon")
        if bps[0][0] != 0.0:
            raise ValueError(f"first breakpoint must be at t=0, got t={bps[0][0]}")
        if bps[-1][0] != self.horizon:
            raise ValueError(
                f"last breakpoint must be at the horizon {self.horizon}, "
                f"got t={bps[-1][0]}"
            )
        for (t0, _, _), (t1, _, _) in zip(bps, bps[1:]):
            if not t1 > t0:
                raise ValueError(f"breakpoint times must strictly increase at t={t1}")

    @classmethod
    def _trusted(cls, breakpoints, horizon: float):
        """A curve from float breakpoints the library derived from curves or
        schedules it has already validated, set without checking them again."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "breakpoints", breakpoints)
        object.__setattr__(curve, "horizon", horizon)
        return curve

    @cached_property
    def times(self) -> tuple[float, ...]:
        return tuple(map(itemgetter(0), self.breakpoints))

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
        i = bisect_right(self.times, t) - 1
        t0, vl0, v0 = self.breakpoints[i]
        if t == t0:
            return vl0 if left else v0
        t1, v1, _ = self.breakpoints[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _merged_limits(a: PiecewiseCurve, b: PiecewiseCurve):
    """Yield ``(t, a(t^-), a(t), b(t^-), b(t))`` at each time of
    :func:`merge_times` of two curves on one horizon, in one walk over both.

    Between its own breakpoints a curve is read by the interpolation of
    :meth:`PiecewiseCurve.eval`, so the values are bit-identical to
    ``eval_left`` and ``eval``, without their domain check, clamp and
    bisection.  At a time both curves share, ``t`` is ``a``'s (the one
    ``merge_times`` keeps of 0.0 and -0.0).
    """
    inf = math.inf
    # sentinels after the horizon, where both walks end together
    end = ((inf, 0.0, 0.0),)
    abps = a.breakpoints + end
    bbps = b.breakpoints + end
    ta, al, ar = abps[0]
    tb, bl, br = bbps[0]
    # both curves start at t=0, so the first step sets the pieces' starts
    ta0 = tb0 = va0 = vb0 = 0.0
    i = j = 1
    while ta < inf:
        if ta < tb:
            v = vb0 + (bl - vb0) * (ta - tb0) / (tb - tb0)
            yield ta, al, ar, v, v
            ta0, va0 = ta, ar
            ta, al, ar = abps[i]
            i += 1
        elif tb < ta:
            v = va0 + (al - va0) * (tb - ta0) / (ta - ta0)
            yield tb, v, v, bl, br
            tb0, vb0 = tb, br
            tb, bl, br = bbps[j]
            j += 1
        else:
            yield ta, al, ar, bl, br
            ta0, va0 = ta, ar
            tb0, vb0 = tb, br
            ta, al, ar = abps[i]
            tb, bl, br = bbps[j]
            i += 1
            j += 1


class CumulativeCurve(PiecewiseCurve):
    """A non-decreasing, non-negative :class:`PiecewiseCurve` with upward jumps
    and finite values."""

    def __post_init__(self) -> None:
        super().__post_init__()
        end = self.breakpoints[-1][2]
        if not math.isfinite(end):
            raise ValueError(f"cumulative curve ends at a non-finite value {end}")
        slack = DEFAULT_TOL * max(1.0, abs(end))
        for t, vl, vr in self.breakpoints:
            # negated, so that NaN fails it; with a finite end value,
            # non-negative and non-decreasing values are all finite
            if not (vl >= -slack and vr >= -slack):
                raise ValueError(f"cumulative curve is negative or NaN at t={t}")
            if vl > vr + slack:
                raise ValueError(f"downward jump at t={t} ({vl} -> {vr})")
        for (t0, _, v0), (t1, v1, _) in zip(self.breakpoints, self.breakpoints[1:]):
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
        for t, c, _ in self.breakpoints:
            if not 0.0 <= c < math.inf:
                raise ValueError(
                    f"battery capacity must be finite and non-negative at t={t}, got {c}"
                )

    @classmethod
    def constant(cls, capacity: float, horizon: float) -> "BatterySchedule":
        return cls(((0.0, capacity), (float(horizon), capacity)))


@dataclass(frozen=True)
class PowerSchedule:
    """Piecewise-constant transmit power: contiguous ``(t_start, t_end, power)``."""

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        segs = []
        for t0, t1, p in self.segments:
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
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def _trusted(cls, segments):
        """A schedule from contiguous float segments the library derived
        itself, from t=0 to a finite end at finite non-negative powers, set
        without checking them again."""
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "segments", segments)
        return schedule

    @classmethod
    def _derived(cls, segments):
        """A schedule from contiguous float segments the library derived
        itself, from t=0 to a finite end, with only the powers checked, in
        one pass: where one is negative, infinite or NaN, the validating
        constructor clamps it or raises."""
        powers = [p for _, _, p in segments]
        # a NaN or an infinite power makes the sum fail the test
        if min(powers) >= 0.0 and sum(powers) < math.inf:
            return cls._trusted(segments)
        return cls(segments)

    @classmethod
    def constant(cls, power: float, duration: float) -> "PowerSchedule":
        return cls(((0.0, float(duration), float(power)),))

    @property
    def end_time(self) -> float:
        return self.segments[-1][1]

    @property
    def total_energy(self) -> float:
        return sum((t1 - t0) * p for t0, t1, p in self.segments)

    def energy_curve(self, horizon: float | None = None) -> CumulativeCurve:
        """The continuous cumulative-energy curve induced by the schedule."""
        horizon = self.end_time if horizon is None else float(horizon)
        if not horizon >= self.end_time:
            raise ValueError(
                f"horizon {horizon} shorter than the schedule, which ends at "
                f"{self.end_time}"
            )
        if horizon == math.inf:
            raise ValueError(f"horizon must be finite, got {horizon}")
        bps = [(0.0, 0.0, 0.0)]
        total = 0.0
        for t0, t1, p in self.segments:
            total += (t1 - t0) * p
            bps.append((t1, total, total))
        if not math.isfinite(total):
            raise ValueError(f"the schedule spends a non-finite energy {total}")
        if horizon > self.end_time:
            bps.append((horizon, total, total))
        return CumulativeCurve._trusted(tuple(bps), horizon)


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
    bps: list[tuple[float, float, float]] = []
    total = 0.0
    last = -math.inf
    for t, e in packets:
        t, e = float(t), float(e)
        if not (last < t <= horizon and 0.0 <= t and 0.0 < e < math.inf):
            _refuse_packets(packets, horizon)
        bps.append((t, total, total + e))
        total += e
        last = t
    if not bps or bps[0][0] > 0.0:
        bps.insert(0, (0.0, 0.0, 0.0))
    if bps[-1][0] < horizon:
        bps.append((horizon, total, total))
    if not (horizon > 0.0 and math.isfinite(total)):
        # the two checks the packets above do not cover, with the
        # constructor's messages
        return CumulativeCurve(tuple(bps), horizon)
    # float times strictly increasing from 0 to the horizon, and a running
    # sum of positive energies that ends finite
    return CumulativeCurve._trusted(tuple(bps), horizon)


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
    return CumulativeCurve(((0.0, 0.0, 0.0), (float(horizon), 0.0, 0.0)), horizon)


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
    bps = [(0.0, 0.0, 0.0)]
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
                bps.append((horizon * (k // subsamples) / resolution, total, total))
        prev_v = v
    if not math.isfinite(total):
        raise ValueError(f"the harvest rate integrates to a non-finite {total}")
    # horizon * resolution / resolution can round away from the horizon
    bps[-1] = (horizon, total, total)
    return CumulativeCurve(tuple(bps), horizon)


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
    cur = max(h_left - capacity, 0.0)
    ua = h_right - capacity
    bps = [(0.0, cur, max(cur, ua))]
    cur = bps[0][2]
    for c, h_left, h_right, _, capacity in walk:
        uc = h_left - capacity
        if uc > cur:
            if ua < cur:
                # the deficit overtakes the running max inside the piece
                tc = a + (c - a) * (cur - ua) / (uc - ua)
                if a < tc < c:
                    bps.append((tc, cur, cur))
            left = uc
        else:
            left = cur
        a, ua = c, h_right - capacity
        cur = max(left, ua)
        bps.append((c, left, cur))
    # a running maximum of differences of two validated curves: non-negative,
    # non-decreasing and finite
    return CumulativeCurve._trusted(tuple(bps), harvested.horizon)


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
    """
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
    return walk, harvested.breakpoints[-1][1]


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
    inf = math.inf
    end = ((inf, 0.0, 0.0),)
    abps = a.breakpoints + end
    bbps = b.breakpoints + end
    ta, al, ar = abps[0]
    tb, bl, br = bbps[0]
    ta0 = tb0 = va0 = vb0 = 0.0
    i = j = 1
    most, at = 0.0, None
    while ta < inf:
        if ta < tb:
            v = vb0 + (bl - vb0) * (ta - tb0) / (tb - tb0)
            if v - al > most:
                most, at = v - al, ta
            if v - ar > most:
                most, at = v - ar, ta
            ta0, va0 = ta, ar
            ta, al, ar = abps[i]
            i += 1
        elif tb < ta:
            v = va0 + (al - va0) * (tb - ta0) / (ta - ta0)
            if bl - v > most:
                most, at = bl - v, tb
            if br - v > most:
                most, at = br - v, tb
            tb0, vb0 = tb, br
            tb, bl, br = bbps[j]
            j += 1
        else:
            if bl - al > most:
                most, at = bl - al, ta
            if br - ar > most:
                most, at = br - ar, ta
            ta0, va0 = ta, ar
            tb0, vb0 = tb, br
            ta, al, ar = abps[i]
            tb, bl, br = bbps[j]
            i += 1
            j += 1
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


def _solar_harvest_curve(horizon: float, resolution: int) -> CumulativeCurve:
    """The exact integral of :func:`solar_harvest_rate` at the grid times of
    :func:`integrate_rate`.

    ``s = t - 6`` hours after sunrise the day has harvested
    ``(5/108) s^2 (18 - s)``: the same cubic as
    ``5s - (5/108)((s - 6)^3 + 216)``, factored so that no two large terms
    cancel near sunrise.  It rises from 0 to 40 at sunset (``s = 12``).

    The values need no check: each is 0, 40 or the cubic at ``0 < s < 12``,
    a product of positive factors, so they are finite and non-negative, and
    the cubic rises on the whole day, so where rounding lowers one value
    below the one before it, that is by a few ulps of 40, far inside the
    curve's tolerance.  Only the two checks these inputs can fail are made,
    with the constructor's messages: a horizon that is not positive, and grid
    times that do not strictly increase (a horizon too small for the grid).
    """
    bps = [(0.0, 0.0, 0.0)]
    last = 0.0
    increasing = True
    for k in range(1, resolution + 1):
        # horizon * resolution / resolution can round away from the horizon
        t = horizon * k / resolution if k < resolution else horizon
        if not t > last:
            increasing = False
        last = t
        if t <= 6.0:
            e = 0.0
        elif t >= 18.0:
            e = 40.0
        else:
            s = t - 6.0
            e = (5.0 / 108.0) * s * s * (18.0 - s)
        bps.append((t, e, e))
    if not (increasing and horizon > 0.0):
        return CumulativeCurve(tuple(bps), horizon)
    return CumulativeCurve._trusted(tuple(bps), horizon)
