"""Taut-string solver: the throughput-optimal cumulative spending curve.

The optimal spending curve between a minimum floor ``M`` and a harvested
ceiling ``H`` is the shortest path from ``(0, 0)`` to ``(T, H(T^-))`` that
stays inside the corridor — a string pulled taut between the two envelopes.
Its geometry is independent of the (strictly concave) rate law, so the solver
works purely on the corridor; ``throughput`` prices its schedule under a rate.

Because the spending curve is continuous while the envelopes may jump, the
binding constraints are the gates of :func:`~ehsched.curves.corridor_gates`
at the merged breakpoints.  The solver sweeps them left to right with a
funnel of two convex chains, reading each gate from the one merged walk of
the two curves as it goes, with the pinch checks of ``corridor_gates``.  It
tests the bend condition inline, calls ``settle`` only when a bend is due,
and keeps the path's vertices in three columns (time, value, kind) until
the end.

The power rises only on the ceiling and falls only on the floor, so a gate
whose ceiling point lies above the chord of its neighbours' ceiling points
and whose floor point lies below the chord of their floor points holds no
vertex, and the string through the other gates is the same.  When one
envelope is flat (two end breakpoints at one value: the zero floor of a
packet train or the solar day, the constant ceiling of a dying bank) and the
other has at least ``PRUNE_MIN_BREAKPOINTS``, :func:`_binding_gates` builds
the gates with NumPy and drops such gates in passes, each beyond its chords
by more than the funnel's rounding can reach, and the funnel sweeps the
rest: the same vertices and contacts, bit for bit.  Every other corridor
takes the walk: a capped train's, whose two envelopes both bend, keeps most
of its gates, and a sloped line's gates lie on their chords to within
rounding, so the passes would drop almost nothing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .curves import (
    DEFAULT_TOL,
    CumulativeCurve,
    PowerSchedule,
    _corridor_walk,
    _horizon,
    _refuse_pinch,
    check_feasible,
    zero_curve,
)
from .rate import RateFunction

__all__ = [
    "Contact",
    "StringSolution",
    "CertificateReport",
    "taut_string",
    "optimality_certificate",
    "dual_bound",
]


@dataclass(frozen=True)
class Contact:
    """A vertex of the solution path and the envelope it touches."""

    time: float
    value: float
    kind: str  #: "start" | "upper" | "lower" | "end"


@dataclass(frozen=True)
class StringSolution:
    schedule: PowerSchedule
    vertices: tuple[tuple[float, float], ...]
    contacts: tuple[Contact, ...]


def taut_string(
    harvested: CumulativeCurve, minimum: CumulativeCurve | None = None
) -> StringSolution:
    """Shortest feasible spending curve from (0, 0) to (T, H(T^-)).

    The path is unique and maximizes throughput for every strictly concave
    increasing rate law.  Raises ``ValueError`` when a slope of the path
    overflows to infinity.
    """
    if minimum is None:
        minimum = zero_curve(harvested.horizon)
    walk, end_value = _corridor_walk(harvested, minimum)
    if max(len(harvested.times), len(minimum.times)) >= PRUNE_MIN_BREAKPOINTS and any(
        len(c.times) == 2 and c.right[0] == c.left[1] for c in (harvested, minimum)
    ):
        # one envelope is flat: drop the gates the string cannot touch
        walk = _binding_gates(harvested, minimum, end_value)
    times, values, kinds = _funnel(walk, harvested.horizon, end_value)
    times = tuple(times)
    starts, ends = times[:-1], times[1:]
    slopes = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(starts, ends, values, values[1:])]
    # the vertex times strictly increase from 0 to the horizon
    schedule = PowerSchedule._derived(starts, ends, tuple(slopes))
    contacts = tuple(map(Contact, times, values, kinds))
    return StringSolution(schedule, tuple(zip(times, values)), contacts)


def _funnel(walk, T: float, end_value: float) -> tuple[list, list, list]:
    """The taut string's vertices, as time, value and contact-kind columns,
    from the gates of a corridor walk past t=0 ending at ``T``."""
    tol = DEFAULT_TOL
    o0 = o1 = 0.0  # the apex, the last vertex of the path
    # the vertices in columns: time, value and the kind of contact
    times, values, kinds = [0.0], [0.0], ["start"]
    upper: deque[tuple[float, float]] = deque()  # ceiling chain, slopes increasing
    lower: deque[tuple[float, float]] = deque()  # floor chain, slopes decreasing

    def settle() -> None:
        # The tightest floor direction exceeds the tightest ceiling direction,
        # so the string bends around the earlier of the two chain fronts, and
        # again while that holds from the new apex.  A violation can only
        # appear when the newest gate point collapsed its own chain to a
        # singleton (appending at the back never changes a surviving front),
        # so the sweep tests for one only then, inline: the singleton side
        # holds the newest point and the bend is at the other side's front.
        nonlocal o0, o1
        while True:
            if len(upper) == 1:
                o0, o1 = lower.popleft()
                kinds.append("lower")
                # every chain point lies past the apex, except a ceiling
                # point at the apex's own gate (a bend test that was NaN)
                if upper[0][0] <= o0:
                    upper.popleft()
            else:
                o0, o1 = upper.popleft()
                kinds.append("upper")
            times.append(o0)
            values.append(o1)
            if not (upper and lower):
                return
            a0, a1 = upper[0]
            b0, b1 = lower[0]
            if (a0 - o0) * (b1 - o1) - (a1 - o1) * (b0 - o0) <= 0:
                return

    # the gates of corridor_gates, read from the walk as the funnel takes them
    for t, hi, h_post, m_pre, lo in walk:
        if m_pre > hi + tol or lo > h_post + tol or lo > hi + tol:
            _refuse_pinch(t, hi, h_post, m_pre, lo)
        if t == T:
            # the path is pinned at (T, H(T^-))
            lo = hi = end_value
        else:
            if hi < lo:
                lo = hi
            if end_value < lo:
                lo = end_value

        # pop the back of each chain while the new point does not turn the
        # right way from it: the cross product of settle's bend test, with
        # the point before the back (or the apex) as origin
        while upper:
            p0, p1 = upper[-2] if len(upper) > 1 else (o0, o1)
            a0, a1 = upper[-1]
            if (a0 - p0) * (hi - p1) - (a1 - p1) * (t - p0) <= 0:
                upper.pop()
            else:
                break
        upper.append((t, hi))
        if len(upper) == 1 and lower:
            # settle's bend test: not <= 0 (positive, or NaN where products
            # overflow) iff the floor front's slope from the apex exceeds
            # the ceiling front's
            b0, b1 = lower[0]
            if not (t - o0) * (b1 - o1) - (hi - o1) * (b0 - o0) <= 0:
                settle()

        while lower:
            p0, p1 = lower[-2] if len(lower) > 1 else (o0, o1)
            a0, a1 = lower[-1]
            if (a0 - p0) * (lo - p1) - (a1 - p1) * (t - p0) >= 0:
                lower.pop()
            else:
                break
        lower.append((t, lo))
        if len(lower) == 1 and upper:
            a0, a1 = upper[0]
            if not (a0 - o0) * (lo - o1) - (a1 - o1) * (t - o0) <= 0:
                settle()

    if (o0, o1) != (T, end_value):
        times.append(T)
        values.append(end_value)
        kinds.append("end")
    else:
        times[-1], values[-1], kinds[-1] = T, end_value, "end"
    return times, values, kinds


#: Breakpoints of a corridor's long envelope from which :func:`taut_string`
#: runs :func:`_binding_gates` when the other envelope is flat: below about
#: 150 the NumPy passes cost more than the funnel they save.
PRUNE_MIN_BREAKPOINTS = 256

#: A pass of :func:`_binding_gates` that drops fewer gates than this is its
#: last: the funnel takes the rest for about what one more pass costs.
PRUNE_MIN_DROPS = 32


def _columns(curve: CumulativeCurve) -> list[np.ndarray]:
    """A curve's columns as NumPy arrays: t, v(t^-) and v(t).  ``fromiter``
    with the length takes about half the time of ``np.array``, which
    first reads the whole tuple to find a dtype."""
    n = len(curve.times)
    return [np.fromiter(c, float, n) for c in (curve.times, curve.left, curve.right)]


def _limits(columns: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(v(t^-), v(t))`` at the ``n`` gate times of :func:`_binding_gates`:
    a curve's own limits past t=0, or, on the flat curve, ``v + 0.0`` (the
    walk's interpolation, which reads -0.0 as 0.0) before its limits at T."""
    _, left, right = columns
    if len(left) > 2:
        return left[1:], right[1:]
    pre, post = np.full((2, n), right[0] + 0.0)
    pre[-1], post[-1] = left[1], right[1]
    return pre, post


@np.errstate(all="ignore")  # overflow gives inf, as in Python floats
def _binding_gates(
    harvested: CumulativeCurve, minimum: CumulativeCurve, end_value: float
):
    """The gates of ``corridor_gates`` past t=0 that a taut string can touch,
    as the ``(t, H(t^-), H(t), M(t^-), M(t))`` walk ``taut_string`` reads,
    with the floor clamped and the pinch checks made.

    One curve is flat (two breakpoints at one value), so the gates sit at
    the other curve's own times.  They come from NumPy columns of the two
    curves' breakpoints, with the values of ``_merged_limits``, the pinch
    tests of the walk (refused through ``_refuse_pinch`` at the first gate
    that fails one) and its clamp (``np.where``: ``np.minimum`` turns
    ``(-0.0, 0.0)`` into 0.0 where the comparisons keep -0.0).  Then, in
    passes, every gate goes whose ceiling point lies over the chord of its
    neighbours' ceiling points and whose floor point lies under the chord of
    their floor points; the start (0, 0) and the last gate stay.  Such a
    gate holds no vertex: the power rises only on the ceiling and falls only
    on the floor, so neither point is a vertex of the hull the funnel keeps
    of its envelope.  A run of such gates is concave over its ceiling points
    and convex under its floor points, so each lies beyond the chord of the
    gates left around the run by at least its local margin, and a whole run
    can go in one pass.

    With ``u = 2^-53`` and every gate value in ``[-W, W]``, the funnel's
    cross product ``(a0-p0)(q1-p1) - (a1-p1)(q0-p0)`` on points ``p, a, q``
    in time order errs by at most
    ``4u (|a0-p0| |q1-p1| + |a1-p1| |q0-p0|) <= 16 u W (q0-p0)`` (three
    roundings per product, one in the difference), and ``-cross / (q0-p0)``
    is how far ``a`` lies over the chord ``pq``: the funnel sides every
    point more than ``16 u W`` off its chord as exact arithmetic does.  The
    passes form the same product as ``dt0 dv1 - dv0 dt1`` from the steps
    around the middle gate, to within ``8 u W`` times the span, and drop a
    gate only when it clears the chord by ``2^-40 W = 8192 u W``, 500 times
    what the funnel needs: the chords the funnel tests a gate against start
    at its chains and apex, not at the gate's neighbours, and keep the local
    margin only in exact arithmetic.  A value equal to both neighbours' (the
    flat floor of a train, the flat ceiling of a dying bank) also counts as
    beyond: the funnel's products on three equal values are exact.  The
    bound assumes normal floats, so a drop must also clear ``2^-1000``, and
    the passes run only where ``4 T W``, which bounds their products, is
    finite.  The funnel on the survivors gives the walk's vertices and
    contacts bit for bit.

    Each pass shrinks the gates, but the run up to a tangent point, such as
    the solar day's, loses one gate a pass (684 passes on the 4096-piece
    day), so the passes stop at the first that drops fewer than
    ``PRUNE_MIN_DROPS``.
    """
    hc, mc = _columns(harvested), _columns(minimum)
    # the long curve's times past t=0, where the path is pinned
    t = (mc if len(hc[0]) == 2 else hc)[0][1:]
    hi, h_post = _limits(hc, len(t))
    m_pre, lo = _limits(mc, len(t))
    tol = DEFAULT_TOL
    pinched = (m_pre > hi + tol) | (lo > h_post + tol) | (lo > hi + tol)
    if pinched.any():
        k = int(pinched.argmax())
        _refuse_pinch(*(float(c[k]) for c in (t, hi, h_post, m_pre, lo)))
    lo = np.where(hi < lo, hi, lo)
    lo = np.where(end_value < lo, end_value, lo)
    # the path is pinned at (T, H(T^-)), and starts at (0, 0)
    hi[-1] = lo[-1] = end_value
    t, hi, lo = (np.concatenate(((0.0,), c)) for c in (t, hi, lo))
    scale = max(float(np.abs(hi).max()), float(np.abs(lo).max()))
    margin = 2.0**-40 * scale
    passes = 4.0 * float(t[-1]) * scale < math.inf

    while passes and len(t) > 2:
        dt, dh, dl = np.diff(t), np.diff(hi), np.diff(lo)
        dt0, dt1 = dt[:-1], dt[1:]
        slack = margin * (dt0 + dt1) + 2.0**-1000
        # cross(l, m, r) of each envelope, as dt0 dv1 - dv0 dt1: below 0
        # where m lies over the chord lr
        over = dt0 * dh[1:] - dh[:-1] * dt1 < -slack
        under = dt0 * dl[1:] - dl[:-1] * dt1 > slack
        # or exactly flat
        over |= (dh[:-1] == 0.0) & (dh[1:] == 0.0)
        under |= (dl[:-1] == 0.0) & (dl[1:] == 0.0)
        drop = over & under
        dropped = int(np.count_nonzero(drop))
        if dropped:
            keep = np.concatenate(((True,), ~drop, (True,)))
            t, hi, lo = t[keep], hi[keep], lo[keep]
        if dropped < PRUNE_MIN_DROPS:
            break
    hi = hi[1:].tolist()
    lo = lo[1:].tolist()
    return zip(t[1:].tolist(), hi, hi, lo, lo)


@dataclass(frozen=True)
class CertificateReport:
    """Verdict of :func:`optimality_certificate` and its dual evidence.

    ``bends`` holds one ``(t, kind, power_before, power_after)`` per vertex
    where the power changes: ``kind`` is ``"upper"`` where it rises (the
    battery is empty) and ``"lower"`` where it falls (the battery is full).
    """

    ok: bool
    failures: tuple[str, ...]
    bends: tuple[tuple[float, str, float, float], ...] = ()


def optimality_certificate(
    solution: StringSolution,
    minimum: CumulativeCurve,
    harvested: CumulativeCurve,
) -> CertificateReport:
    """Check the KKT conditions of directional water-filling on a solution.

    The rate law is strictly concave, so a path is optimal exactly when
    (1) its vertices start at (0, 0) and trace the schedule's segments,
    (2) it is feasible (one exact :func:`~ehsched.curves.check_feasible`),
    (3) it ends pinned at ``(T, H(T^-))``, and (4) its power rises only on
    the ceiling ``H(t^-)`` and falls only on the floor ``M(t)``.  Energies
    agree to within ``DEFAULT_TOL * max(1, H(T^-))``.  The cost is that of one
    ``check_feasible`` call plus one pass over the path: O(V + G) curve
    evaluations for V vertices and G breakpoints.
    """
    T = _horizon(harvested, minimum)
    end_value = harvested.eval_left(T)
    slack = DEFAULT_TOL * max(1.0, end_value)
    verts = solution.vertices
    schedule = solution.schedule
    if len(verts) < 2:
        return CertificateReport(False, ("the path needs at least two vertices",))
    failures: list[str] = []

    # (1) the vertices are the schedule's cumulative energy
    if verts[0] != (0.0, 0.0):
        failures.append(f"the path starts at {verts[0]}, not at (0, 0)")
    starts, ends = schedule.starts, schedule.ends
    if len(starts) != len(verts) - 1:
        failures.append(
            f"the path has {len(verts)} vertices for "
            f"{len(starts)} schedule segments"
        )
    for t0, t1, p, (ta, va), (tb, vb) in zip(starts, ends, schedule.powers, verts, verts[1:]):
        if (t0, t1) != (ta, tb):
            failures.append(
                f"segment [{t0:g}, {t1:g}] does not join the vertices at "
                f"t={ta:g} and t={tb:g}"
            )
        elif abs(p * (t1 - t0) - (vb - va)) > slack:
            failures.append(
                f"segment [{t0:g}, {t1:g}] spends {p * (t1 - t0):g} but the "
                f"path rises {vb - va:g}"
            )

    # (2) the schedule stays inside the corridor
    if schedule.end_time > T:
        failures.append(
            f"the schedule runs to t={schedule.end_time:g}, past the horizon {T:g}"
        )
    else:
        report = check_feasible(schedule, minimum, harvested)
        if report.max_overdraw > slack:
            t = report.overdraw_time
            ceiling = harvested.eval_left(t)
            failures.append(
                f"the path overdraws the harvest at t={t:g}: it has spent "
                f"{ceiling + report.max_overdraw:g} of H(t^-) = {ceiling:g}"
            )
        if report.max_shortfall > slack:
            t = report.shortfall_time
            floor = minimum.eval(t)
            failures.append(
                f"the path falls short of the floor at t={t:g}: it has spent "
                f"{floor - report.max_shortfall:g} of M(t) = {floor:g}"
            )

    # (3) all the energy is spent by the deadline
    t_end, v_end = verts[-1]
    if t_end != T or abs(v_end - end_value) > slack:
        failures.append(
            f"the path ends at ({t_end:g}, {v_end:g}), not at "
            f"(T, H(T^-)) = ({T:g}, {end_value:g})"
        )

    # (4) every bend sits on the right envelope
    bends: list[tuple[float, str, float, float]] = []
    for (t0, v0), (t1, v1), (t2, v2) in zip(verts, verts[1:], verts[2:]):
        before = (v1 - v0) / (t1 - t0)
        after = (v2 - v1) / (t2 - t1)
        ds = after - before
        if ds > DEFAULT_TOL:
            bends.append((t1, "upper", before, after))
            ceiling = harvested.eval_left(t1)
            if abs(v1 - ceiling) > DEFAULT_TOL * max(1.0, abs(ceiling)):
                failures.append(
                    f"slope increases at t={t1:g} but the path is at {v1:g}, "
                    f"off the ceiling {ceiling:g}"
                )
        elif ds < -DEFAULT_TOL:
            bends.append((t1, "lower", before, after))
            floor = minimum.eval(t1)
            if abs(v1 - floor) > DEFAULT_TOL * max(1.0, abs(floor)):
                failures.append(
                    f"slope decreases at t={t1:g} but the path is at {v1:g}, "
                    f"off the floor {floor:g}"
                )
    return CertificateReport(not failures, tuple(failures), tuple(bends))


def dual_bound(
    schedule: PowerSchedule,
    harvested: CumulativeCurve,
    minimum: CumulativeCurve,
    rate: RateFunction,
) -> float:
    """An upper bound on the throughput of every feasible schedule in the
    corridor, priced by ``schedule``'s own powers.

    Segment ``s`` of ``schedule`` ends at ``t_s`` and has length ``tau_s``,
    power ``p_s`` and price ``c_s = r'(p_s)``, the water level there.  Every
    continuous feasible spending curve ``S`` meets ``S(t) <= H(t^-)`` and
    ``S(t) >= M(t)`` at every ``t``, and weak duality holds with multipliers
    at any constraint times, so they sit at the schedule's own breakpoints:
    a fall in the level, ``lambda_s = c_s - c_{s+1} > 0``, prices the
    ceiling ``H(t_s^-)``, a rise, ``nu_s = c_{s+1} - c_s > 0``, prices the
    floor ``M(t_s)``, and the last level prices ``S(T) <= H(T^-)``.  Summed
    by parts (``S(0) = 0``), the multipliers' ``S`` terms are ``-c_s`` times
    the energy spent on segment ``s``, so every feasible schedule sends at most

        U = sum tau_s r*(c_s) + sum lambda_s H(t_s^-) - sum nu_s M(t_s)
            + c_last H(T^-),

    with the conjugate ``r*(c_s) = sup_p r(p) - c_s p`` attained at ``p_s``
    because the rate is concave.  The optimal schedule of directional
    water-filling meets the bound: its level falls only on the ceiling and
    rises only on the floor.

    The terms are summed exactly rounded (``math.fsum``), so the bound does
    not depend on the platform's summation order.  Raises ``ValueError``
    when the horizons differ or the schedule does not end at the horizon.
    """
    T = _horizon(harvested, minimum)
    starts, ends, p = map(np.array, (schedule.starts, schedule.ends, schedule.powers))
    if ends[-1] != T:
        raise ValueError(
            f"the schedule ends at t={ends[-1]:g}, not at the horizon {T:g}"
        )
    c = np.asarray(rate.deriv(p), dtype=float)
    terms = ((ends - starts) * (np.asarray(rate(p), dtype=float) - c * p)).tolist()
    prices = c.tolist()
    for t, c0, c1 in zip(ends.tolist(), prices, prices[1:]):
        if c0 > c1:
            terms.append((c0 - c1) * harvested.eval_left(t))
        elif c0 < c1:
            terms.append((c0 - c1) * minimum.eval(t))
    terms.append(prices[-1] * harvested.eval_left(T))
    return math.fsum(terms)
