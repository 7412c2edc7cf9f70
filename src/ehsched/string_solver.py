"""Taut-string solver: the throughput-optimal cumulative spending curve.

The optimal spending curve between a minimum floor ``M`` and a harvested
ceiling ``H`` is the shortest path from ``(0, 0)`` to ``(T, H(T^-))`` that
stays inside the corridor — a string pulled taut between the two envelopes.
Its geometry is independent of the (strictly concave) rate law, so the solver
works purely on the corridor and evaluates throughput afterwards.

Because the spending curve is continuous while the envelopes may jump, the
binding constraints are the gates of :func:`~ehsched.curves.corridor_gates`
at the merged breakpoints.  The solver sweeps them left to right with a
funnel of two convex chains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .curves import (
    DEFAULT_TOL,
    CumulativeCurve,
    PowerSchedule,
    corridor_gates,
    integrate_rate,
    solar_harvest_rate,
    zero_curve,
)
from .rate import RateFunction, awgn_rate, throughput

__all__ = [
    "Contact",
    "StringSolution",
    "CertificateReport",
    "taut_string",
    "solve_solar",
    "optimality_certificate",
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
    total_data: float | None


def _cross(o, a, b) -> float:
    """Positive iff slope(o, b) exceeds slope(o, a) (for a.x, b.x > o.x)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def taut_string(
    harvested: CumulativeCurve,
    minimum: CumulativeCurve | None = None,
    rate: RateFunction | None = None,
    tol: float = DEFAULT_TOL,
) -> StringSolution:
    """Shortest feasible spending curve from (0, 0) to (T, H(T^-)).

    The path is unique and maximizes throughput for every strictly concave
    increasing rate law.  When ``rate`` is given, ``total_data`` is filled in.
    """
    if minimum is None:
        minimum = zero_curve(harvested.horizon)
    gates, end_value = corridor_gates(harvested, minimum, tol)

    apex = (0.0, 0.0)
    contacts: list[Contact] = [Contact(0.0, 0.0, "start")]
    upper: deque[tuple[float, float]] = deque()  # ceiling chain, slopes increasing
    lower: deque[tuple[float, float]] = deque()  # floor chain, slopes decreasing

    def settle() -> None:
        # While the tightest floor direction exceeds the tightest ceiling
        # direction, the string must bend around the earlier of the two chain
        # fronts.  A violation can only appear when the newest gate point
        # collapsed its own chain to a singleton (appending at the back never
        # changes a surviving front), so the singleton side holds the newest
        # point and the bend is at the other side's front.
        nonlocal apex
        while upper and lower:
            if _cross(apex, upper[0], lower[0]) <= 0:
                return
            if len(upper) == 1:
                bend = lower.popleft()
                kind = "lower"
            else:
                bend = upper.popleft()
                kind = "upper"
            contacts.append(Contact(bend[0], bend[1], kind))
            apex = bend
            while upper and upper[0][0] <= apex[0]:
                upper.popleft()
            while lower and lower[0][0] <= apex[0]:
                lower.popleft()

    for t, lo, hi in gates:
        q = (t, hi)
        while upper:
            prev = upper[-2] if len(upper) > 1 else apex
            if _cross(prev, upper[-1], q) <= 0:
                upper.pop()
            else:
                break
        upper.append(q)
        settle()

        q = (t, lo)
        while lower:
            prev = lower[-2] if len(lower) > 1 else apex
            if _cross(prev, lower[-1], q) >= 0:
                lower.pop()
            else:
                break
        lower.append(q)
        settle()

    end = (harvested.horizon, end_value)
    if apex != end:
        contacts.append(Contact(end[0], end[1], "end"))
    else:
        contacts[-1] = Contact(end[0], end[1], "end")

    vertices = tuple((c.time, c.value) for c in contacts)
    segments = tuple(
        (t0, t1, (v1 - v0) / (t1 - t0))
        for (t0, v0), (t1, v1) in zip(vertices, vertices[1:])
    )
    schedule = PowerSchedule(segments)
    total = throughput(schedule, rate) if rate is not None else None
    return StringSolution(schedule, vertices, tuple(contacts), total)


def solve_solar(
    deadline: float,
    resolution: int = 1024,
    rate: RateFunction | None = None,
) -> StringSolution:
    """Optimal schedule for the bell-shaped solar harvest model.

    The continuous harvest curve is sampled to ``resolution`` uniform pieces
    and solved with no spending floor.  Defaults to the unit-noise Gaussian
    rate law for throughput reporting.
    """
    if not 6.0 <= deadline <= 24.0:
        raise ValueError(f"deadline must lie in [6, 24], got {deadline}")
    if resolution < 64:
        raise ValueError(f"resolution must be at least 64, got {resolution}")
    harvested = integrate_rate(solar_harvest_rate, deadline, resolution)
    return taut_string(harvested, rate=rate if rate is not None else awgn_rate(1.0))


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    failures: tuple[str, ...]


def optimality_certificate(
    solution: StringSolution,
    minimum: CumulativeCurve,
    harvested: CumulativeCurve,
    tol: float = DEFAULT_TOL,
) -> CertificateReport:
    """Geometric proof-check of a solution, independent of the sweep.

    Verifies that (a) no two points of the path can be joined by a distinct
    feasible straight chord — otherwise the path wasn't taut — and (b) every
    slope increase happens on the ceiling and every slope decrease on the
    floor.  Intended for desk-scale instances: cost grows with
    (vertices^2 x breakpoints).
    """
    failures: list[str] = []
    gates, end_value = corridor_gates(harvested, minimum, tol)
    verts = solution.vertices

    # (b) every bend sits on the right envelope
    for (t0, v0), (t1, v1), (t2, v2) in zip(verts, verts[1:], verts[2:]):
        ds = (v2 - v1) / (t2 - t1) - (v1 - v0) / (t1 - t0)
        if ds > tol:
            ceiling = harvested.eval_left(t1)
            if abs(v1 - ceiling) > tol * max(1.0, abs(ceiling)):
                failures.append(
                    f"slope increases at t={t1:g} but the path is at {v1:g}, "
                    f"off the ceiling {ceiling:g}"
                )
        elif ds < -tol:
            floor = minimum.eval(t1)
            if abs(v1 - floor) > tol * max(1.0, abs(floor)):
                failures.append(
                    f"slope decreases at t={t1:g} but the path is at {v1:g}, "
                    f"off the floor {floor:g}"
                )

    # (a) no feasible straight chord shortcuts the path
    scale = max(1.0, end_value)
    for i in range(len(verts)):
        for j in range(i + 2, len(verts)):
            (ta, va), (tb, vb) = verts[i], verts[j]
            slope = (vb - va) / (tb - ta)

            def chord(t: float) -> float:
                return va + slope * (t - ta)

            deviates = any(
                abs(chord(t) - v) > tol * scale for t, v in verts[i + 1 : j]
            )
            if not deviates:
                continue
            feasible = all(
                lo - tol * scale <= chord(t) <= hi + tol * scale
                for t, lo, hi in gates
                if ta < t < tb
            )
            if feasible:
                failures.append(
                    f"the chord from t={ta:g} to t={tb:g} is feasible and "
                    "shorter than the path between them"
                )
    return CertificateReport(ok=not failures, failures=tuple(failures))
