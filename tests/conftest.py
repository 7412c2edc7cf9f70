"""Shared instance generators and small numerical oracles for the tests.

Everything here is deterministic per seed so failures reproduce exactly.
"""

from __future__ import annotations

import math
import random
from collections import deque

import numpy as np

from ehsched import (
    DEFAULT_TOL,
    BatterySchedule,
    CertificateReport,
    CumulativeCurve,
    FeasibilityReport,
    GridInfeasibleError,
    GridSpec,
    InfeasibleError,
    LeakageProblem,
    LeakageSolution,
    LeakageTrace,
    PiecewiseCurve,
    PowerSchedule,
    RateFunction,
    StringSolution,
    awgn_rate,
    dying_battery_scenario,
    from_packet_arrivals,
    merge_times,
    min_energy_from_battery,
    p_star,
    throughput,
    solar_harvest_rate,
    zero_curve,
)
from ehsched.curves import _merged_limits, corridor_gates
from ehsched.leakage import _decompose_blocks

RATE1 = awgn_rate(1.0)


def random_corridor(seed: int) -> tuple[CumulativeCurve, CumulativeCurve]:
    """Random feasible (harvested, minimum) pair.

    Mixes the three corridor shapes the solver must handle: plain packet
    arrivals (floor at zero), packets with a finite battery (overflow floor),
    and dying batteries (staircase floor under a constant ceiling).  Arrival
    gaps are kept at or above 0.3 time units so oracle grids stay sane.
    """
    rng = random.Random(seed)
    style = rng.choice(("packets", "packets", "capped", "dying"))
    if style == "dying":
        n = rng.randint(1, 3)
        amounts = [rng.uniform(0.5, 3.0) for _ in range(n)]
        times, t = [], 0.0
        for _ in range(n):
            t += rng.uniform(0.5, 2.0)
            times.append(t)
        return dying_battery_scenario(amounts, times)

    n = rng.randint(1, 6)
    t = 0.0 if rng.random() < 0.7 else rng.uniform(0.3, 1.5)
    packets = []
    for _ in range(n):
        packets.append((t, rng.uniform(0.3, 3.0)))
        t += rng.uniform(0.3, 2.0)
    horizon = packets[-1][0] + rng.uniform(0.5, 2.0)
    harvested = from_packet_arrivals(packets, horizon)
    if style == "capped":
        # any packet larger than the battery would overflow instantaneously,
        # which no schedule can absorb, so the cap must clear every jump
        total = sum(e for _, e in packets)
        largest = max(e for _, e in packets)
        capacity = max(rng.uniform(0.4, 0.9) * total, largest + 0.1)
        minimum = min_energy_from_battery(
            harvested, BatterySchedule.constant(capacity, horizon)
        )
    else:
        minimum = zero_curve(horizon)
    return harvested, minimum


def chord_certificate(
    solution: StringSolution,
    minimum: CumulativeCurve,
    harvested: CumulativeCurve,
) -> CertificateReport:
    """Independent geometric cross-check of a path's optimality.

    Joins every pair of vertices by a straight chord and fails the path if a
    chord that deviates from it stays inside every gate between its ends:
    the path could then be shortened, so it was not taut.  Costs
    O(vertices^2 x gates), so it suits small instances only.
    """
    failures: list[str] = []
    tol = DEFAULT_TOL
    gates, end_value = corridor_gates(harvested, minimum)
    verts = solution.vertices
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


# --------------------------------------------------------------------------
# point-by-point references for the corridor helpers
#
# The library reads two curves at a time in one merged walk
# (curves._merged_limits), and check_feasible reads the spent curve against
# each envelope in its own walk; these are the earlier versions, which
# evaluate every curve one point at a time at the merged breakpoints of all
# of them, and the walk of check_feasible that read the merged walk's
# tuples.  They must agree with the library exactly.


def pointwise_min_energy_from_battery(
    harvested: CumulativeCurve, battery: BatterySchedule
) -> CumulativeCurve:
    """Running maximum of ``max(H - b, 0)``, one ``eval`` per point."""
    if battery.horizon != harvested.horizon:
        raise ValueError(
            f"battery horizon {battery.horizon} != curve horizon {harvested.horizon}"
        )

    def deficit(t: float, left: bool) -> float:
        h = harvested.eval_left(t) if left else harvested.eval(t)
        return h - battery.eval(t)

    # the running maximum starts at >= 0, so comparing it with the unclamped
    # deficit is the same as comparing it with the clamped one
    cur = max(deficit(0.0, True), 0.0)
    bps = [(0.0, cur, max(cur, deficit(0.0, False)))]
    cur = bps[0][2]
    times = merge_times(harvested, battery)
    for a, c in zip(times, times[1:]):
        ua, uc = deficit(a, False), deficit(c, True)
        if uc > cur:
            if ua < cur:
                # the deficit overtakes the running max inside the piece
                tc = a + (c - a) * (cur - ua) / (uc - ua)
                if a < tc < c:
                    bps.append((tc, cur, cur))
            left = uc
        else:
            left = cur
        cur = max(left, deficit(c, False))
        bps.append((c, left, cur))
    return CumulativeCurve(tuple(bps), harvested.horizon)


def pointwise_corridor_gates(
    harvested: CumulativeCurve, minimum: CumulativeCurve, tol: float = DEFAULT_TOL
) -> tuple[list[tuple[float, float, float]], float]:
    """The corridor's gates and ``H(T^-)``, six ``eval`` calls per time."""
    T = harvested.horizon
    if minimum.horizon != T:
        raise ValueError(f"horizon mismatch: {minimum.horizon} != {T}")
    end_value = harvested.eval_left(T)

    if minimum.eval(0.0) > tol:
        raise InfeasibleError(
            f"the floor forces {minimum.eval(0.0):g} energy to be spent "
            "instantaneously at t=0"
        )
    gates: list[tuple[float, float, float]] = []
    for t in merge_times(harvested, minimum):
        if t == 0.0:
            continue
        hi = harvested.eval_left(t)
        lo = minimum.eval(t)
        if minimum.eval_left(t) > harvested.eval_left(t) + tol:
            raise InfeasibleError(f"floor exceeds ceiling just before t={t}")
        if minimum.eval(t) > harvested.eval(t) + tol:
            raise InfeasibleError(f"floor exceeds ceiling at t={t}")
        if lo > hi + tol:
            raise InfeasibleError(
                f"floor {lo:g} at t={t} exceeds the energy {hi:g} available "
                "before the jump there"
            )
        if t == T:
            continue
        gates.append((t, min(lo, hi, end_value), hi))
    gates.append((T, end_value, end_value))
    return gates, end_value


def reference_largest_excess(a: PiecewiseCurve, b: PiecewiseCurve) -> tuple[float, float | None]:
    """The largest excess of ``b`` over ``a`` and the first time it is
    reached, read from the ``(t, a(t^-), a(t), b(t^-), b(t))`` tuples of
    ``curves._merged_limits``, left limit first."""
    most, at = 0.0, None
    for t, al, ar, bl, br in _merged_limits(a, b):
        if bl - al > most:
            most, at = bl - al, t
        if br - ar > most:
            most, at = br - ar, t
    return most, at


def pointwise_check_feasible(
    schedule: PowerSchedule,
    minimum: CumulativeCurve,
    harvested: CumulativeCurve,
    tol: float = DEFAULT_TOL,
) -> FeasibilityReport:
    """``minimum <= spent <= harvested`` at the merged breakpoints, six
    ``eval`` calls per time."""
    spent = schedule.energy_curve(harvested.horizon)
    over, over_t = 0.0, None
    short, short_t = 0.0, None
    for t in merge_times(spent, minimum, harvested):
        for side in (True, False):
            e = spent.eval_left(t) if side else spent.eval(t)
            h = harvested.eval_left(t) if side else harvested.eval(t)
            m = minimum.eval_left(t) if side else minimum.eval(t)
            if e - h > over:
                over, over_t = e - h, t
            if m - e > short:
                short, short_t = m - e, t
    return FeasibilityReport(
        feasible=(over <= tol and short <= tol),
        max_overdraw=over,
        overdraw_time=over_t,
        max_shortfall=short,
        shortfall_time=short_t,
    )


# --------------------------------------------------------------------------
# per-element references for the solver internals
#
# The library evaluates the rate once per schedule, runs the funnel with the
# cross product inlined, finds leakage blocks with one stack pass, and reads a
# replay's harvest from its own event loop, whose points go into one flat
# list; these are the earlier versions, which the library must match exactly.


def reference_throughput(schedule: PowerSchedule, rate: RateFunction) -> float:
    """Total data, one scalar rate call per segment."""
    return sum((t1 - t0) * float(rate(p)) for t0, t1, p in schedule.segments)


def awgn_conjugate(price: float, noise: float = 1.0) -> float:
    """The concave conjugate ``r*(c) = sup_{p >= 0} r(p) - c p`` of the
    Gaussian rate ``r(p) = 0.5 log2(1 + p / noise)`` in closed form: the
    supremum is at ``p = max(1 / (2 ln 2 c) - noise, 0)``, where ``r'(p) = c``
    or, for prices above ``r'(0)``, at zero power."""
    p = max(1.0 / (2.0 * math.log(2.0) * price) - noise, 0.0)
    return 0.5 * math.log2(1.0 + p / noise) - price * p


def reference_dual_bound(
    gates: list[tuple[float, float, float]],
    powers: list[float],
    rate: RateFunction,
    conjugate,
) -> float:
    """The Lagrangian bound at the prices ``c_i = r'(powers[i])`` on the
    pieces between consecutive ``gates``, one term at a time with an
    independent ``conjugate``: ``sum tau_i r*(c_i)``, plus ``(c_k - c_{k+1})``
    times the ceiling where the price falls at gate ``k`` or the floor where
    it rises, plus the last price times ``H(T^-)``."""
    prices = [float(rate.deriv(p)) for p in powers]
    starts = [0.0] + [t for t, _, _ in gates[:-1]]
    total = sum(
        (t - t0) * conjugate(c) for t0, (t, _, _), c in zip(starts, gates, prices)
    )
    for (_, lo, hi), c, c_next in zip(gates, prices, prices[1:]):
        total += (c - c_next) * (hi if c > c_next else lo)
    return total + prices[-1] * gates[-1][2]


def _cross(o, a, b) -> float:
    """Positive iff slope(o, b) exceeds slope(o, a) (for a.x, b.x > o.x)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_taut_string(
    harvested: CumulativeCurve, minimum: CumulativeCurve
) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float, str], ...]]:
    """Vertices and ``(time, value, kind)`` contacts of the funnel that calls
    ``_cross`` for every test and ``settle`` after every gate point."""
    gates, end_value = corridor_gates(harvested, minimum)
    apex = (0.0, 0.0)
    contacts = [(0.0, 0.0, "start")]
    upper: deque[tuple[float, float]] = deque()
    lower: deque[tuple[float, float]] = deque()

    def settle() -> None:
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
            contacts.append((bend[0], bend[1], kind))
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
        contacts.append((end[0], end[1], "end"))
    else:
        contacts[-1] = (end[0], end[1], "end")
    return tuple((t, v) for t, v, _ in contacts), tuple(contacts)


def reference_decompose_blocks(
    packets: tuple[tuple[float, float], ...],
    deadline: float | None,
    epsilon: float,
    p_opt: float,
) -> list[tuple[int, int, float, float, float | None]]:
    """Leakage blocks by rescanning the remaining packets for each block's
    longest minimum-average prefix: O(packets x blocks)."""
    n = len(packets)
    blocks: list[tuple[int, int, float, float, float | None]] = []
    i = 0
    while i < n:
        start_t = packets[i][0]
        if deadline is None:
            blocks.append((i, n - 1, p_opt, start_t, None))
            break
        cum_e = 0.0
        best_k = i
        best_avg = math.inf
        for k in range(i, n):
            cum_e += packets[k][1]
            end_t = packets[k + 1][0] if k + 1 < n else deadline
            avg = cum_e / (end_t - start_t)
            if avg <= best_avg:
                best_avg = avg
                best_k = k
        end_t = packets[best_k + 1][0] if best_k + 1 < n else deadline
        blocks.append((i, best_k, max(p_opt, best_avg - epsilon), start_t, end_t))
        i = best_k + 1
    return blocks


def reference_solve_n_packet(problem: LeakageProblem) -> LeakageSolution:
    """The schedule of :func:`ehsched.solve_n_packet` by its earlier walk: a
    call of ``_advance`` per arrival and block end, and an ``emit`` closure
    per piece that merges it into the last segment at the same power."""
    p_opt = p_star(problem.rate, problem.epsilon)
    packets = problem.packets
    blocks = _decompose_blocks(packets, problem.deadline, problem.epsilon, p_opt)
    tol = 1e-12 * max(1.0, problem.total_energy)

    segments: list[tuple[float, float, float]] = []

    def emit(t0: float, t1: float, power: float) -> None:
        if not t1 > t0:
            return
        if segments and segments[-1][1] == t0 and segments[-1][2] == power:
            segments[-1] = (segments[-1][0], t1, power)
        else:
            segments.append((t0, t1, power))

    def advance(cur, until, charge, power, drain):
        if not until > cur:
            return cur, charge
        if charge <= tol:
            emit(cur, until, 0.0)
            return until, 0.0
        t_empty = cur + charge / drain
        if t_empty < until:
            emit(cur, t_empty, power)
            emit(t_empty, until, 0.0)
            return until, 0.0
        emit(cur, until, power)
        return until, max(charge - (until - cur) * drain, 0.0)

    block_powers = [0.0] * len(packets)
    boundaries = [0.0]
    for first, last, power, start_t, end_t in blocks:
        for j in range(first, last + 1):
            block_powers[j] = power
        drain = power + problem.epsilon
        cur = start_t
        charge = 0.0
        for j in range(first, last + 1):
            cur, charge = advance(cur, packets[j][0], charge, power, drain)
            charge += packets[j][1]
        if end_t is None:
            t_empty = cur + charge / drain
            emit(cur, t_empty, power)
            boundaries.append(t_empty)
        else:
            cur, charge = advance(cur, end_t, charge, power, drain)
            boundaries.append(end_t)

    schedule = PowerSchedule(tuple(segments))
    transmit_duration = sum(t1 - t0 for t0, t1, p in schedule.segments if p > 0.0)
    return LeakageSolution(
        schedule=schedule,
        block_powers=tuple(block_powers),
        block_boundaries=tuple(boundaries),
        total_data=throughput(schedule, problem.rate),
        leaked_energy=problem.epsilon * transmit_duration,
    )


def reference_usable(
    problem: LeakageProblem, leaked: CumulativeCurve
) -> tuple[tuple[float, float, float], ...]:
    """Breakpoints of a replay's harvest minus its leak: the packets'
    staircase and the leak curve read at their merged breakpoints.  The
    staircase is built by hand, so the reference uses none of the library's
    curve builders."""
    horizon = leaked.horizon
    bps = []
    cum = 0.0
    for t, e in problem.packets:
        bps.append((t, cum, cum + e))
        cum += e
    if horizon > bps[-1][0]:
        bps.append((horizon, cum, cum))
    harvested = CumulativeCurve._trusted(*zip(*bps), horizon)
    return tuple(
        (
            t,
            harvested.eval_left(t) - leaked.eval_left(t),
            harvested.eval(t) - leaked.eval(t),
        )
        for t in merge_times(harvested, leaked)
    )


def reference_simulate(schedule: PowerSchedule, problem: LeakageProblem) -> LeakageTrace:
    """The replay of :func:`ehsched.simulate` with its points kept as
    tuples, recorded by a closure, and each event's arrival looked up in a
    dict."""
    eps = problem.epsilon
    arrivals = dict(problem.packets)
    total = problem.total_energy
    tol = 1e-15 * max(1.0, total)

    segments = schedule.segments
    end = schedule.end_time
    if problem.deadline is not None:
        horizon = max(problem.deadline, end)
    else:
        horizon = max(end, problem.packets[-1][0])
    times = sorted(
        {0.0, horizon} | set(arrivals) | {t for seg in segments for t in seg[:2]}
    )

    cur = 0.0
    charge = harvested = arrivals[0.0]
    # (t, transmitted, leaked, harvested before and after an arrival at t)
    points = [(0.0, 0.0, 0.0, 0.0, harvested)]
    tx = 0.0
    lk = 0.0
    infeasible_at = None

    def record(t: float) -> None:
        if t > points[-1][0]:
            points.append((t, tx, lk, harvested, harvested))

    k = 0
    for nxt in times[1:]:
        while k < len(segments) and segments[k][1] <= cur:
            k += 1
        power = segments[k][2] if cur < end else 0.0
        if charge > tol:
            rate_out = power + eps
            t_empty = cur + charge / rate_out if rate_out > 0.0 else math.inf
            stop = min(t_empty, nxt)
            dt = stop - cur
            tx += power * dt
            lk += eps * dt
            charge = 0.0 if stop == t_empty else charge - rate_out * dt
            cur = stop
            record(cur)
        if cur < nxt:
            if power > 1e-9 and nxt - cur > 1e-9 and infeasible_at is None:
                infeasible_at = cur
            charge = 0.0
            cur = nxt
            record(cur)
        credit = arrivals.get(nxt)
        if credit is not None:
            charge += credit
            harvested += credit
            points[-1] = points[-1][:4] + (harvested,)
    if problem.deadline is None and charge > tol and eps > 0.0:
        horizon = cur + charge / eps
        lk += charge
        record(horizon)

    transmitted = CumulativeCurve._trusted(
        *zip(*((t, v, v) for t, v, _, _, _ in points)), horizon
    )
    leaked = CumulativeCurve._trusted(*zip(*((t, v, v) for t, _, v, _, _ in points)), horizon)
    usable = PiecewiseCurve._trusted(
        *zip(*((t, h0 - v, h1 - v) for t, _, v, h0, h1 in points)), horizon
    )
    return LeakageTrace(transmitted, leaked, usable, infeasible_at)


def reference_dp_throughput(
    harvested: CumulativeCurve,
    minimum: CumulativeCurve,
    rate: RateFunction,
    grid: GridSpec,
) -> float:
    """``dp_throughput`` with every gate's max-plus step taken over the full
    ``(hi_l + 1) x (dmax + 1)`` matrix of levels and steps, unreachable
    levels included, as one array: the bits the blocked DP must match."""
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
            total += _reference_dp_stretch(start, stretch, rate, grid)
            start, stretch = (t, hi), []
    return total


def _reference_dp_stretch(start, gates, rate, grid) -> float:
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


def reference_dp_leakage_throughput(problem: LeakageProblem, grid: GridSpec) -> float:
    """``dp_leakage_throughput`` with every interval's step taken over all
    ``levels x levels`` carry pairs, unreachable carries included, in blocks
    of 64 rows: the bits the DP over reachable carries must match."""
    rate, eps = problem.rate, problem.epsilon
    p_opt = p_star(rate, eps)
    levels = grid.energy_levels
    carries = np.linspace(0.0, problem.total_energy, levels)
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
        rows = np.lib.stride_tricks.sliding_window_view(gains, levels)[::-1]
        new = np.empty(levels)
        new[0] = np.max(value + emptied(carries + e, length))
        for k in range(1, levels, 64):
            new[k : k + 64] = np.max(rows[k : k + 64] + value, axis=1)
        value = new

    t, e = packets[-1]
    length = None if problem.deadline is None else problem.deadline - t
    return float(np.max(value + emptied(carries + e, length)))


def assert_rebuilds(curve) -> None:
    """A curve the library built without checks holds three float tuples of
    one length and equals its rebuild through the validating constructor
    from its rows, with the same hash."""
    assert type(curve.horizon) is float
    columns = (curve.times, curve.left, curve.right)
    assert all(type(c) is tuple and len(c) == len(curve.times) for c in columns)
    assert all(type(x) is float for c in columns for x in c)
    assert all(type(x) is float for bp in curve.breakpoints for x in bp)
    rebuilt = type(curve)(curve.breakpoints, curve.horizon)
    assert rebuilt == curve and hash(rebuilt) == hash(curve)


def assert_schedule_rebuilds(schedule: PowerSchedule) -> None:
    """A schedule the library built without checks holds three float tuples
    of one length and equals its rebuild through the validating constructor
    from its rows, with the same hash."""
    columns = (schedule.starts, schedule.ends, schedule.powers)
    assert all(type(c) is tuple and len(c) == len(schedule.starts) for c in columns)
    assert all(type(x) is float for c in columns for x in c)
    assert type(schedule.segments) is tuple
    assert all(type(x) is float for seg in schedule.segments for x in seg)
    rebuilt = PowerSchedule(schedule.segments)
    assert rebuilt == schedule and hash(rebuilt) == hash(schedule)


def narrow_gate_train(n: int) -> tuple[list[tuple[float, float]], float]:
    """``n`` packets of 0.2-3.0 at gaps 0.1-1.0, cycling with coprime
    periods, and the time one more gap after the last.  Under a 3.5 battery
    many of its gates are narrower than the level step of a grid DP spread
    over the whole train's energy."""
    t, packets = 0.0, []
    for i in range(n):
        packets.append((t, 0.2 + 2.8 * (i * 53 % 29) / 28))
        t += 0.1 + 0.9 * (i * 37 % 17) / 16
    return packets, t


def leaky_train(n: int, seed: int = 0) -> LeakageProblem:
    """``n`` random packets of 0.3-3.0 at gaps 0.3-2.0, leaking at 0.5, with
    the deadline one unit after the last arrival.  The 401 carry levels of
    the leakage DP are 6% short of the optimum at 1448 packets."""
    rng = random.Random(seed)
    t, packets = 0.0, []
    for _ in range(n):
        packets.append((t, rng.uniform(0.3, 3.0)))
        t += rng.uniform(0.3, 2.0)
    return LeakageProblem(tuple(packets), 0.5, packets[-1][0] + 1.0, RATE1)


def random_packets(seed: int, max_packets: int = 5) -> tuple[tuple[float, float], ...]:
    """Random packet train starting at t=0 with gaps of at least 0.3."""
    rng = random.Random(seed)
    n = rng.randint(1, max_packets)
    t, packets = 0.0, []
    for _ in range(n):
        packets.append((t, rng.uniform(0.5, 4.0)))
        t += rng.uniform(0.3, 2.5)
    return tuple(packets)


def random_leakage_problem(
    seed: int, bounded: bool = True, epsilon: float | None = None
) -> LeakageProblem:
    """Random leakage instance; bounded deadlines land past the last arrival."""
    rng = random.Random(seed)
    packets = random_packets(seed)
    eps = rng.uniform(0.1, 1.5) if epsilon is None else epsilon
    deadline = packets[-1][0] + rng.uniform(0.5, 2.5) if bounded else None
    return LeakageProblem(packets, eps, deadline, RATE1)


def binding_leakage_problem(seed: int, margin: float = 0.05) -> LeakageProblem:
    """Random bounded instance whose single-packet relaxation is deadline-bound.

    The overall energy rate is pushed strictly above ``p_star + epsilon``, so
    the all-at-once optimum is the unique constant-power schedule spanning the
    whole horizon.  Then ``D_NT`` equals ``D_ST`` exactly when every prefix of
    arrivals keeps up with the overall rate, and every prefix average is kept
    at least ``margin`` away (relatively) from that rate so the comparison is
    numerically unambiguous either way.
    """
    rng = random.Random(seed)
    eps = rng.uniform(0.2, 1.0)
    p_opt = p_star(RATE1, eps)
    n = rng.randint(2, 5)
    durations = [rng.uniform(0.5, 2.0) for _ in range(n)]
    deadline = sum(durations)
    overall = (1.0 + rng.uniform(0.1, 0.6)) * p_opt + eps  # energy per unit time
    total = overall * deadline
    for _ in range(1000):
        weights = [rng.uniform(0.2, 1.0) for _ in range(n)]
        scale = total / sum(weights)
        energies = [w * scale for w in weights]
        prefix_e, prefix_t, clear = 0.0, 0.0, True
        for k in range(n - 1):
            prefix_e += energies[k]
            prefix_t += durations[k]
            if abs(prefix_e / prefix_t - overall) < margin * overall:
                clear = False
                break
        if clear:
            break
    else:  # pragma: no cover - generator failed to separate prefixes
        raise AssertionError(f"no margin-clear instance for seed {seed}")
    t, packets = 0.0, []
    for e, d in zip(energies, durations):
        packets.append((t, e))
        t += d
    return LeakageProblem(tuple(packets), eps, deadline, RATE1)


def broadcast_inner_max(
    mu1: float, mu2: float, n1: float, n2: float, power: float, steps: int = 40001
) -> float:
    """Brute-force weighted-rate maximum over all splits of a total power.

    The noisier receiver decodes under the cleaner receiver's power, so its
    rate is ``0.5*log2(1 + p2/(p1 + n2))``.
    """
    p1 = np.linspace(0.0, power, steps)
    p2 = power - p1
    vals = mu1 * 0.5 * np.log2(1.0 + p1 / n1) + mu2 * 0.5 * np.log2(
        1.0 + p2 / (p1 + n2)
    )
    return float(vals.max())


def battery_content(trace, t: float, left: bool = True) -> float:
    """Stored energy at time t from a simulation trace (left limit default)."""
    if left:
        return trace.usable.eval_left(t) - trace.transmitted.eval_left(t)
    return trace.usable.eval(t) - trace.transmitted.eval(t)


def assert_close(actual: float, expected: float, tol: float, label: str) -> None:
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} differs from {expected!r} by "
        f"{abs(actual - expected):.3e} (tolerance {tol:.1e})"
    )


def chord_slopes(xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Slopes of consecutive chords; non-increasing iff the samples are
    concave, whatever the grid spacing."""
    return np.diff(values) / np.diff(xs)


def centered_second_differences(values: np.ndarray) -> np.ndarray:
    return values[2:] - 2.0 * values[1:-1] + values[:-2]


LN2 = math.log(2.0)


# --------------------------------------------------------------------------
# closed-form and grid oracles


def solar_harvested_energy(t: float) -> float:
    """Closed-form integral of :func:`solar_harvest_rate` from 0 to ``t``."""
    if t <= 6.0:
        return 0.0
    t = min(t, 18.0)
    return 5.0 * (t - 6.0) - (5.0 / 108.0) * ((t - 12.0) ** 3 + 216.0)


def grid_argmax_f(
    rate: RateFunction,
    epsilon: float,
    p_max: float = 100.0,
    samples: int = 4096,
) -> float:
    """Grid maximizer of the energy efficiency f(p) = r(p) / (p + epsilon)."""
    if samples < 100:
        raise ValueError("samples must be at least 100")
    powers = np.geomspace(p_max * 1e-9, p_max, samples)
    f = np.asarray(rate(powers), dtype=float) / (powers + epsilon)
    return float(powers[int(np.argmax(f))])


def tangent_root(deadline: float) -> float:
    """Departure point of the solar optimum: where the remaining-time chord
    slope equals the harvest rate, ``h(a) * (T - a) = H(T) - H(a)``.

    The root is meaningful only for deadlines past the harvest peak (the
    curve is convex before it, so the optimum never leaves the ceiling
    early); the chord function changes sign exactly once, between sunrise
    and the peak.
    """
    if not 6.0 < deadline <= 18.0:
        raise ValueError(f"deadline must lie in (6, 18], got {deadline}")

    h_end = solar_harvested_energy(deadline)

    def g(a: float) -> float:
        return solar_harvest_rate(a) * (deadline - a) - (
            h_end - solar_harvested_energy(a)
        )

    lo, hi = 6.0 + 1e-9, min(12.0, deadline)
    if not (g(lo) < 0.0 < g(hi)):
        raise ValueError(
            f"no sign change on ({lo:g}, {hi:g}): the optimum follows the "
            "harvest curve to the deadline, there is no departure point"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
